"""The scipy routines the library calls, each imported on first use.

``import scipy.linalg`` costs about 0.2 s, most of it in modules the
library never runs, and only the GP fits, the imputation of a GP model
and the simulators factor a matrix.  So no library module imports
scipy: each calls ``_lapack.<name>``, and the first access of a name
imports its module (PEP 562 ``__getattr__``) and binds the routine
here, so every later call costs one module-attribute lookup.
"""

import importlib

# routine name -> the scipy module that defines it
HOMES = {
    "dpotrf": "scipy.linalg.lapack",
    "dpotrs": "scipy.linalg.lapack",
    "dtrtri": "scipy.linalg.lapack",
    "dlauum": "scipy.linalg.lapack",
    "dtrmm": "scipy.linalg.blas",
    "dgemm": "scipy.linalg.blas",
    "dsyr": "scipy.linalg.blas",
    "dsymm": "scipy.linalg.blas",
    "dsymv": "scipy.linalg.blas",
    "solve_triangular": "scipy.linalg",
    "toeplitz": "scipy.linalg",
    "expit": "scipy.special",
}


def __getattr__(name):
    if name not in HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    routine = getattr(importlib.import_module(HOMES[name]), name)
    globals()[name] = routine
    return routine
