"""Test-session header: the BLAS configuration that a run's times depend on.

The same facts as ``bench/run.py``'s ``machine_facts``, so that a Tier-1
wall time can be quoted with the configuration that produced it.
"""

import os


def _blas_configuration() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "library default")
    return (f"blas: {blas.get('name')} {blas.get('version')}, "
            f"OPENBLAS_NUM_THREADS={threads}, "
            f"nproc {len(os.sched_getaffinity(0))}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def pytest_report_header(config):
    return _blas_configuration()


def pytest_terminal_summary(terminalreporter, config):
    # -q drops the header, so a quiet run's log ends with the line instead
    if config.option.verbose < 0:
        terminalreporter.write_line(_blas_configuration())
