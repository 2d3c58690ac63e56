"""Deterministic gradient-ascent optimizer used for all model fitting.

Fixed-step Adam ascent (Kingma & Ba, ICLR 2015) on a smooth objective,
run to the iteration cap; the best iterate seen is the result.
Everything is deterministic given (objective, start point, config);
restarts draw their perturbations from a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Adam's first- and second-moment decays and its denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# the fixed Adam step, in the units of the optimization coordinates
STEP = 0.01
# restarts perturb each start coordinate by up to +-20 % (relative)
RESTART_SCALE = 0.2


@dataclass(frozen=True)
class OptConfig:
    max_iterations: int = 500

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("need max_iterations >= 1")


@dataclass
class OptTrace:
    """Objective values per iteration (index 0 = start point)."""

    objectives: list = field(default_factory=list)
    termination: str = ""
    n_iterations: int = 0

    def write_csv(self, path) -> None:
        lines = ["iteration,objective"] + [f"{i},{v:.17g}" for i, v in enumerate(self.objectives)]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def maximize(fun, x0, config: OptConfig = OptConfig()):
    """Maximize ``fun(x) -> (value, gradient)`` from x0.

    Returns ``(x_best, trace)`` where x_best is the best iterate seen.
    Terminates on the iteration cap or on a non-finite objective (the
    last finite best is returned).
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("start point must be a finite 1-D vector")
    f, g = fun(x)
    f = float(f)
    if not np.isfinite(f):
        raise ValueError(f"objective is not finite at the start point ({f})")
    g = np.asarray(g, dtype=float)

    trace = OptTrace(objectives=[f], termination="max_iterations")
    best_f, best_x = f, x.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)

    for t in range(1, config.max_iterations + 1):
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * g * g
        mhat = m / (1.0 - BETA1**t)
        vhat = v / (1.0 - BETA2**t)
        x = x + STEP * mhat / (np.sqrt(vhat) + EPS)

        f, g = fun(x)
        f = float(f)
        if not np.isfinite(f):
            trace.termination = "nonfinite"
            break
        g = np.asarray(g, dtype=float)
        trace.objectives.append(f)

        if f > best_f:
            best_f, best_x = f, x.copy()

    trace.n_iterations = t
    return best_x, trace


def maximize_restarts(fun, x0, config: OptConfig = OptConfig(),
                      n_restarts: int = 3, seed: int = 0):
    """Run ``maximize`` from x0 and from seeded perturbations of it.

    Restart k >= 1 starts at x0 + log(U(1-s, 1+s)) per coordinate, with
    s = RESTART_SCALE (a +-s relative perturbation of the underlying
    positive parameters).  Returns (x_best, trace_best, all_traces).
    """
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(seed)
    lo, hi = 1.0 - RESTART_SCALE, 1.0 + RESTART_SCALE
    starts = [x0] + [x0 + np.log(rng.uniform(lo, hi, len(x0)))
                     for _ in range(n_restarts - 1)]
    runs = [maximize(fun, start, config) for start in starts]
    # max keeps the first of equal bests, so earlier restarts win ties
    x_best, best = max(runs, key=lambda run: max(run[1].objectives))
    return x_best, best, [trace for _, trace in runs]
