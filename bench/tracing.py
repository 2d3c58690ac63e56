"""Spans around calls into the library, recorded from outside it.

``Tracer.active`` replaces the public functions of the library's
modules (and ``scipy.linalg.cho_solve`` as those modules call it) with
wrappers that record a span per call, and puts the originals back on
exit.  The objective callable handed to ``optimize.maximize`` is wrapped
too, so each objective evaluation is a span.  Spans stay in memory;
``write`` saves them when the run ends.  Timed runs never install the
wrappers.

A span's self time is its duration minus its child spans' durations.
Linear algebra is attributed to ``gsm`` when a ``gsm.*`` span encloses
it and to ``gp`` otherwise.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

import scipy.linalg

from surfimpute import baselines, gp, gsm, io, kernels, optimize, synthesis

# spans recorded during input generation carry this profile id
SETUP = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    profile: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _order(a) -> dict:
    return {"n": int(a.shape[0])}


def _solve_shape(c_and_lower, b) -> dict:
    return {"n": int(c_and_lower[0].shape[0]), "k": 1 if b.ndim == 1 else int(b.shape[1])}


# (module, attribute, span name, size of the operands)
TARGETS = [
    (synthesis, "simulate_turned", "synthesis.simulate", None),
    (synthesis, "simulate_chirp", "synthesis.simulate", None),
    (synthesis, "watershed_dales", "synthesis.mask", None),
    (synthesis, "mask_smallest_width_dales", "synthesis.mask", None),
    (synthesis, "mask_gradient", "synthesis.mask", None),
    (io, "read_profile_csv", "io.read", None),
    (io, "write_profile_csv", "io.write", None),
    (io, "write_posterior_csv", "io.write", None),
    (kernels, "value_on_lags", "kernels.lags", None),
    (kernels, "grad_on_lags", "kernels.lags", None),
    (gp, "build_cov", "kernels.build_cov", None),
    (gp, "fit_sm", "gp.fit", None),
    (gp, "impute", "gp.impute", None),
    (gp, "predictive_posterior", "gp.posterior", None),
    (gp, "sample_posterior", "gp.sample", None),
    (gp, "chol_jittered", "linalg.chol", _order),
    (gsm, "fit_gsm", "gsm.fit", None),
    (gsm, "chol_jittered", "linalg.chol", _order),
    (gsm, "latent_eval", "gsm.latent_eval", None),
    (scipy.linalg, "cho_solve", "linalg.solve", _solve_shape),
    (baselines, "impute_constant", "baselines.fill", None),
    (baselines, "impute_nn_mean", "baselines.fill", None),
    (baselines, "impute_median_filter", "baselines.fill", None),
    (baselines, "impute_idw", "baselines.fill", None),
]
# optimizer entry points, as gp (through optimize) and gsm call them
MAXIMIZERS = [(optimize, "maximize"), (gsm, "maximize")]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._profile = SETUP

    def call(self, name, fn, args, kwargs, sizer=None):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._profile)
        if sizer is not None:
            span.attrs.update(sizer(*args, **kwargs))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name == "linalg.chol":
            span.attrs["jitter"] = float(result[1])
        elif name == "io.write":
            span.attrs["bytes"] = os.path.getsize(args[-1])
        elif name == "optimize.maximize":
            trace = result[1]
            span.attrs.update(best=max(trace.objectives), termination=trace.termination)
        return result

    def _wrap(self, name, fn, sizer):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, sizer)
        return wrapper

    def _wrap_maximize(self, fn):
        def wrapper(fun, *args, **kwargs):
            def objective(x):
                return self.call("optimize.eval", fun, (x,), {})
            return self.call("optimize.maximize", fn, (objective,) + args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def active(self, profile: int = SETUP):
        """Record spans for ``profile`` while the block runs."""
        saved = []
        for module, attr, name, sizer in TARGETS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(name, getattr(module, attr), sizer))
        for module, attr in MAXIMIZERS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap_maximize(getattr(module, attr)))
        self._profile = profile
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._profile = SETUP

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _flop(span: Span) -> float:
    """Computed operation count: n^3/3 for a Cholesky factorization,
    2 n^2 k for the two triangular solves against k right-hand sides."""
    n = span.attrs["n"]
    if span.name == "linalg.chol":
        return n ** 3 / 3.0
    return 2.0 * n * n * span.attrs["k"]


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers from a span list.

    Times, counts and operation counts are means per traced profile;
    ``optimize.eval_s`` is the median objective call; the
    ``synthesis.*`` times cover one generation of the batch.  A layer's
    time counts each outermost span of that name once, so a call nested
    in a call of the same layer is not counted twice.
    """
    kids = [[] for _ in spans]
    for j, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(j)

    def ancestors(i):
        p = spans[i].parent
        while p is not None:
            yield spans[p]
            p = spans[p].parent

    def owner(i):
        return "gsm" if any(a.name.startswith("gsm.") for a in ancestors(i)) else "gp"

    profiles = {s.profile for s in spans if s.profile != SETUP}
    per = 1.0 / max(len(profiles), 1)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, s in enumerate(spans):
        if any(a.name == s.name for a in ancestors(i)):
            continue
        if s.profile == SETUP:
            if s.name.startswith("synthesis."):
                add(s.name + "_s", s.seconds)
            continue
        self_s = s.seconds - sum(spans[j].seconds for j in kids[i])
        if s.name == "optimize.eval":
            add(f"{owner(i)}.objective_self_s", self_s * per)
        elif s.name == "optimize.maximize":
            add("optimize.self_s", self_s * per)
            add("optimize.nonfinite_stops", per if s.attrs.get("termination") == "nonfinite" else 0.0)
        elif s.name in ("linalg.chol", "linalg.solve"):
            layer = owner(i) + (".chol" if s.name == "linalg.chol" else ".solve")
            add(layer + "_calls", per)
            add(layer + "_s", s.seconds * per)
            add(layer + "_gflop", _flop(s) * 1e-9 * per)
            # every factorization that needed jitter, gp's and gsm's alike
            if s.attrs.get("jitter", 0.0) > 0.0:
                add("gp.jitter_retries", per)
        elif s.name == "io.write":
            add("io.write_s", s.seconds * per)
            add("io.bytes_written", s.attrs["bytes"] * per)
        else:
            add(s.name + "_s", s.seconds * per)

    evals = [s for s in spans if s.name == "optimize.eval" and s.profile != SETUP]
    out["optimize.evals"] = len(evals) * per
    out["optimize.eval_s"] = statistics.median(s.seconds for s in evals) if evals else 0.0

    # per fit: share of evaluations spent in the winning restart, and its best value
    ratios, finals = [], []
    for i, s in enumerate(spans):
        if s.name in ("gp.fit", "gsm.fit") and s.profile != SETUP:
            runs = [j for j in kids[i]
                    if spans[j].name == "optimize.maximize" and "best" in spans[j].attrs]
            if not runs:
                continue
            counts = [sum(spans[k].name == "optimize.eval" for k in kids[j]) for j in runs]
            bests = [spans[j].attrs["best"] for j in runs]
            win = bests.index(max(bests))
            ratios.append(counts[win] / sum(counts))
            finals.append(bests[win])
    out["optimize.best_restart_eval_ratio"] = statistics.mean(ratios) if ratios else 0.0
    out["optimize.final_objective"] = statistics.mean(finals) if finals else 0.0
    return out
