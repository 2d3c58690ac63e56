"""Stationary covariance kernels for surface-profile GPs.

All kernels are strictly real-valued.  Positions are mm, heights um,
so variances are um^2, frequencies 1/mm, frequency variances 1/mm^2.

Same-set covariance matrices are bitwise symmetric: they are built from
the absolute lag (IEEE negation is exact and every factor is an even
function of the lag).  The non-stationary GSM kernel lives in ``gsm``.

Hyperparameter gradients are taken with respect to the unconstrained
log-space representation used by the optimizer; ``raw_vector`` /
``with_raw_vector`` define that representation per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi

# positive parameters this close to zero get their log-space gradient
# evaluated at the floor instead (a zero frequency variance is a legal
# pure-cosine component)
LOG_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class SEParams:
    """Squared-exponential kernel: sigma2 * exp(-tau^2 / (2 theta^2))."""

    sigma2: float
    theta: float

    def __post_init__(self):
        if not self.sigma2 > 0 or not self.theta > 0:
            raise ValueError("SE kernel needs positive variance and lengthscale")


@dataclass(frozen=True)
class PeriodicParams:
    """Periodic kernel: sigma2 * exp(-sin^2(pi tau / period) / (2 theta^2))."""

    sigma2: float
    theta: float
    period: float

    def __post_init__(self):
        if not (self.sigma2 > 0 and self.theta > 0 and self.period > 0):
            raise ValueError("periodic kernel parameters must be positive")


@dataclass(frozen=True)
class SMParams:
    """Spectral mixture: sum_q w_q cos(2 pi tau f_q) exp(-2 pi^2 tau^2 v_q).

    weights w_q > 0 (um^2), frequencies f_q >= 0 (1/mm), frequency
    variances v_q >= 0 (1/mm^2); v_q = 0 is a pure cosine component.
    """

    weights: np.ndarray
    freqs: np.ndarray
    freq_vars: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        f = np.atleast_1d(np.asarray(self.freqs, dtype=float))
        v = np.atleast_1d(np.asarray(self.freq_vars, dtype=float))
        if not (len(w) == len(f) == len(v)) or len(w) == 0:
            raise ValueError("mixture parameter arrays must share a length >= 1")
        # array methods: the fit rebuilds a mixture at every evaluation
        if not (w > 0).all():
            raise ValueError("mixture weights must be positive")
        if (f < 0).any() or (v < 0).any():
            raise ValueError("frequencies and frequency variances must be >= 0")
        for a in (w, f, v):
            a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "freq_vars", v)

    @property
    def q(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class NoiseParams:
    """Measurement noise: white sigma2*[i=j] or colored SE(sigma2, theta)."""

    kind: str
    sigma2: float
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in ("white", "colored"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not self.sigma2 >= 0:
            raise ValueError("noise variance must be >= 0")
        if self.kind == "colored" and not (self.theta or 0) > 0:
            raise ValueError("colored noise needs a positive correlation length")


# ---------------------------------------------------------------------------
# matrix builders


def _as_points(xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("point sets must be 1-D arrays")
    return xs


def _abs_lag(xs: np.ndarray, ys: np.ndarray | None) -> np.ndarray:
    other = xs if ys is None else ys
    return np.abs(xs[:, None] - other[None, :])


def value_on_lags(kernel, t: np.ndarray) -> np.ndarray:
    """Stationary kernel evaluated on an array of absolute lags: the
    value half of ``terms_on_lags``.

    Shared by the dense matrix builder and the grid simulator.  White
    noise is sigma2 at lag 0 alone, which distinct abscissas never
    reach: sigma2 I on one point set, sigma2 [x = y] across two.
    """
    return terms_on_lags(kernel, t)[0]


def terms_on_lags(kernel, t: np.ndarray):
    """Stationary kernel on an array of absolute lags, with its
    derivatives with respect to every raw (log-space) parameter; the
    one place that knows each stationary family's lag function.

    Returns ``(value, grads)``; ``grads[i]`` is d(kernel)/d(raw
    parameter i), shaped like t.  One pass shares the transcendentals
    among all rows: a spectral mixture stacks its components, and its
    value is the sum of its log-weight rows.  White noise is sigma2 at
    lag 0 and nothing elsewhere; its one row is its value.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(kernel, NoiseParams) and kernel.kind == "white":
        k = np.where(t == 0.0, kernel.sigma2, 0.0)
        return k, k[None]
    if isinstance(kernel, (SEParams, NoiseParams)):
        k = kernel.sigma2 * np.exp(-(t * t) / (2.0 * kernel.theta * kernel.theta))
        return k, np.stack([k, k * (t * t) / kernel.theta**2])
    if isinstance(kernel, PeriodicParams):
        s = np.sin(np.pi * t / kernel.period)
        k = kernel.sigma2 * np.exp(-(s * s) / (2.0 * kernel.theta**2))
        c = np.cos(np.pi * t / kernel.period)
        return k, np.stack([
            k,
            k * (s * s) / kernel.theta**2,
            k * s * c * np.pi * t / (kernel.period * kernel.theta**2),
        ])
    if isinstance(kernel, SMParams):
        col = (slice(None),) + (None,) * t.ndim
        w = kernel.weights[col]
        phase = TWO_PI * kernel.freqs[col] * t
        e = np.exp(-2.0 * np.pi**2 * kernel.freq_vars[col] * (t * t))
        wce = w * np.cos(phase) * e  # d/dlog w_q
        grads = np.concatenate([
            wce,
            # d/dlog f_q and d/dlog v_q
            -(w * np.maximum(kernel.freqs, LOG_FLOOR)[col]) * np.sin(phase)
            * (TWO_PI * t) * e,
            wce * (-2.0 * np.pi**2 * t * t) * np.maximum(kernel.freq_vars, LOG_FLOOR)[col],
        ])
        return wce.sum(axis=0), grads
    raise TypeError(f"{type(kernel).__name__} has no stationary lag form")


def grad_on_lags(kernel, index: int, t: np.ndarray) -> np.ndarray:
    """d(kernel)/d(raw parameter ``index``) on an array of absolute lags.

    No library code calls it; the benchmark's tracer (``bench/tracing.py``)
    looks it up by name."""
    return terms_on_lags(kernel, t)[1][index]


def build_cov(kernel, xs, ys=None) -> np.ndarray:
    """Covariance matrix of ``kernel`` between xs and ys (ys=None: same set).

    Same-set matrices are bitwise symmetric.  A stationary kernel is
    its lag form on |x - y|, so white noise counts only where two
    positions coincide.
    """
    xs = _as_points(xs)
    if ys is not None:
        ys = _as_points(ys)
    if hasattr(kernel, "cov_matrix"):
        return kernel.cov_matrix(xs, ys)
    return value_on_lags(kernel, _abs_lag(xs, ys))


# ---------------------------------------------------------------------------
# unconstrained (log-space) parameter vectors and their gradients


# each stationary family's positive parameters, in raw-vector order;
# noise has a correlation length only when colored
_FIELDS = {
    SEParams: ("sigma2", "theta"),
    PeriodicParams: ("sigma2", "theta", "period"),
    SMParams: ("weights", "freqs", "freq_vars"),
    NoiseParams: ("sigma2", "theta"),
}


def _fields(kernel) -> tuple:
    names = _FIELDS.get(type(kernel))
    if names is None:
        raise TypeError(f"no raw-vector form for {type(kernel).__name__}")
    if isinstance(kernel, NoiseParams) and kernel.kind != "colored":
        return names[:1]
    return names


def raw_vector(kernel) -> np.ndarray:
    """Unconstrained optimizer representation of the kernel parameters:
    the log of each positive field, in the order

    SE:        [log sigma2, log theta]
    periodic:  [log sigma2, log theta, log period]
    SM:        [log w_0.., log f_0.., log v_0..]  (grouped by kind)
    noise:     [log sigma2] or [log sigma2, log theta]

    Values below 1e-12 are floored before the log.
    """
    values = np.hstack([getattr(kernel, name) for name in _fields(kernel)])
    return np.log(np.maximum(values, LOG_FLOOR))


def with_raw_vector(kernel, vec):
    """Rebuild a kernel of the same type from its unconstrained vector."""
    vec = np.asarray(vec, dtype=float)
    n = n_params(kernel)
    if len(vec) != n:
        raise ValueError(f"expected {n} raw parameters, got {len(vec)}")
    names = _fields(kernel)
    val = np.exp(vec)
    if hasattr(kernel, "q"):  # a mixture's fields hold one entry per component
        val = val.reshape(len(names), kernel.q)
    return replace(kernel, **dict(zip(names, val)))


def n_params(kernel) -> int:
    """Length of the kernel's raw vector, counted without taking logs."""
    return len(_fields(kernel)) * getattr(kernel, "q", 1)
