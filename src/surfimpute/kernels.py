"""Covariance kernels for surface-profile GPs.

All kernels are strictly real-valued.  Positions are mm, heights um,
so variances are um^2, frequencies 1/mm, frequency variances 1/mm^2.

Same-set covariance matrices are bitwise symmetric.  Stationary ones
are built from the absolute lag (IEEE negation is exact and every
factor is an even function of the lag); the Gibbs and GSM ones from
sums and products of a point's and its partner's values, which commute.

Hyperparameter gradients are taken with respect to the unconstrained
log-space representation used by the optimizer; ``raw_vector`` /
``with_raw_vector`` define that representation per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _lapack

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


@dataclass(frozen=True)
class PointwiseLatents:
    """GSM latent functions evaluated at a set of points."""

    w: np.ndarray
    lam: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.w, dtype=float))
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        f = np.atleast_1d(np.asarray(self.f, dtype=float))
        if not (len(w) == len(lam) == len(f)):
            raise ValueError("latent value arrays must share a length")
        if not np.all(w > 0) or not np.all(lam > 0) or np.any(f < 0):
            raise ValueError("latents need w > 0, lambda > 0, f >= 0")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "f", f)


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


def _outer(u: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """u v^T for column stacks u (n x k) and v (m x k), k small, by one
    BLAS gemm; ``out``, if given, is a C-ordered n x m array that
    receives it.

    Each entry sums the same k products in the same order whichever
    side of the diagonal it is on, so u u^T is bitwise symmetric; with
    k = 1, or with one factor of every product exactly 1, it equals the
    ``ufunc.outer`` result.  At n = 174 ufunc.outer, which runs one
    inner loop per row, takes about four times as long, and numpy's
    u @ u.T, which goes to syrk plus a triangle copy, about twice.
    """
    if out is not None and not out.flags.c_contiguous:
        # the wrapper would write into a copy and leave out as it was
        raise ValueError("out must be a C-contiguous array")
    if len(u) == 0 or len(v) == 0:  # the wrapper rejects empty operands
        return np.empty((len(u), len(v))) if out is None else out
    return _lapack.dgemm(1.0, v, u, trans_b=1, c=None if out is None else out.T,
                         overwrite_c=1).T


def _gibbs_terms(neg_sq: np.ndarray, lam_x: np.ndarray, lam_y: np.ndarray, out=None):
    """Gibbs matrix (unit variance) on negated squared lags ``neg_sq``,
    with d = lam_x^2 + lam_y^2 and -sq/d, which its lengthscale
    derivatives reuse; -sq/d is also the exponent.

    ``out``, if given, is four C-ordered arrays shaped like neg_sq that
    receive G, d, -sq/d and a scratch value; otherwise they are
    allocated.
    """
    g, d, neg_sq_d, e = [np.empty_like(neg_sq) for _ in range(4)] if out is None else out
    _outer(np.column_stack([lam_x * lam_x, np.ones_like(lam_x)]),
           np.column_stack([np.ones_like(lam_y), lam_y * lam_y]), out=d)
    np.divide(neg_sq, d, out=neg_sq_d)
    _outer((2.0 * lam_x)[:, None], lam_y[:, None], out=g)
    g /= d
    np.sqrt(g, out=g)
    np.exp(neg_sq_d, out=e)
    g *= e
    return g, d, neg_sq_d


def _gsm_quadrature(xs: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The n x 2 matrix [w cos phi, w sin phi] with phi = 2 pi f x,
    Fortran-ordered so that BLAS takes it as it is.  The GSM factor
    w(x) w(x') cos(phi - phi') is its product with the transposed
    matrix of the other set."""
    phase = TWO_PI * f * xs
    q = np.empty((2, len(xs))).T
    np.multiply(w, np.cos(phase), out=q[:, 0])
    np.multiply(w, np.sin(phase), out=q[:, 1])
    return q


def _gsm_from_terms(g: np.ndarray, qx: np.ndarray, qy: np.ndarray, out=None) -> np.ndarray:
    """G o (qx qy^T): the GSM matrix from its Gibbs matrix and the
    ``_gsm_quadrature`` matrices of the two sets.  ``out``, if given, is
    a C-ordered array shaped like g that receives the matrix."""
    k = _outer(qx, qy, out=out)
    k *= g
    return k


def gibbs_cov(xs, ys, lam_x, lam_y) -> np.ndarray:
    """Gibbs kernel matrix for pointwise lengthscales (unit variance)."""
    xs = _as_points(xs)
    ys = _as_points(ys)
    lam_x = np.asarray(lam_x, dtype=float)
    lam_y = np.asarray(lam_y, dtype=float)
    return _gibbs_terms(-((xs[:, None] - ys[None, :]) ** 2), lam_x, lam_y)[0]


def gsm_cov(xs, ys, lat_x: PointwiseLatents, lat_y: PointwiseLatents) -> np.ndarray:
    """Generalized spectral mixture matrix (single component).

    k(x, x') = w(x) w(x') G(x, x'; lambda) cos(2 pi (f(x) x - f(x') x')),
    G the unit-variance Gibbs kernel of ``gibbs_cov``, with the cosine of
    the phase difference expanded into a rank-two product, so no
    trigonometric function is evaluated per matrix entry.
    """
    xs = _as_points(xs)
    ys = _as_points(ys)
    return _gsm_from_terms(gibbs_cov(xs, ys, lat_x.lam, lat_y.lam),
                           _gsm_quadrature(xs, lat_x.w, lat_x.f),
                           _gsm_quadrature(ys, lat_y.w, lat_y.f))


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
