"""Exact GP inference: likelihood, posterior, sampling, imputation.

The prior mean is zero everywhere; fitting and imputation subtract the
mean of the valid heights first and restore it afterwards.  Two
conditioning flavors exist: ``posterior`` targets the noise-free
heights (noise covariance on the training block only) and
``predictive_posterior`` targets the observable heights (noise
covariance on every block); imputation uses the predictive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import kernels
from .errors import (
    EmptyDatasetError,
    NoProfileElementsError,
    NotPositiveDefiniteError,
    NothingToImputeError,
)
from .kernels import (
    NoiseParams,
    SEParams,
    SMParams,
    build_cov,
    n_params,
    raw_vector,
    with_raw_vector,
)
from .optimize import OptConfig, maximize_restarts
from .profile import Profile, SurfaceDataset, rq, rsm, split_dataset

LOG_2PI = math.log(2.0 * math.pi)

# relative jitter escalation ladder for Cholesky factorizations
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# central 95 % interval half-width in standard deviations
Z95 = 1.959963984540054


def chol_jittered(a: np.ndarray):
    """Lower Cholesky factor with escalating diagonal jitter.

    Tries jitter 0, then 1e-10..1e-4 times the mean diagonal (or 1.0 if
    it is not positive) on a copy's diagonal.  Returns ``(L, jitter_added)``;
    raises NotPositiveDefiniteError when the ladder is exhausted.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    dmean = float(np.mean(np.diagonal(a))) if a.size else 0.0
    scale = dmean if dmean > 0 else 1.0
    work = a
    for level in JITTER_LADDER:
        jitter = level * scale
        if jitter:
            work = a.copy() if work is a else work
            np.fill_diagonal(work, np.diagonal(a) + jitter)
        try:
            return np.linalg.cholesky(work), jitter
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite even with jitter {JITTER_LADDER[-1]*scale:g}"
    )


def _gaussian_core(a: np.ndarray, y: np.ndarray):
    """``(L, alpha, log N(y | 0, A))`` from A's jitter-ladder factor L,
    with alpha = A^-1 y solved against that same factor."""
    fac, _ = chol_jittered(a)
    alpha = scipy.linalg.cho_solve((fac, True), y)
    logdet = np.sum(np.log(np.diagonal(fac)))
    return fac, alpha, float(-0.5 * y @ alpha - logdet - 0.5 * len(y) * LOG_2PI)


def _inverse_lower(fac: np.ndarray) -> np.ndarray:
    """Lower triangle of A^-1 = (L L^T)^-1 by LAPACK potri; the strict
    upper triangle is zero, as it is in the factors chol_jittered gives."""
    inv, info = scipy.linalg.lapack.dpotri(fac.T, lower=0)
    if info > 0:
        raise NotPositiveDefiniteError(f"factor is singular at pivot {info}")
    if info < 0:
        raise np.linalg.LinAlgError(f"dpotri: illegal value in argument {-info}")
    return inv.T


def _centered_dataset(profile: Profile):
    """The profile's valid/missing split with the mean of the valid
    heights subtracted, and that mean."""
    ds = split_dataset(profile)
    offset = float(np.mean(ds.za))
    return replace(ds, za=ds.za - offset), offset


def _training_matrix(dataset: SurfaceDataset, kernel, noise) -> np.ndarray:
    return build_cov(kernel, dataset.xa) + build_cov(noise, dataset.xa)


def log_marginal_likelihood(dataset: SurfaceDataset, kernel, noise) -> float:
    """log p(za | xa, kernel, noise) for the zero-mean GP."""
    return _gaussian_core(_training_matrix(dataset, kernel, noise), dataset.za)[2]


def mll_gradient(dataset: SurfaceDataset, kernel, noise) -> np.ndarray:
    """Gradient of the log marginal likelihood.

    Ordered as the kernel's raw (log-space) parameters followed by the
    noise model's; uses d/dtheta = 0.5 tr((alpha alpha^T - A^-1) dA/dtheta).
    """
    fac, alpha, _ = _gaussian_core(
        _training_matrix(dataset, kernel, noise), dataset.za
    )
    inv = _inverse_lower(fac)
    inv += np.tril(inv, -1).T
    m = np.outer(alpha, alpha) - inv
    return np.array([
        0.5 * np.sum(m * kernels.kernel_grad(part, dataset.xa, i))
        for part in (kernel, noise)
        for i in range(n_params(part))
    ])


@dataclass(frozen=True)
class PosteriorGaussian:
    """Joint posterior over heights at the query abscissas."""

    mean: np.ndarray
    cov: np.ndarray

    def stddev(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diagonal(self.cov), 0.0, None))

    def interval95(self):
        half = Z95 * self.stddev()
        return self.mean - half, self.mean + half


def posterior(dataset: SurfaceDataset, kernel, noise, xm) -> PosteriorGaussian:
    """Posterior of the noise-free heights at xm given (xa, za)."""
    xm = np.asarray(xm, dtype=float)
    if xm.ndim != 1:
        raise ValueError("query abscissas must be a 1-D array")
    if len(xm) == 0:
        return PosteriorGaussian(np.zeros(0), np.zeros((0, 0)))
    a = _training_matrix(dataset, kernel, noise)
    fac, _ = chol_jittered(a)
    alpha = scipy.linalg.cho_solve((fac, True), dataset.za)
    k_ma = build_cov(kernel, xm, dataset.xa)
    mean = k_ma @ alpha
    v = scipy.linalg.cho_solve((fac, True), k_ma.T)
    cov = build_cov(kernel, xm) - k_ma @ v
    cov = 0.5 * (cov + cov.T)
    return PosteriorGaussian(mean, cov)


def predictive_posterior(dataset: SurfaceDataset, kernel, noise, xm) -> PosteriorGaussian:
    """Posterior of the observable (noisy) heights at xm given (xa, za).

    Conditions the full height covariance k + omega, so the noise
    variance enters at the query points too.  This is the distribution
    imputation draws from: a measurement-like fill, whose spread never
    drops below the noise floor even right next to valid samples.
    """
    xm = np.asarray(xm, dtype=float)
    if xm.ndim != 1:
        raise ValueError("query abscissas must be a 1-D array")
    if len(xm) == 0:
        return PosteriorGaussian(np.zeros(0), np.zeros((0, 0)))
    a = _training_matrix(dataset, kernel, noise)
    fac, _ = chol_jittered(a)
    alpha = scipy.linalg.cho_solve((fac, True), dataset.za)
    c_ma = build_cov(kernel, xm, dataset.xa) + build_cov(noise, xm, dataset.xa)
    mean = c_ma @ alpha
    v = scipy.linalg.cho_solve((fac, True), c_ma.T)
    cov = build_cov(kernel, xm) + build_cov(noise, xm) - c_ma @ v
    cov = 0.5 * (cov + cov.T)
    return PosteriorGaussian(mean, cov)


def sample_posterior(post: PosteriorGaussian, seed: int, count: int = 1) -> np.ndarray:
    """``count`` joint draws, shape (count, len(mean)); deterministic in seed."""
    if count < 1:
        raise ValueError("need at least one draw")
    m = len(post.mean)
    if m == 0:
        return np.zeros((count, 0))
    fac, _ = chol_jittered(post.cov)
    eps = np.random.default_rng(seed).standard_normal((count, m))
    return post.mean[None, :] + eps @ fac.T


@dataclass(frozen=True)
class GPModel:
    """A fitted stationary GP: profile kernel plus noise model."""

    kernel: object
    noise: NoiseParams


@dataclass(frozen=True)
class ImputationResult:
    profile: Profile
    xm: np.ndarray
    idx_m: np.ndarray
    post_mean: np.ndarray
    lo95: np.ndarray
    hi95: np.ndarray


def impute(profile: Profile, model, seed: int) -> ImputationResult:
    """Fill the invalid heights with one joint posterior draw.

    Valid heights are carried over bitwise and every flag comes back
    true.  Also exposes the posterior mean and the central 95 %
    interval per filled point (all mean-restored).

    The draw and the interval come from the predictive posterior of
    the noisy heights, so the fill carries the fitted noise level.  A
    visible step where a filled run meets valid data is expected: the
    predictive spread stays at least the noise floor everywhere, so a
    sample does not have to pass through the neighboring valid points.
    """
    ds, offset = _centered_dataset(profile)
    if ds.n_missing == 0:
        raise NothingToImputeError("profile has no missing heights")
    if ds.n_valid < 2:
        raise EmptyDatasetError("imputation needs at least two valid points")
    kernel = getattr(model, "kernel", model)
    post = predictive_posterior(ds, kernel, model.noise, ds.xm)
    draw = sample_posterior(post, seed, 1)[0] + offset
    lo, hi = post.interval95()
    return ImputationResult(
        profile=profile.with_filled(draw),
        xm=ds.xm,
        idx_m=ds.idx_m,
        post_mean=post.mean + offset,
        lo95=lo + offset,
        hi95=hi + offset,
    )


# ---------------------------------------------------------------------------
# hyperparameter fitting


def estimate_noise_variance(profile: Profile) -> float:
    """Second-difference noise floor estimate on valid runs.

    var(z[i-1] - 2 z[i] + z[i+1]) = 6 sigma_n^2 for white noise on a
    signal whose curvature per step is negligible; a standard way to
    initialize the noise variance within a factor of a few.
    """
    idx = np.flatnonzero(profile.valid)
    z = profile.z
    member = np.zeros(profile.n, dtype=bool)
    member[idx] = True
    core = member[1:-1] & member[:-2] & member[2:]
    i = np.flatnonzero(core) + 1
    if len(i) == 0:
        zv = profile.valid_z()
        return max(1e-3 * float(np.var(zv)), 1e-12)
    d2 = z[i - 1] - 2.0 * z[i] + z[i + 1]
    return max(float(np.mean(d2 * d2)) / 6.0, 1e-12)


class _GridMllObjective:
    """Marginal likelihood and gradient on a uniform measurement grid.

    All stationary kernels take only ``n_grid`` distinct values on the
    grid, so the training matrix is gathered from a per-lag table and
    the trace terms need only the by-lag sums of alpha alpha^T - A^-1:
    twice the lower-triangle sum at lag > 0, the diagonal at lag 0.  For
    A^-1 that is one bincount of the potri triangle; for alpha alpha^T
    it is the autocorrelation of alpha placed on the grid.
    """

    def __init__(self, dataset: SurfaceDataset, dx: float, kernel0, noise0):
        self.kernel0 = kernel0
        self.noise0 = noise0
        self.nk = n_params(kernel0)
        self.za = dataset.za
        idx = dataset.idx_a
        self.lag_idx = np.abs(idx[:, None] - idx[None, :]).astype(np.int32)
        self.n_lags = int(idx[-1] - idx[0]) + 1
        self.tau = np.arange(self.n_lags, dtype=float) * dx
        self.grid_pos = idx - idx[0]
        self.lower = np.tri(len(idx), dtype=bool)
        self.lower_lags = self.lag_idx[self.lower]

    def split(self, raw):
        kernel = with_raw_vector(self.kernel0, raw[: self.nk])
        noise = with_raw_vector(self.noise0, raw[self.nk :])
        return kernel, noise

    def table(self, kernel, noise) -> np.ndarray:
        t = kernels.value_on_lags(kernel, self.tau)
        if noise.kind == "white":
            t = t.copy()
            t[0] += noise.sigma2
        else:
            t = t + kernels.value_on_lags(noise, self.tau)
        return t

    def __call__(self, raw):
        kernel, noise = self.split(raw)
        a = self.table(kernel, noise)[self.lag_idx]
        fac, alpha, value = _gaussian_core(a, self.za)
        on_grid = np.zeros(self.n_lags)
        on_grid[self.grid_pos] = alpha
        by_lag = np.correlate(on_grid, on_grid, "full")[self.n_lags - 1 :]
        inv_low = _inverse_lower(fac)[self.lower]
        by_lag -= np.bincount(self.lower_lags, inv_low, minlength=self.n_lags)
        by_lag[1:] *= 2.0
        g = np.empty(len(raw))
        for i in range(self.nk):
            g[i] = 0.5 * kernels.grad_on_lags(kernel, i, self.tau) @ by_lag
        if noise.kind == "white":
            g[self.nk] = 0.5 * noise.sigma2 * by_lag[0]
        else:
            for i in range(n_params(noise)):
                g[self.nk + i] = (
                    0.5 * kernels.grad_on_lags(noise, i, self.tau) @ by_lag
                )
        return value, g


def fit_gp(profile: Profile, kernel0, noise0, config: OptConfig = OptConfig(),
           n_restarts: int = 1, seed: int = 0):
    """Maximize the marginal likelihood over kernel + noise parameters.

    Returns ``(GPModel, best_trace, all_traces)``.  The valid heights
    are centered before fitting; restarts perturb the start point by
    +-20 % in log space.
    """
    centered, _ = _centered_dataset(profile)
    objective = _GridMllObjective(centered, profile.dx, kernel0, noise0)
    x0 = np.concatenate([raw_vector(kernel0), raw_vector(noise0)])
    best_x, best_trace, traces = maximize_restarts(
        objective, x0, config, n_restarts=n_restarts, seed=seed
    )
    kernel, noise = objective.split(best_x)
    return GPModel(kernel=kernel, noise=noise), best_trace, traces


def sm_initial_kernel(profile: Profile, q: int = 5,
                      init_rsm: float | None = None,
                      init_rq: float | None = None) -> SMParams:
    """Prior-knowledge mixture start: one component at the dominant
    texture frequency 1/Rsm carrying the full Rq^2 power, the rest at
    its harmonics with small weights."""
    if q < 1:
        raise ValueError("need at least one mixture component")
    r = float(init_rsm) if init_rsm is not None else rsm(profile)
    a = float(init_rq) if init_rq is not None else rq(profile)
    if not r > 0 or not a > 0:
        raise ValueError("Rsm and Rq scales must be positive")
    freqs = np.array([m / r for m in range(1, q + 1)])
    weights = np.full(q, a * a / (10.0 * q))
    weights[0] = a * a
    freq_vars = (0.05 * freqs) ** 2
    return SMParams(weights, freqs, freq_vars)


def fit_sm(profile: Profile, q: int = 5, config: OptConfig = OptConfig(),
           seed: int = 0, init_rsm: float | None = None,
           init_rq: float | None = None, noise0: float | None = None,
           n_restarts: int = 3):
    """Fit a Q-component spectral mixture with white noise."""
    kernel0 = sm_initial_kernel(profile, q, init_rsm, init_rq)
    sigma_n0 = noise0 if noise0 is not None else estimate_noise_variance(profile)
    return fit_gp(
        profile,
        kernel0,
        NoiseParams("white", sigma_n0),
        config,
        n_restarts=n_restarts,
        seed=seed,
    )


def fit_se(profile: Profile, config: OptConfig = OptConfig(), seed: int = 0,
           noise0: float | None = None):
    """Fit a squared-exponential GP (ordinary-kriging style baseline)."""
    zv = profile.valid_z()
    sigma2 = max(float(np.var(zv)), 1e-12)
    try:
        theta = 0.25 * rsm(profile)
    except NoProfileElementsError:
        theta = max(profile.grid.span / 20.0, profile.dx)
    kernel0 = SEParams(sigma2, theta)
    sigma_n0 = noise0 if noise0 is not None else estimate_noise_variance(profile)
    return fit_gp(
        profile, kernel0, NoiseParams("white", sigma_n0), config,
        n_restarts=1, seed=seed,
    )
