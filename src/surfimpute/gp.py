"""Exact GP inference: likelihood, posterior, sampling, imputation.

The prior mean is zero everywhere; fitting and imputation subtract the
mean of the valid heights first and restore it afterwards.  Two
conditioning flavors exist: ``posterior`` targets the noise-free
heights (noise covariance on the training block only) and
``predictive_posterior`` targets the observable heights (noise
covariance on every block); imputation uses the predictive one.

Both entry points build their blocks densely with ``build_cov``, for
any abscissas.  On the measurement grid a stationary model takes only
one value per integer lag, so the SM fit's objective and the
imputation of a ``GPModel`` gather every block from one per-lag table
of kernel + noise (``_lag_terms``): the imputation conditions on the
very matrix whose likelihood the fit maximized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import kernels
from .errors import (
    EmptyDatasetError,
    FitFailureError,
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
    it is not positive) on a copy's diagonal.  Returns ``(L, jitter_added)``
    with L C-ordered and its strict upper triangle exactly zero; raises
    NotPositiveDefiniteError when the ladder is exhausted.
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
        # potrf factors the upper triangle of work^T, which is work's
        # lower one, into a copy; clean=1 zeroes the rest, so u^T is a
        # C-ordered lower factor whose strict upper triangle is zero
        u, info = scipy.linalg.lapack.dpotrf(work.T, lower=0, clean=1)
        if info == 0:
            return u.T, jitter
        if info < 0:
            raise np.linalg.LinAlgError(f"dpotrf: illegal value in argument {-info}")
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite even with jitter {JITTER_LADDER[-1]*scale:g}"
    )


def _gaussian_core(a: np.ndarray, y: np.ndarray):
    """``(L, alpha, log N(y | 0, A))`` from A's jitter-ladder factor L,
    with alpha = A^-1 y solved against that same factor.

    potrs solves on fac^T, the Fortran-ordered upper factor L^T in fac's
    own memory, so the factor is neither rescanned nor copied."""
    fac, _ = chol_jittered(a)
    if len(y) == 0:  # the wrapper rejects an empty system
        return fac, np.zeros(0), 0.0
    alpha, info = scipy.linalg.lapack.dpotrs(fac.T, y, lower=0)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpotrs: illegal value in argument {-info}")
    logdet = np.sum(np.log(np.diagonal(fac)))
    return fac, alpha, float(-0.5 * y @ alpha - logdet - 0.5 * len(y) * LOG_2PI)


def _inverse_lower(fac: np.ndarray) -> np.ndarray:
    """Lower triangle of A^-1 = (L L^T)^-1 by LAPACK potri; the strict
    upper triangle is zero, as it is in the factors chol_jittered gives.

    Overwrites ``fac``: for the C-ordered factors chol_jittered gives,
    potri runs in place and the result is a view of fac's memory.
    """
    inv, info = scipy.linalg.lapack.dpotri(fac.T, lower=0, overwrite_c=1)
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


def _conditioned(a: np.ndarray, c_ma: np.ndarray, c_mm: np.ndarray,
                 za: np.ndarray) -> PosteriorGaussian:
    """Condition the zero-mean GP with training covariance A on za;
    C_ma and C_mm are the cross and query covariances.  With L the
    training factor and v = L^-1 C_am, cov = C_mm - v^T v is exactly
    symmetric.  The callers say where the three blocks come from."""
    fac, alpha, _ = _gaussian_core(a, za)
    v = scipy.linalg.solve_triangular(fac, c_ma.T, lower=True)
    return PosteriorGaussian(c_ma @ alpha, c_mm - v.T @ v)


def _dense_conditioned(dataset: SurfaceDataset, kernel, noise, xm, query_parts):
    """``_conditioned`` on blocks built by ``build_cov`` at any abscissas;
    the query and cross covariances are the sum of ``query_parts``."""
    xm = np.asarray(xm, dtype=float)
    if xm.ndim != 1:
        raise ValueError("query abscissas must be a 1-D array")
    if len(xm) == 0:
        return PosteriorGaussian(np.zeros(0), np.zeros((0, 0)))
    c_ma = sum(build_cov(part, xm, dataset.xa) for part in query_parts)
    c_mm = sum(build_cov(part, xm) for part in query_parts)
    return _conditioned(_training_matrix(dataset, kernel, noise), c_ma, c_mm, dataset.za)


def posterior(dataset: SurfaceDataset, kernel, noise, xm) -> PosteriorGaussian:
    """Posterior of the noise-free heights at xm given (xa, za)."""
    return _dense_conditioned(dataset, kernel, noise, xm, (kernel,))


def predictive_posterior(dataset: SurfaceDataset, kernel, noise, xm) -> PosteriorGaussian:
    """Posterior of the observable (noisy) heights at xm given (xa, za).

    Conditions the full height covariance k + omega, so the noise
    variance enters at the query points too.  This is the distribution
    imputation draws from: a measurement-like fill, whose spread never
    drops below the noise floor even right next to valid samples.
    """
    return _dense_conditioned(dataset, kernel, noise, xm, (kernel, noise))


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


def _lag_index(rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """|rows_i - cols_j| for grid indices (cols=None: rows itself), as
    intp, which np.take and np.bincount use without converting."""
    lags = np.subtract.outer(rows, rows if cols is None else cols).astype(np.intp, copy=False)
    return np.abs(lags, out=lags)


def _lag_terms(kernel, noise, tau: np.ndarray):
    """Kernel + noise on grid lags ``tau`` (tau[0] = 0), and that
    table's derivatives with respect to the raw parameters of kernel
    then noise: ``(table, grads)``.  Gathered by lag, the table gives
    every block ``build_cov`` would: white noise sits at lag 0, which
    two disjoint index sets never reach.
    """
    table, grads = kernels.terms_on_lags(kernel, tau)
    noise_table, noise_grads = kernels.terms_on_lags(noise, tau)
    return table + noise_table, np.concatenate([grads, noise_grads])


def _grid_predictive(profile: Profile, dataset: SurfaceDataset,
                     model: GPModel) -> PosteriorGaussian:
    """``predictive_posterior`` at the missing grid points, with A, C_ma
    and C_mm gathered from the per-lag table the SM fit uses."""
    tau = np.arange(profile.n, dtype=float) * profile.dx
    table, _ = _lag_terms(model.kernel, model.noise, tau)
    ia, im = dataset.idx_a, dataset.idx_m
    return _conditioned(np.take(table, _lag_index(ia)),
                        np.take(table, _lag_index(im, ia)),
                        np.take(table, _lag_index(im)), dataset.za)


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
    the noisy heights, so the fill carries the fitted noise level.  For
    a stationary ``GPModel`` its three covariance blocks are gathered
    from the per-lag table of kernel + noise on the profile's grid (the
    table the SM fit's likelihood uses); a GSM model builds them densely
    with ``build_cov``.

    A visible step where a filled run meets valid data is expected: the
    predictive spread stays at least the noise floor everywhere, so a
    sample does not have to pass through the neighboring valid points.
    """
    ds, offset = _centered_dataset(profile)
    if ds.n_missing == 0:
        raise NothingToImputeError("profile has no missing heights")
    if ds.n_valid < 2:
        raise EmptyDatasetError("imputation needs at least two valid points")
    if isinstance(model, GPModel):
        post = _grid_predictive(profile, ds, model)
    else:
        post = predictive_posterior(ds, model, model.noise, ds.xm)
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


def _height_variance(profile: Profile, fit: str) -> float:
    """Variance of the valid heights; a FitFailureError for ``fit`` when
    it overflows (heights of about 1e155 and up), before a start model."""
    with np.errstate(over="ignore"):
        var = float(np.var(profile.valid_z()))
    if var == math.inf:
        raise FitFailureError(f"{fit} fit could not start: the height variance overflows")
    return var


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
    grid, so the training matrix is gathered from the per-lag table of
    ``_lag_terms`` and the trace terms need only the by-lag sums of
    alpha alpha^T - A^-1: twice the lower-triangle sum at lag > 0, the
    diagonal at lag 0.  For A^-1 that is one bincount of the potri
    result over all lags, whose strict upper triangle is exactly zero;
    for alpha alpha^T it is the autocorrelation of alpha
    placed on the grid.  The gradient is then one matvec of the table's
    stacked parameter derivatives with those sums.

    A point whose coordinates, table, value or gradient are not finite,
    whose kernel or noise the parameter classes reject, or whose matrix
    cannot be factored, gives ``(-inf, zeros)``, so the optimizer stops
    there.

    The objective owns its work buffer for A, so one instance must not
    be called from two threads at once.
    """

    def __init__(self, dataset: SurfaceDataset, dx: float, kernel0, noise0):
        self.kernel0 = kernel0
        self.noise0 = noise0
        self.nk = n_params(kernel0)
        self.n_raw = self.nk + n_params(noise0)
        self.za = dataset.za
        idx = dataset.idx_a
        self.lag_idx = _lag_index(idx)
        self.n_lags = int(idx[-1] - idx[0]) + 1
        self.tau = np.arange(self.n_lags, dtype=float) * dx
        self.grid_pos = idx - idx[0]
        self._a = np.empty(self.lag_idx.shape)

    def split(self, raw):
        kernel = with_raw_vector(self.kernel0, raw[: self.nk])
        noise = with_raw_vector(self.noise0, raw[self.nk :])
        return kernel, noise

    def __call__(self, raw):
        # a factorization that fails on a finite matrix is -inf too; any
        # other error is a fault and propagates
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return self._evaluate(raw)
        except (NotPositiveDefiniteError, np.linalg.LinAlgError):
            return -np.inf, np.zeros_like(raw)

    def _evaluate(self, raw):
        if np.shape(raw) != (self.n_raw,):
            raise ValueError(f"expected {self.n_raw} raw parameters, "
                             f"got shape {np.shape(raw)}")
        rejected = -np.inf, np.zeros_like(raw)
        if not np.all(np.isfinite(raw)):
            return rejected
        try:
            kernel, noise = self.split(raw)
        except ValueError:  # a parameter class rejects an under- or overflow
            return rejected
        table, grads = _lag_terms(kernel, noise, self.tau)
        if not np.all(np.isfinite(table)):
            return rejected
        # mode "clip" writes straight into out (the default buffers it);
        # every index is in range by construction
        a = np.take(table, self.lag_idx, out=self._a, mode="clip")
        fac, alpha, value = _gaussian_core(a, self.za)
        on_grid = np.zeros(self.n_lags)
        on_grid[self.grid_pos] = alpha
        by_lag = np.correlate(on_grid, on_grid, "full")[self.n_lags - 1 :]
        by_lag -= np.bincount(self.lag_idx.ravel(), _inverse_lower(fac).ravel(),
                              minlength=self.n_lags)
        by_lag[1:] *= 2.0
        g = 0.5 * (grads @ by_lag)
        if not (np.isfinite(value) and np.all(np.isfinite(g))):
            return rejected
        return value, g


def fit_gp(profile: Profile, kernel0, noise0, config: OptConfig = OptConfig(),
           n_restarts: int = 1, seed: int = 0):
    """Maximize the marginal likelihood over kernel + noise parameters.

    Returns ``(GPModel, best_trace, all_traces)``.  The valid heights
    are centered before fitting; restarts perturb the start point by
    +-20 % in log space.  Raises FitFailureError with model=None when a
    start point or its objective is not finite.
    """
    centered, _ = _centered_dataset(profile)
    objective = _GridMllObjective(centered, profile.dx, kernel0, noise0)
    x0 = np.concatenate([raw_vector(kernel0), raw_vector(noise0)])
    try:
        best_x, best_trace, traces = maximize_restarts(
            objective, x0, config, n_restarts=n_restarts, seed=seed
        )
    except ValueError as exc:
        if n_restarts < 1:  # a bad argument, not a failed fit
            raise
        raise FitFailureError(f"GP fit could not start: {exc}") from exc
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
    if any(s is not None and not s > 0 for s in (init_rsm, init_rq)):
        raise ValueError("Rsm and Rq scales must be positive")
    r = float(init_rsm) if init_rsm is not None else rsm(profile)
    a = float(init_rq) if init_rq is not None else rq(profile)
    if not a > 0:
        raise NoProfileElementsError("the profile is flat: its Rq is 0")
    freqs = np.array([m / r for m in range(1, q + 1)])
    weights = np.full(q, a * a / (10.0 * q))
    weights[0] = a * a
    freq_vars = (0.05 * freqs) ** 2
    return SMParams(weights, freqs, freq_vars)


def fit_sm(profile: Profile, q: int = 5, config: OptConfig = OptConfig(),
           seed: int = 0, init_rsm: float | None = None,
           init_rq: float | None = None, n_restarts: int = 3):
    """Fit a Q-component spectral mixture with white noise."""
    _height_variance(profile, "GP")
    kernel0 = sm_initial_kernel(profile, q, init_rsm, init_rq)
    return fit_gp(
        profile,
        kernel0,
        NoiseParams("white", estimate_noise_variance(profile)),
        config,
        n_restarts=n_restarts,
        seed=seed,
    )


def fit_se(profile: Profile, config: OptConfig = OptConfig()):
    """Fit a squared-exponential GP (ordinary-kriging style baseline)."""
    sigma2 = max(_height_variance(profile, "GP"), 1e-12)
    try:
        theta = 0.25 * rsm(profile)
    except NoProfileElementsError:
        theta = max(profile.grid.span / 20.0, profile.dx)
    kernel0 = SEParams(sigma2, theta)
    noise0 = NoiseParams("white", estimate_noise_variance(profile))
    return fit_gp(profile, kernel0, noise0, config)
