"""Exact GP inference: likelihood, posterior, sampling, imputation.

The prior mean is zero everywhere; fitting and imputation subtract the
mean of the valid heights first and restore it afterwards.  There is
one posterior: that of the observable heights, with the noise
covariance on every block, which imputation draws from.

``predictive_posterior`` builds its blocks densely with ``build_cov``,
for any abscissas; a GSM model imputes through it.  On the measurement
grid a stationary model takes only one value per integer lag, so the
SM fit's objective and the imputation of a ``GPModel`` gather every
block from one per-lag table of kernel + noise (``_lag_terms``): the
imputation conditions on the very matrix whose likelihood the fit
maximized.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import _lapack, kernels
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

# largest block _invert_upper hands to LAPACK trtri, which runs at about
# 6 GFLOP/s from 128 rows up (OpenBLAS 0.3.31, one thread): past about
# 64 rows the recursion, whose flops go to trmm, wins, and below it the
# recursion's Python calls and block copies cost more than they save
# (CHANGES.md has the sweep)
_TRTRI_LEAF = 64

# central 95 % interval half-width in standard deviations
Z95 = 1.959963984540054


def chol_jittered(a: np.ndarray):
    """Lower Cholesky factor with escalating diagonal jitter.

    Tries jitter 0, then 1e-10..1e-4 times the mean diagonal (or 1.0 if
    it is not positive) on a copy's diagonal.  Returns ``(L, jitter_added)``
    with L C-ordered and its strict upper triangle exactly zero; raises
    NotPositiveDefiniteError when the ladder is exhausted, and at once
    for a lower triangle (the one LAPACK reads) that is not finite:
    potrf reports success on one, but unless a pivot fails, the NaN or
    infinity reaches the factor's diagonal through the row it sits in.
    A failed pivot k depends on the leading k x k block alone, so that
    block's lower triangle is scanned then (no row twice per call), and
    a non-finite entry there stops the ladder.  A finite diagonal whose
    mean overflows is divided by n before it is summed.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    diag = np.diagonal(a)
    with np.errstate(over="ignore", invalid="ignore"):
        dmean = float(np.mean(diag)) if a.size else 0.0
        if not math.isfinite(dmean) and np.all(np.isfinite(diag)):
            dmean = float(np.sum(diag / len(diag)))
    if not math.isfinite(dmean):
        raise NotPositiveDefiniteError("mean diagonal is not finite")
    scale = dmean if dmean > 0 else 1.0
    work = a
    scanned = 0  # leading rows whose lower triangle is known to be finite
    for level in JITTER_LADDER:
        jitter = level * scale
        if jitter:
            work = a.copy() if work is a else work
            np.fill_diagonal(work, diag + jitter)
        # potrf factors the upper triangle of work^T, which is work's
        # lower one, into a copy; clean=1 zeroes the rest, so u^T is a
        # C-ordered lower factor whose strict upper triangle is zero
        u, info = _lapack.dpotrf(work.T, lower=0, clean=1)
        if info == 0:
            if not np.all(np.isfinite(np.diagonal(u))):
                raise NotPositiveDefiniteError("matrix is not finite")
            return u.T, jitter
        if info < 0:
            raise np.linalg.LinAlgError(f"dpotrf: illegal value in argument {-info}")
        if info > scanned:
            if not np.all(np.isfinite(np.tril(a[scanned:info, :info], scanned))):
                raise NotPositiveDefiniteError("matrix is not finite")
            scanned = info
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite even with jitter {JITTER_LADDER[-1]*scale:g}"
    )


def _gaussian_core(a: np.ndarray, y: np.ndarray):
    """``(L, alpha, log N(y | 0, A))`` from A's jitter-ladder factor L,
    with alpha = A^-1 y solved against that same factor; an A that is
    not finite raises NotPositiveDefiniteError there.

    potrs solves on fac^T, the Fortran-ordered upper factor L^T in fac's
    own memory, so the factor is neither rescanned nor copied."""
    fac, _ = chol_jittered(a)
    if len(y) == 0:  # the wrapper rejects an empty system
        return fac, np.zeros(0), 0.0
    alpha, info = _lapack.dpotrs(fac.T, y, lower=0)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpotrs: illegal value in argument {-info}")
    logdet = np.sum(np.log(np.diagonal(fac)))
    return fac, alpha, float(-0.5 * y @ alpha - logdet - 0.5 * len(y) * LOG_2PI)


def _invert_upper(u: np.ndarray, offset: int = 0) -> np.ndarray:
    """U^-1 of an upper-triangular block, by the recursive blocked
    inverse of Elmroth, Gustavson, Jonsson & Kågström (SIAM Review,
    2004): invert the diagonal blocks, then U12 <- -U11^-1 U12 U22^-1
    by two trmm.  LAPACK trtri does the leaves, the strict lower
    triangle is never touched, and a contiguous u is inverted in place
    (the wrappers copy a sub-block in and out).  ``offset`` is u's first
    row in the whole factor, so a zero pivot is named by its global
    1-based index, as potri's info names it."""
    n = u.shape[0]
    if n <= _TRTRI_LEAF:
        inv, info = _lapack.dtrtri(u, lower=0, overwrite_c=1)
        if info > 0:
            raise NotPositiveDefiniteError(f"factor is singular at pivot {offset + info}")
        if info < 0:
            raise np.linalg.LinAlgError(f"dtrtri: illegal value in argument {-info}")
        return inv
    k = n // 2
    u[:k, :k] = _invert_upper(u[:k, :k], offset)
    u[k:, k:] = _invert_upper(u[k:, k:], offset + k)
    u12 = _lapack.dtrmm(-1.0, u[:k, :k], u[:k, k:])
    u[:k, k:] = _lapack.dtrmm(1.0, u[k:, k:], u12, side=1, overwrite_b=1)
    return u


def _inverse_lower(fac: np.ndarray) -> np.ndarray:
    """Lower triangle of A^-1 = (L L^T)^-1 = U^-1 U^-T with U = L^T; the
    strict upper triangle is zero, as it is in the factors chol_jittered
    gives.

    Overwrites ``fac``: fac^T is U, Fortran-ordered, so the blocked
    triangular inverse and LAPACK lauum run in place and the result is
    a view of fac's memory.  Up to _TRTRI_LEAF rows this is trtri +
    lauum, which is what potri does, bit for bit.  An empty system's
    0 x 0 factor, whose dimensions LAPACK rejects, comes back as it is.
    """
    if fac.shape[0] == 0:
        return fac
    u = _invert_upper(fac.T)
    inv, info = _lapack.dlauum(u, lower=0, overwrite_c=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"dlauum: illegal value in argument {-info}")
    return inv.T


def _rejecting_failures(evaluate, raw, size: int):
    """An objective's ``evaluate(raw) -> (value, gradient)`` with
    floating-point warnings off, under the rules both fits share: a
    point whose coordinates are not finite, whose factorization
    ``chol_jittered`` refuses, or whose value or gradient is not finite
    gives ``(-inf, zeros)``, a rejected point, at which the optimizer
    stops.  A vector that is not of length ``size`` raises ValueError,
    and any other error propagates."""
    if np.shape(raw) != (size,):
        raise ValueError(f"expected {size} coordinates, got shape {np.shape(raw)}")
    rejected = -np.inf, np.zeros_like(raw)
    if not np.all(np.isfinite(raw)):
        return rejected
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value, grad = evaluate(raw)
    except (NotPositiveDefiniteError, np.linalg.LinAlgError):
        return rejected
    if not (np.isfinite(value) and np.all(np.isfinite(grad))):
        return rejected
    return value, grad


def _centered_dataset(profile: Profile):
    """The profile's valid/missing split with the mean of the valid
    heights subtracted, and that mean."""
    ds = split_dataset(profile)
    offset = float(np.mean(ds.za))
    return replace(ds, za=ds.za - offset), offset


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
    v = _lapack.solve_triangular(fac, c_ma.T, lower=True)
    return PosteriorGaussian(c_ma @ alpha, c_mm - v.T @ v)


def predictive_posterior(dataset: SurfaceDataset, kernel, noise, xm) -> PosteriorGaussian:
    """Posterior of the observable (noisy) heights at xm given (xa, za),
    with every block built by ``build_cov`` at any abscissas.

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

    def cov(xs, ys=None):
        return build_cov(kernel, xs, ys) + build_cov(noise, xs, ys)

    return _conditioned(cov(dataset.xa), cov(xm, dataset.xa), cov(xm), dataset.za)


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
        post_mean=post.mean + offset,
        lo95=lo + offset,
        hi95=hi + offset,
    )


# ---------------------------------------------------------------------------
# hyperparameter fitting


def _start_scales(profile: Profile, fit: str, init_rsm: float | None = None,
                  init_rq: float | None = None):
    """``(rsm_mm, rq_um)``, the texture scales every fit starts from: the
    priors where given, else the profile's Rsm and Rq.  The refusals, in
    order: a prior that is not positive and finite (ValueError), heights
    whose variance overflows (a FitFailureError for ``fit``), a flat
    profile, priors or not (NoProfileElementsError), heights whose Rq^2
    underflows, below the least normal float (FitFailureError), and an
    Rq whose square, the start kernel's variance, overflows or underflows
    (ValueError).  A profile with fewer than two qualified crossings
    starts at a tenth of its span."""
    if any(s is not None and not 0 < s < math.inf for s in (init_rsm, init_rq)):
        raise ValueError("Rsm and Rq scales must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):
        data_rq = rq(profile)
    if not data_rq < math.inf:
        raise FitFailureError(f"{fit} fit could not start: the height variance overflows")
    if data_rq == 0:
        raise NoProfileElementsError("the profile is flat: its Rq is 0")
    if data_rq * data_rq < sys.float_info.min:
        raise FitFailureError(f"{fit} fit could not start: the height variance underflows")
    rq_um = data_rq if init_rq is None else float(init_rq)
    if rq_um * rq_um == math.inf:
        raise ValueError(f"Rq {rq_um:g} um gives a start kernel that is not finite")
    if rq_um * rq_um < sys.float_info.min:
        raise ValueError(f"Rq {rq_um:g} um gives a start kernel variance that underflows")
    if init_rsm is not None:
        return float(init_rsm), rq_um
    try:
        return rsm(profile), rq_um
    except NoProfileElementsError:
        return float(profile.x[-1] - profile.x[0]) / 10.0, rq_um


def estimate_noise_variance(profile: Profile) -> float:
    """Second-difference noise floor estimate on valid runs.

    var(z[i-1] - 2 z[i] + z[i+1]) = 6 sigma_n^2 for white noise on a
    signal whose curvature per step is negligible; a standard way to
    initialize the noise variance within a factor of a few.
    """
    z = profile.z
    valid = profile.valid
    core = valid[1:-1] & valid[:-2] & valid[2:]
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
    diagonal at lag 0.  For A^-1 that is one bincount over all lags of
    ``_inverse_lower``'s result, whose strict upper triangle is exactly
    zero; for alpha alpha^T it is the autocorrelation of alpha placed on
    the grid.  The gradient is then one matvec of the table's stacked
    parameter derivatives with those sums.

    ``_rejecting_failures`` rejects the points both fits reject; this
    objective also rejects a point whose kernel or noise the parameter
    classes refuse.  Neither the table nor A is scanned: chol_jittered
    refuses a non-finite A.

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
        return _rejecting_failures(self._evaluate, raw, self.n_raw)

    def _evaluate(self, raw):
        try:
            kernel, noise = self.split(raw)
        except ValueError:  # a parameter class rejects an under- or overflow
            return -np.inf, np.zeros_like(raw)
        table, grads = _lag_terms(kernel, noise, self.tau)
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
        return value, 0.5 * (grads @ by_lag)


def fit_gp(profile: Profile, kernel0, noise0, config: OptConfig = OptConfig(),
           n_restarts: int = 1, seed: int = 0):
    """Maximize the marginal likelihood over kernel + noise parameters.

    Returns ``(GPModel, best_trace, all_traces)``.  The valid heights
    are centered before fitting; restarts perturb the start point by
    +-20 % in log space.  Raises FitFailureError when the fit cannot
    start: a start point or its objective is not finite.  A run whose
    objective turns non-finite later stops there with ``termination ==
    "nonfinite"`` and keeps its best finite iterate, as ``fit_gsm`` does.
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
    r, a = _start_scales(profile, "GP", init_rsm, init_rq)
    freqs = np.array([m / r for m in range(1, q + 1)])
    weights = np.full(q, a * a / (10.0 * q))
    weights[0] = a * a
    with np.errstate(over="ignore"):
        freq_vars = (0.05 * freqs) ** 2
    if not np.all(np.isfinite([freqs, freq_vars])):
        raise ValueError(f"Rsm {r:g} mm gives a start kernel that is not finite")
    return SMParams(weights, freqs, freq_vars)


def fit_sm(profile: Profile, q: int = 5, config: OptConfig = OptConfig(),
           seed: int = 0, init_rsm: float | None = None,
           init_rq: float | None = None, n_restarts: int = 3):
    """Fit a Q-component spectral mixture with white noise."""
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
    """Fit a squared-exponential GP (ordinary-kriging style baseline)
    from variance Rq^2 and lengthscale Rsm / 4."""
    rsm_mm, rq_um = _start_scales(profile, "GP")
    kernel0 = SEParams(rq_um * rq_um, 0.25 * rsm_mm)
    noise0 = NoiseParams("white", estimate_noise_variance(profile))
    return fit_gp(profile, kernel0, noise0, config)
