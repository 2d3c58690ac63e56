"""Non-stationary generalized spectral mixture (single component).

The kernel k(x,x') = w(x) w(x') k_gibbs(x,x'; lambda) cos(2 pi (f(x) x
- f(x') x')) gets its three functions from latent GPs: log w and log
lambda, and logit(f / f_nyquist), each a smooth SE-prior GP held by
whitened coordinates v at evenly spaced locations: its values there are
mean + L v, with L the factor of its prior.  A model stores v, and
fitting maximizes the posterior of (v, noise, latent variances), so the
optimizer works in approximately isotropic coordinates and a model is
the optimizer's own state.

Each latent keeps the SE lengthscale of the starting model, its
prior-knowledge value, so its map from whitened coordinates to the
data abscissas is one constant matrix and no Cholesky factor is
differentiated.  Gradients are analytic and are verified against
central finite differences in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg import blas
from scipy.special import expit

from .errors import (
    ConfigError,
    FitFailureError,
    NoProfileElementsError,
    NotPositiveDefiniteError,
)
from .gp import LOG_2PI, _centered_dataset, _gaussian_core, _height_variance, _inverse_lower
# bench/tracing.py wraps gsm.chol_jittered, so the name stays importable here
from .gp import chol_jittered, estimate_noise_variance  # noqa: F401
from .io import _fmt, parse_config
from .kernels import (
    TWO_PI,
    NoiseParams,
    PointwiseLatents,
    SEParams,
    _gibbs_terms,
    _gsm_from_terms,
    _gsm_quadrature,
    build_cov,
    gsm_cov,
)
from .optimize import OptConfig, maximize
from .profile import Profile, SurfaceDataset, rq, rsm

# diagonal jitter on the unit-variance latent prior
LATENT_JITTER = 1e-8
# SE prior of every latent: starting variance, and lengthscale / span,
# which the fit keeps
LATENT_SIGMA2 = 0.25
LATENT_THETA_FRAC = 0.125

_TRANSFORMS = ("log", "logit")


@dataclass(frozen=True)
class LatentFunctionSpec:
    """One latent GP: whitened coordinates v at locations x_l, an SE
    prior with constant mean, and the output transform.

    The latent at query points xq is u = mean + sqrt(sigma^2) K_qL L^-T v
    (``latent_eval``), with L the factor of the unit-variance prior among
    x_l; at x_l itself that is mean + sqrt(sigma^2) L v up to the jitter.
    transform "log" maps u -> exp(u); "logit" maps u -> scale*expit(u)
    (used for the frequency function, scale = Nyquist frequency).
    """

    x_l: np.ndarray
    v: np.ndarray
    mean: float
    se: SEParams
    transform: str = "log"
    scale: float = 1.0

    def __post_init__(self):
        x_l = np.asarray(self.x_l, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x_l.ndim != 1 or len(x_l) < 1:
            raise ValueError("latent locations must be a non-empty 1-D array")
        if np.any(np.diff(x_l) <= 0):
            raise ValueError("latent locations must be strictly increasing")
        if v.shape != x_l.shape:
            raise ValueError("whitened coordinates must match latent locations")
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if not self.scale > 0:
            raise ValueError("transform scale must be positive")
        for a in (x_l, v):
            a.setflags(write=False)
        object.__setattr__(self, "x_l", x_l)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.x_l)


def _latent_factor(theta: float, x_l: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the unit-variance SE latent prior with
    lengthscale ``theta`` among the locations ``x_l``, with a diagonal
    jitter of LATENT_JITTER.  The jitter is relative, so the factor of
    the prior with variance sigma^2 is sqrt(sigma^2) times this one."""
    k = build_cov(SEParams(1.0, theta), x_l)
    k[np.diag_indices_from(k)] += LATENT_JITTER
    # a lengthscale whose square underflows gives 0/0 entries, which
    # numpy's Cholesky passes through as a NaN factor
    if not np.all(np.isfinite(k)):
        raise NotPositiveDefiniteError("latent prior is not finite")
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "latent prior is not positive definite"
        ) from exc


def _latent_map(theta: float, x_l: np.ndarray, xq) -> np.ndarray:
    """K_qL L^-T of the unit-variance prior: the latent's deviation from
    its mean at ``xq`` is sqrt(sigma^2) times this map of v."""
    fac = _latent_factor(theta, x_l)
    k_lq = build_cov(SEParams(1.0, theta), x_l, xq)
    return scipy.linalg.solve_triangular(fac, k_lq, lower=True).T


def latent_eval(spec: LatentFunctionSpec, xq) -> np.ndarray:
    """Transformed latent function at query points: the noise-free GP
    posterior mean given the latent's values at x_l, then the output
    transform."""
    dev = _latent_map(spec.se.theta, spec.x_l, xq) @ spec.v
    u = spec.mean + math.sqrt(spec.se.sigma2) * dev
    return np.exp(u) if spec.transform == "log" else spec.scale * expit(u)


@dataclass(frozen=True)
class GsmModel:
    """Fitted GSM: three latent functions plus white measurement noise."""

    w: LatentFunctionSpec
    lam: LatentFunctionSpec
    f: LatentFunctionSpec
    noise_sigma2: float

    def __post_init__(self):
        if not self.noise_sigma2 >= 0:
            raise ValueError("noise variance must be >= 0")
        # _GsmObjective always maps w and lambda by exp and f by the logit
        if (self.w.transform, self.lam.transform, self.f.transform) != ("log", "log", "logit"):
            raise ValueError("latent transforms must be log (w, lambda) and logit (f)")

    @property
    def noise(self) -> NoiseParams:
        return NoiseParams("white", self.noise_sigma2)

    def latents_at(self, xq) -> PointwiseLatents:
        return PointwiseLatents(*(latent_eval(s, xq) for s in (self.w, self.lam, self.f)))

    def cov_matrix(self, xs, ys=None) -> np.ndarray:
        lat_x = self.latents_at(xs)
        lat_y = lat_x if ys is None else self.latents_at(ys)
        return gsm_cov(xs, xs if ys is None else ys, lat_x, lat_y)


def log_posterior(model: GsmModel, dataset: SurfaceDataset) -> float:
    """MAP objective: marginal likelihood plus the standard-normal log
    density of the latents' whitened coordinates (flat in everything
    else)."""
    a = model.cov_matrix(dataset.xa)
    a[np.diag_indices_from(a)] += model.noise_sigma2
    mll = _gaussian_core(a, dataset.za)[2]
    specs = (model.w, model.lam, model.f)
    return mll + sum(-0.5 * float(s.v @ s.v) - 0.5 * s.n * LOG_2PI for s in specs)


# ---------------------------------------------------------------------------
# MAP fitting


class _GsmObjective:
    """log_posterior and its analytic gradient as a function of the
    optimization vector [v_w, v_lam, v_f, log sigma_n^2, log sigma_w^2,
    log sigma_lam^2, log sigma_f^2].

    The vector is a model's own state: pack and unpack only slice, log
    and exponentiate.  Every latent keeps model0's SE lengthscale, so
    the latent at the data abscissas is u_h = mean_h + sqrt(sigma_h^2)
    B_h v_h with the constant map B_h = K_xL L^-T of the unit-variance
    prior (``_latent_map``), built once.  No latent prior is factored or
    solved during an evaluation.

    With phi = 2 pi f(x) x, wc = w cos phi and ws = w sin phi, the
    profile covariance is K = G o ([wc ws] [wc ws]^T) (o elementwise,
    G the Gibbs matrix), so no trigonometric function is evaluated per
    matrix entry.  With M = alpha alpha^T - A^-1 and P = (M o G) [wc ws],
    the per-point sensitivities s_h = rowsum(M o dK/du_h) of the latent
    values are

        s_w   = wc P_0 + ws P_1
        s_f   = -2 pi x df/du (ws P_0 - wc P_1)
        s_lam = s_w / 2 + lam^2 rowsum(M o K o (2 sq/d - 1) / d),

    with sq the squared lags and d = lam(x)^2 + lam(x')^2.  The v_h
    gradient is sqrt(sigma_h^2) B_h^T s_h - v_h, the log sigma_h^2
    gradient s_h (u_h - mean_h) / 2, and the log noise variance gets
    sigma_n^2 (alpha^T alpha - tr A^-1) / 2.

    M is never formed in full: potri leaves the lower triangle of A^-1,
    syr subtracts alpha alpha^T from it, and the row sums and P come
    from the symmetric BLAS products symv and symm on lower triangles.

    The objective owns its n x n work buffers and writes every matrix
    of an evaluation into them, so a call allocates nothing n x n
    beyond the Cholesky factor of A; one instance must not be called
    from two threads at once.
    """

    def __init__(self, model0: GsmModel, dataset: SurfaceDataset):
        self.model0 = model0
        self.xa = dataset.xa
        self.za = dataset.za
        self.p = model0.w.n
        if not (model0.lam.n == self.p and model0.f.n == self.p):
            raise ValueError("latent functions must have equally many locations")
        n = len(self.xa)
        self.neg_sq = -((self.xa[:, None] - self.xa[None, :]) ** 2)
        self.specs0 = (model0.w, model0.lam, model0.f)
        # B_h, stacked 3 x n x p
        self.maps = np.stack([_latent_map(spec.se.theta, spec.x_l, self.xa)
                              for spec in self.specs0])
        self.means = np.array([[spec.mean] for spec in self.specs0])
        # G (then N o G), d, -sq/d, A (K plus noise; K alone once
        # factored, then N o K / d and N o K o (-sq/d) / d) and a scratch
        # matrix
        self._g, self._d, self._neg_sq_d, self._a, self._scratch = (
            np.empty((n, n)) for _ in range(5)
        )
        self._a_diag = self._a.reshape(-1)[:: n + 1]
        self._k_diag = np.empty(n)
        self._ones = np.ones(n)
        self._finite = np.empty((n, n), dtype=bool)

    def pack(self, model: GsmModel) -> np.ndarray:
        specs = (model.w, model.lam, model.f)
        return np.concatenate([*(spec.v for spec in specs),
                               [math.log(max(model.noise_sigma2, 1e-300))],
                               np.log([spec.se.sigma2 for spec in specs])])

    def split(self, raw: np.ndarray):
        p = self.p
        if np.shape(raw) != (3 * p + 4,):
            raise ValueError(f"expected {3 * p + 4} optimization coordinates, "
                             f"got shape {np.shape(raw)}")
        vs = raw[: 3 * p].reshape(3, p)
        sigma_n2 = float(np.exp(raw[3 * p]))
        sigma2s = np.exp(raw[3 * p + 1 :])
        return vs, sigma_n2, sigma2s

    def unpack(self, raw: np.ndarray) -> GsmModel:
        vs, sigma_n2, sigma2s = self.split(raw)
        w, lam, f = (replace(spec0, v=v, se=SEParams(s2, spec0.se.theta))
                     for spec0, v, s2 in zip(self.specs0, vs, sigma2s))
        return GsmModel(w=w, lam=lam, f=f, noise_sigma2=sigma_n2)

    def _deviations(self, vs, scales):
        """u_h(xa) - mean_h = sqrt(sigma_h^2) B_h v_h, one row per latent."""
        return scales[:, None] * (self.maps @ vs[:, :, None])[:, :, 0]

    def __call__(self, raw: np.ndarray):
        # _evaluate returns -inf for non-finite coordinates,
        # hyperparameters, covariance or gradient; a factorization that
        # fails on a finite matrix is -inf too, so the optimizer stops
        # there.  Any other error is a fault and propagates.
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return self._evaluate(raw)
        except (NotPositiveDefiniteError, np.linalg.LinAlgError):
            return -np.inf, np.zeros_like(raw)

    def _evaluate(self, raw: np.ndarray):
        p = self.p
        xa, za = self.xa, self.za
        vs, sigma_n2, sigma2s = self.split(raw)
        rejected = -np.inf, np.zeros_like(raw)
        if not (np.all(np.isfinite(raw)) and 0.0 < sigma_n2 < math.inf
                and np.all((sigma2s > 0.0) & (sigma2s < math.inf))):
            return rejected

        scales = np.sqrt(sigma2s)
        devs = self._deviations(vs, scales)
        us = self.means + devs
        w, lam = np.exp(us[:2])
        s_f = expit(us[2])
        f_nyq = self.model0.f.scale

        # profile covariance and likelihood; K is written into A's buffer
        g, d, neg_sq_d = _gibbs_terms(
            self.neg_sq, lam, lam, out=(self._g, self._d, self._neg_sq_d, self._scratch)
        )
        q = _gsm_quadrature(xa, w, f_nyq * s_f)
        wc, ws = q.T
        a = _gsm_from_terms(g, q, q, out=self._a)
        np.copyto(self._k_diag, self._a_diag)
        self._a_diag += sigma_n2
        if not np.isfinite(a, out=self._finite).all():
            return rejected
        fac_a, alpha, value = _gaussian_core(a, za)
        value += -0.5 * np.sum(vs * vs) - 1.5 * p * LOG_2PI
        if not np.isfinite(value):
            return rejected
        np.copyto(self._a_diag, self._k_diag)  # A holds K again

        # potri overwrites the factor with the lower triangle of A^-1,
        # whose strict upper triangle is zero, and syr folds alpha
        # alpha^T into it: N = A^-1 - alpha alpha^T = -M.  The BLAS
        # products below read only lower triangles, through the
        # Fortran-ordered views that see them as upper ones.
        inv = _inverse_lower(fac_a)
        tr_inv = np.trace(inv)
        n_low = blas.dsyr(-1.0, alpha, a=inv.T, overwrite_a=1).T

        # per-point sensitivities s_h[k] = sum_j M_kj dK_kj/du_h(x_k); with
        # (2 sq/d - 1) / d = -(2 (-sq/d) + 1) / d, the lambda sum splits
        # into the row sums of X = N o K / d and of X o (-sq/d)
        g *= n_low  # N o G, lower triangle
        pc, ps = blas.dsymm(-1.0, g.T, q).T  # (M o G) [wc ws]
        a *= n_low
        a /= d  # X, lower triangle
        lam_sum = blas.dsymv(1.0, a.T, self._ones)
        a *= neg_sq_d
        lam_sum = blas.dsymv(2.0, a.T, self._ones, beta=1.0, y=lam_sum, overwrite_y=1)
        s_w = wc * pc + ws * ps
        df = f_nyq * s_f * (1.0 - s_f)  # df/du at each point
        sens = np.stack([
            s_w,
            0.5 * s_w + lam * lam * lam_sum,
            -TWO_PI * xa * df * (ws * pc - wc * ps),
        ])

        grad = np.empty_like(raw)
        grad[: 3 * p] = (scales[:, None] * (sens[:, None, :] @ self.maps)[:, 0, :] - vs).ravel()
        grad[3 * p] = 0.5 * sigma_n2 * (alpha @ alpha - tr_inv)
        # u_h - mean_h scales as sqrt(sigma_h^2): du = (u_h - mean_h) / 2
        grad[3 * p + 1 :] = 0.5 * np.einsum("hn,hn->h", sens, devs)
        if not np.all(np.isfinite(grad)):
            return rejected
        return float(value), grad


def fit_gsm(profile: Profile, model0: GsmModel,
            config: OptConfig = OptConfig()):
    """Maximize the GSM posterior from ``model0`` over the latents'
    whitened coordinates, the noise variance and the latent variances;
    every latent keeps model0's lengthscale.

    Returns ``(model, trace)``.  Objective values are comparable only
    within one dataset (the posterior is defined up to a constant).
    Raises FitFailureError carrying the last finite iterate if the
    objective turns non-finite, or with model=None when the start
    point itself is invalid.
    """
    centered, _ = _centered_dataset(profile)
    objective = _GsmObjective(model0, centered)
    x0 = objective.pack(model0)
    try:
        best_x, trace = maximize(objective, x0, config)
    except ValueError as exc:
        raise FitFailureError(f"GSM fit could not start: {exc}") from exc
    model = objective.unpack(best_x)
    if trace.termination == "nonfinite":
        raise FitFailureError(
            "objective became non-finite during the GSM fit",
            model=model,
            trace=trace,
        )
    return model, trace


def make_gsm_model(profile: Profile, n_latent: int = 100,
                   rq0: float | None = None,
                   wavelength_left: float | None = None,
                   wavelength_right: float | None = None,
                   noise0: float | None = None) -> GsmModel:
    """Prior-knowledge starting model.

    The frequency latent ramps linearly between 1/wavelength_left at
    the left edge and 1/wavelength_right at the right edge (both mm);
    with no ramp given both default to the estimated Rsm, a flat start.
    The ramp's values at the latent locations are whitened once.  The
    weight latent starts at Rq, the lengthscale latent at the median
    ramp wavelength, both constant (v = 0).
    """
    if n_latent < 2:
        raise ValueError("need at least two latent locations")
    _height_variance(profile, "GSM")
    x = profile.x
    span = float(x[-1] - x[0])
    if span <= 0:
        raise ValueError("profile span must be positive")
    x_l = np.linspace(x[0], x[-1], n_latent)
    f_nyq = profile.grid.nyquist

    if wavelength_left is None or wavelength_right is None:
        try:
            fallback = rsm(profile)
        except NoProfileElementsError:
            fallback = span / 10.0
        if wavelength_left is None:
            wavelength_left = fallback
        if wavelength_right is None:
            wavelength_right = fallback
    if not (wavelength_left > 0 and wavelength_right > 0):
        raise ValueError("ramp wavelengths must be positive")

    f_left, f_right = 1.0 / wavelength_left, 1.0 / wavelength_right
    ramp = f_left + (f_right - f_left) * (x_l - x_l[0]) / span
    ratio = np.clip(ramp / f_nyq, 1e-6, 1.0 - 1e-6)
    u_f = np.log(ratio / (1.0 - ratio))
    mean_ratio = float(np.clip(np.mean(ramp) / f_nyq, 1e-6, 1.0 - 1e-6))
    mean_f = math.log(mean_ratio / (1.0 - mean_ratio))

    if rq0 is not None and not rq0 > 0:
        raise ValueError("Rq scale must be positive")
    amp = float(rq0) if rq0 is not None else rq(profile)
    if not amp > 0:
        raise NoProfileElementsError("the profile is flat: its Rq is 0")
    median_lam = float(np.median(1.0 / ramp))
    se = SEParams(LATENT_SIGMA2, LATENT_THETA_FRAC * span)
    sigma_n2 = noise0 if noise0 is not None else estimate_noise_variance(profile)
    v_f = scipy.linalg.solve_triangular(_latent_factor(se.theta, x_l),
                                        u_f - mean_f, lower=True) / math.sqrt(se.sigma2)
    flat = np.zeros(n_latent)

    return GsmModel(
        w=LatentFunctionSpec(x_l, flat, math.log(amp), se, "log"),
        lam=LatentFunctionSpec(x_l, flat, math.log(median_lam), se, "log"),
        f=LatentFunctionSpec(x_l, v_f, mean_f, se, "logit", scale=f_nyq),
        noise_sigma2=float(sigma_n2),
    )


# ---------------------------------------------------------------------------
# model persistence (flat key = value text)


# each latent's keys in a model file, in the order save_gsm writes them
_LATENT_KEYS = ("transform", "scale", "mean", "sigma2", "theta", "x", "v")


def _fmt_list(a) -> str:
    return ",".join(_fmt(v) for v in np.asarray(a, dtype=float))


def save_gsm(model: GsmModel, path) -> None:
    """Write the model as flat key = value text (17 significant digits,
    so a load rebuilds the model, and so its covariance, bitwise)."""
    lines = ["format = gsm-model-v2", f"noise_sigma2 = {_fmt(model.noise_sigma2)}"]
    for name, spec in (("w", model.w), ("lambda", model.lam), ("f", model.f)):
        values = (spec.transform, _fmt(spec.scale), _fmt(spec.mean), _fmt(spec.se.sigma2),
                  _fmt(spec.se.theta), _fmt_list(spec.x_l), _fmt_list(spec.v))
        lines += [f"latent_{name}.{key} = {value}" for key, value in zip(_LATENT_KEYS, values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _floats(s: str) -> np.ndarray:
    return np.array([float(v) for v in s.split(",")])


def _transform(s: str) -> str:
    if s not in _TRANSFORMS:
        raise ValueError(f"unknown transform {s!r}")
    return s


_GSM_SCHEMA = {"format": str, "noise_sigma2": float} | {
    f"latent_{name}.{key}": convert
    for name in ("w", "lambda", "f")
    for key, convert in zip(_LATENT_KEYS, (_transform, float, float, float, float,
                                           _floats, _floats))
}


def load_gsm(path) -> GsmModel:
    entries = parse_config(path, _GSM_SCHEMA)
    for key in _GSM_SCHEMA:
        if key not in entries:
            raise ConfigError(f"missing key {key!r}")
    if entries["format"] != "gsm-model-v2":
        raise ConfigError(f"unsupported format {entries['format']!r}")

    def latent(name):
        def e(key):
            return entries[f"latent_{name}.{key}"]
        try:
            return LatentFunctionSpec(e("x"), e("v"), e("mean"),
                                      SEParams(e("sigma2"), e("theta")),
                                      e("transform"), e("scale"))
        except ValueError as exc:
            raise ConfigError(f"latent_{name}: {exc}") from exc

    try:
        return GsmModel(w=latent("w"), lam=latent("lambda"), f=latent("f"),
                        noise_sigma2=entries["noise_sigma2"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
