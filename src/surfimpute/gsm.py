"""Non-stationary generalized spectral mixture (single component).

The kernel k(x,x') = w(x) w(x') k_gibbs(x,x'; lambda) cos(2 pi (f(x) x
- f(x') x')) gets its three functions from latent GPs: log w and log
lambda, and logit(f / f_nyquist), each a smooth SE-prior GP summarized
by representative values at evenly spaced locations.  Fitting maximizes
the posterior of (representatives, noise, latent hyperparameters) with
the representatives whitened by the current latent prior factor, so the
optimizer always works in approximately isotropic coordinates.

Gradients are analytic throughout, including through the whitening
factor (Cholesky differentiation), and are verified against central
finite differences in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.special import expit

from .errors import (
    ConfigError,
    FitFailureError,
    NoProfileElementsError,
    NotPositiveDefiniteError,
    StaleWhiteningError,
)
from .gp import LOG_2PI, _centered_dataset, _gaussian_core, _inverse_lower
# bench/tracing.py wraps gsm.chol_jittered, so the name stays importable here
from .gp import chol_jittered, estimate_noise_variance  # noqa: F401
from .kernels import NoiseParams, PointwiseLatents, SEParams, gsm_cov
from .optimize import OptConfig, maximize
from .profile import Profile, SurfaceDataset, rq, rsm

# relative jitter on the latent prior (times the latent variance)
LATENT_JITTER = 1e-8

_TRANSFORMS = ("log", "logit")


@dataclass(frozen=True)
class LatentFunctionSpec:
    """One latent GP: representatives ubar at locations x_l, an SE prior
    with constant mean, and the output transform.

    transform "log" maps u -> exp(u); "logit" maps u -> scale*expit(u)
    (used for the frequency function, scale = Nyquist frequency).
    """

    x_l: np.ndarray
    ubar: np.ndarray
    mean: float
    se: SEParams
    transform: str = "log"
    scale: float = 1.0

    def __post_init__(self):
        x_l = np.asarray(self.x_l, dtype=float)
        ubar = np.asarray(self.ubar, dtype=float)
        if x_l.ndim != 1 or len(x_l) < 1:
            raise ValueError("latent locations must be a non-empty 1-D array")
        if np.any(np.diff(x_l) <= 0):
            raise ValueError("latent locations must be strictly increasing")
        if ubar.shape != x_l.shape:
            raise ValueError("representatives must match latent locations")
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if not self.scale > 0:
            raise ValueError("transform scale must be positive")
        for a in (x_l, ubar):
            a.setflags(write=False)
        object.__setattr__(self, "x_l", x_l)
        object.__setattr__(self, "ubar", ubar)

    @property
    def n(self) -> int:
        return len(self.x_l)


def _apply_transform(spec: LatentFunctionSpec, u: np.ndarray) -> np.ndarray:
    if spec.transform == "log":
        return np.exp(u)
    return spec.scale * expit(u)


def _latent_prior(spec: LatentFunctionSpec) -> np.ndarray:
    t = np.abs(spec.x_l[:, None] - spec.x_l[None, :])
    th = spec.se.theta
    k = spec.se.sigma2 * np.exp(-(t * t) / (2.0 * th * th))
    return k + (LATENT_JITTER * spec.se.sigma2) * np.eye(spec.n)


@dataclass(frozen=True)
class WhiteningState:
    """Cholesky factor of the jittered latent prior, tagged with the
    hyperparameters it was built from."""

    factor: np.ndarray
    sigma2: float
    theta: float

    def matches(self, spec: LatentFunctionSpec) -> bool:
        return (
            self.sigma2 == spec.se.sigma2
            and self.theta == spec.se.theta
            and self.factor.shape[0] == spec.n
        )


def build_whitening(spec: LatentFunctionSpec) -> WhiteningState:
    try:
        factor = np.linalg.cholesky(_latent_prior(spec))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "latent prior is not positive definite"
        ) from exc
    return WhiteningState(factor, spec.se.sigma2, spec.se.theta)


def _checked_state(spec: LatentFunctionSpec, state: WhiteningState | None):
    if state is None:
        return build_whitening(spec)
    if not state.matches(spec):
        raise StaleWhiteningError(
            "whitening state was built for different latent hyperparameters"
        )
    return state


def whiten(spec: LatentFunctionSpec, state: WhiteningState | None = None):
    """Representatives -> isotropic coordinates v = L^-1 (ubar - mean)."""
    state = _checked_state(spec, state)
    return scipy.linalg.solve_triangular(
        state.factor, spec.ubar - spec.mean, lower=True
    )


def unwhiten(spec: LatentFunctionSpec, v, state: WhiteningState | None = None):
    """Isotropic coordinates -> a spec carrying ubar = mean + L v."""
    state = _checked_state(spec, state)
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.n,):
        raise ValueError(f"expected {spec.n} whitened coordinates")
    return replace(spec, ubar=spec.mean + state.factor @ v)


def latent_eval(spec: LatentFunctionSpec, xq) -> np.ndarray:
    """Transformed latent function at query points: noise-free GP
    posterior-mean interpolation of the representatives, then the
    output transform."""
    xq = np.asarray(xq, dtype=float)
    prior = _latent_prior(spec)
    fac = scipy.linalg.cho_factor(prior, lower=True)
    coef = scipy.linalg.cho_solve(fac, spec.ubar - spec.mean)
    t = np.abs(xq[:, None] - spec.x_l[None, :])
    th = spec.se.theta
    k_ql = spec.se.sigma2 * np.exp(-(t * t) / (2.0 * th * th))
    return _apply_transform(spec, spec.mean + k_ql @ coef)


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
        if self.f.transform != "logit":
            raise ValueError("frequency latent must use the logit transform")

    @property
    def noise(self) -> NoiseParams:
        return NoiseParams("white", self.noise_sigma2)

    @property
    def f_nyquist(self) -> float:
        return self.f.scale

    def latents_at(self, xq) -> PointwiseLatents:
        return PointwiseLatents(
            w=latent_eval(self.w, xq),
            lam=latent_eval(self.lam, xq),
            f=latent_eval(self.f, xq),
        )

    def cov_matrix(self, xs, ys=None) -> np.ndarray:
        lat_x = self.latents_at(xs)
        lat_y = lat_x if ys is None else self.latents_at(ys)
        return gsm_cov(xs, xs if ys is None else ys, lat_x, lat_y)


def log_posterior(model: GsmModel, dataset: SurfaceDataset) -> float:
    """MAP objective: marginal likelihood plus the standard-normal log
    density of the whitened representatives (flat in everything else)."""
    a = model.cov_matrix(dataset.xa)
    a[np.diag_indices_from(a)] += model.noise_sigma2
    mll = _gaussian_core(a, dataset.za)[2]
    prior = 0.0
    for spec in (model.w, model.lam, model.f):
        v = whiten(spec)
        prior += -0.5 * float(v @ v) - 0.5 * spec.n * LOG_2PI
    return mll + prior


# ---------------------------------------------------------------------------
# MAP fitting


def _phi_lower_half(s: np.ndarray) -> np.ndarray:
    """Lower-triangular half-diagonal projector used in Cholesky
    differentiation: dL = L Phi(L^-1 dK L^-T)."""
    out = np.tril(s).copy()
    np.fill_diagonal(out, 0.5 * np.diagonal(s))
    return out


class _GsmObjective:
    """log_posterior and its analytic gradient as a function of the
    optimization vector [v_w, v_lam, v_f, log sigma_n^2,
    (log sigma_k^2, log theta_k) x 3]."""

    def __init__(self, model0: GsmModel, dataset: SurfaceDataset):
        self.model0 = model0
        self.xa = dataset.xa
        self.za = dataset.za
        self.p = model0.w.n
        if not (model0.lam.n == self.p and model0.f.n == self.p):
            raise ValueError("latent functions must share a representative count")
        self.sq = (self.xa[:, None] - self.xa[None, :]) ** 2
        self.specs0 = (model0.w, model0.lam, model0.f)

    def pack(self, model: GsmModel) -> np.ndarray:
        parts = [whiten(spec) for spec in (model.w, model.lam, model.f)]
        parts.append([math.log(max(model.noise_sigma2, 1e-300))])
        for spec in (model.w, model.lam, model.f):
            parts.append(np.log([spec.se.sigma2, spec.se.theta]))
        return np.concatenate(parts)

    def split(self, raw: np.ndarray):
        p = self.p
        vs = [raw[i * p : (i + 1) * p] for i in range(3)]
        sigma_n2 = math.exp(raw[3 * p])
        hyps = np.exp(raw[3 * p + 1 :]).reshape(3, 2)
        return vs, sigma_n2, hyps

    def unpack(self, raw: np.ndarray) -> GsmModel:
        vs, sigma_n2, hyps = self.split(raw)
        specs = []
        for spec0, v, (s2, th) in zip(self.specs0, vs, hyps):
            spec = replace(spec0, se=SEParams(s2, th))
            specs.append(unwhiten(spec, v))
        return GsmModel(w=specs[0], lam=specs[1], f=specs[2],
                        noise_sigma2=sigma_n2)

    def __call__(self, raw: np.ndarray):
        # any numerical blow-up (overflowing log-hyperparameters, inf/nan
        # reaching a solver) counts as a non-finite objective so the
        # optimizer terminates instead of crashing
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return self._evaluate(raw)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError):
            return -np.inf, np.zeros_like(raw)

    def _evaluate(self, raw: np.ndarray):
        p = self.p
        xa, za = self.xa, self.za
        vs, sigma_n2, hyps = self.split(raw)

        # latent layer: u_h(xa) = mean_h + K_xL L^-T v_h per latent
        us, rs, facs, k_xls, t_xls, t_lls = [], [], [], [], [], []
        for spec0, v, (s2, th) in zip(self.specs0, vs, hyps):
            x_l = spec0.x_l
            t_ll = np.abs(x_l[:, None] - x_l[None, :])
            k_ll = s2 * np.exp(-(t_ll * t_ll) / (2.0 * th * th))
            k_ll += (LATENT_JITTER * s2) * np.eye(p)
            try:
                fac = np.linalg.cholesky(k_ll)
            except np.linalg.LinAlgError:
                return -np.inf, np.zeros_like(raw)
            r = scipy.linalg.solve_triangular(fac.T, v, lower=False)
            t_xl = np.abs(xa[:, None] - x_l[None, :])
            k_xl = s2 * np.exp(-(t_xl * t_xl) / (2.0 * th * th))
            us.append(spec0.mean + k_xl @ r)
            rs.append(r)
            facs.append(fac)
            k_xls.append(k_xl)
            t_xls.append(t_xl)
            t_lls.append(t_ll)

        w = np.exp(us[0])
        lam = np.exp(us[1])
        s_f = expit(us[2])
        f_nyq = self.model0.f.scale
        f = f_nyq * s_f

        # profile covariance and likelihood
        lam2 = lam * lam
        d = lam2[:, None] + lam2[None, :]
        g = np.sqrt(2.0 * np.outer(lam, lam) / d) * np.exp(-self.sq / d)
        phase = 2.0 * np.pi * f * xa
        arg = phase[:, None] - phase[None, :]
        wg = np.outer(w, w) * g
        k = wg * np.cos(arg)
        a = k.copy()
        a[np.diag_indices_from(a)] += sigma_n2
        try:
            fac_a, alpha, value = _gaussian_core(a, za)
        except NotPositiveDefiniteError:
            return -np.inf, np.zeros_like(raw)
        for v in vs:
            value += -0.5 * v @ v - 0.5 * p * LOG_2PI
        if not np.isfinite(value):
            return -np.inf, np.zeros_like(raw)

        inv = _inverse_lower(fac_a)
        inv += np.tril(inv, -1).T
        m = np.outer(alpha, alpha) - inv

        # per-point sensitivities s_h[k] = sum_j M_kj dK_kj/du_h(x_k)
        r_lam = k * (0.5 - lam2[:, None] / d + 2.0 * self.sq * lam2[:, None] / (d * d))
        sin_arg = np.sin(arg)
        df = f_nyq * s_f * (1.0 - s_f)  # df/du at each point
        r_f = -wg * sin_arg * (2.0 * np.pi * xa * df)[:, None]
        sens = [
            np.einsum("ij,ij->i", m, k),
            np.einsum("ij,ij->i", m, r_lam),
            np.einsum("ij,ij->i", m, r_f),
        ]

        grad = np.empty_like(raw)
        for h in range(3):
            y = k_xls[h].T @ sens[h]
            grad[h * p : (h + 1) * p] = (
                scipy.linalg.solve_triangular(facs[h], y, lower=True) - vs[h]
            )
        grad[3 * p] = 0.5 * sigma_n2 * np.trace(m)

        # latent hyperparameters, through interpolation and whitening
        pos = 3 * p + 1
        for h in range(3):
            s2, th = hyps[h]
            fac, r, k_xl = facs[h], rs[h], k_xls[h]
            t_ll, t_xl = t_lls[h], t_xls[h]
            k_ll_jit = fac @ fac.T
            for which in range(2):
                if which == 0:  # log sigma_k^2: dK scales with the matrix
                    dk_ll = k_ll_jit
                    dk_xl = k_xl
                else:  # log theta_k
                    dk_ll = (k_ll_jit - (LATENT_JITTER * s2) * np.eye(p)) * (
                        t_ll * t_ll
                    ) / (th * th)
                    dk_xl = k_xl * (t_xl * t_xl) / (th * th)
                s_mat = scipy.linalg.solve_triangular(fac, dk_ll, lower=True)
                s_mat = scipy.linalg.solve_triangular(
                    fac, s_mat.T, lower=True
                ).T
                dl_t_r = _phi_lower_half(s_mat).T @ (fac.T @ r)
                t2 = scipy.linalg.solve_triangular(fac.T, dl_t_r, lower=False)
                du = dk_xl @ r - k_xl @ t2
                grad[pos] = sens[h] @ du
                pos += 1

        return float(value), grad


def gsm_objective(model0: GsmModel, dataset: SurfaceDataset) -> _GsmObjective:
    """The MAP objective closure used for fitting; callable on the
    optimization vector, returns (value, gradient)."""
    return _GsmObjective(model0, dataset)


def fit_gsm(profile: Profile, model0: GsmModel,
            config: OptConfig = OptConfig()):
    """Maximize the GSM posterior from ``model0``.

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
                   latent_sigma2: float = 0.25,
                   latent_theta_frac: float = 0.125,
                   noise0: float | None = None) -> GsmModel:
    """Prior-knowledge starting model.

    The frequency latent ramps linearly between 1/wavelength_left at
    the left edge and 1/wavelength_right at the right edge (both mm);
    with no ramp given both default to the estimated Rsm, a flat start.
    The weight latent starts at Rq, the lengthscale latent at the
    median ramp wavelength.
    """
    if n_latent < 2:
        raise ValueError("need at least two latent locations")
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

    amp = float(rq0) if rq0 is not None else rq(profile)
    if not amp > 0:
        raise ValueError("Rq scale must be positive")
    median_lam = float(np.median(1.0 / ramp))
    se = SEParams(latent_sigma2, latent_theta_frac * span)
    sigma_n2 = noise0 if noise0 is not None else estimate_noise_variance(profile)

    return GsmModel(
        w=LatentFunctionSpec(x_l, np.full(n_latent, math.log(amp)),
                             math.log(amp), se, "log"),
        lam=LatentFunctionSpec(x_l, np.full(n_latent, math.log(median_lam)),
                               math.log(median_lam), se, "log"),
        f=LatentFunctionSpec(x_l, u_f, mean_f, se, "logit", scale=f_nyq),
        noise_sigma2=float(sigma_n2),
    )


# ---------------------------------------------------------------------------
# model persistence (flat key = value text)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _fmt_list(a) -> str:
    return ",".join(_fmt(v) for v in np.asarray(a, dtype=float))


def save_gsm(model: GsmModel, path) -> None:
    """Write the model as flat key = value text (17 significant digits,
    so a load rebuilds the covariance bitwise)."""
    lines = ["format = gsm-model-v1", f"noise_sigma2 = {_fmt(model.noise_sigma2)}"]
    for name, spec in (("w", model.w), ("lambda", model.lam), ("f", model.f)):
        lines.append(f"latent_{name}.transform = {spec.transform}")
        lines.append(f"latent_{name}.scale = {_fmt(spec.scale)}")
        lines.append(f"latent_{name}.mean = {_fmt(spec.mean)}")
        lines.append(f"latent_{name}.sigma2 = {_fmt(spec.se.sigma2)}")
        lines.append(f"latent_{name}.theta = {_fmt(spec.se.theta)}")
        lines.append(f"latent_{name}.x = {_fmt_list(spec.x_l)}")
        lines.append(f"latent_{name}.ubar = {_fmt_list(spec.ubar)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_gsm(path) -> GsmModel:
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                raise ConfigError(f"duplicate key {key!r}", line=lineno)
            entries[key] = (value.strip(), lineno)

    def take(key):
        if key not in entries:
            raise ConfigError(f"missing key {key!r}")
        return entries.pop(key)[0]

    fmt = take("format")
    if fmt != "gsm-model-v1":
        raise ConfigError(f"unsupported format {fmt!r}")
    noise_sigma2 = float(take("noise_sigma2"))
    specs = {}
    for name in ("w", "lambda", "f"):
        transform = take(f"latent_{name}.transform")
        scale = float(take(f"latent_{name}.scale"))
        mean = float(take(f"latent_{name}.mean"))
        sigma2 = float(take(f"latent_{name}.sigma2"))
        theta = float(take(f"latent_{name}.theta"))
        x_l = np.array([float(s) for s in take(f"latent_{name}.x").split(",")])
        ubar = np.array([float(s) for s in take(f"latent_{name}.ubar").split(",")])
        specs[name] = LatentFunctionSpec(
            x_l, ubar, mean, SEParams(sigma2, theta), transform, scale
        )
    if entries:
        key, (_, lineno) = next(iter(entries.items()))
        raise ConfigError(f"unknown key {key!r}", line=lineno)
    return GsmModel(w=specs["w"], lam=specs["lambda"], f=specs["f"],
                    noise_sigma2=noise_sigma2)
