"""Reference implementations that the tests check the library against.

Each one is the plain, slow form of something the library computes a
faster way: scalar kernels, the dense marginal likelihood and its
gradient, the noise-free posterior, the GSM log posterior, central
finite differences, the per-point scans for masked runs and for Rsm's
mean-line crossings, and the simulators' draw that factors its
covariance every time.  No library code calls them; they live here,
not in ``surfimpute``, with one fault injector that several test
modules share.  pytest does not collect this module (its name does not
start with ``test_``); test modules import it by name, as their own
directory is on the import path.
"""

import numpy as np
import scipy.linalg

from surfimpute import gp
from surfimpute.errors import NoProfileElementsError, NotPositiveDefiniteError
from surfimpute.kernels import TWO_PI, build_cov, n_params, terms_on_lags, value_on_lags
from surfimpute.profile import RSM_HYSTERESIS, rq

# ---------------------------------------------------------------------------
# scalar kernels


def k_se(x, xp, p):
    tau = x - xp
    return p.sigma2 * np.exp(-(tau * tau) / (2.0 * p.theta**2))


def k_periodic(x, xp, p):
    s = np.sin(np.pi * (x - xp) / p.period)
    return p.sigma2 * np.exp(-(s * s) / (2.0 * p.theta**2))


def k_sm(x, xp, p):
    tau = x - xp
    terms = p.weights * np.cos(TWO_PI * tau * p.freqs) * np.exp(
        -2.0 * np.pi**2 * tau * tau * p.freq_vars
    )
    return float(np.sum(terms))


def k_noise(x, xp, p):
    return float(value_on_lags(p, abs(x - xp)))


def k_gibbs(x, xp, lam, lamp):
    d = lam * lam + lamp * lamp
    tau = x - xp
    return np.sqrt(2.0 * lam * lamp / d) * np.exp(-(tau * tau) / d)


def k_gsm(x, xp, w, wp, lam, lamp, f, fp):
    phase = TWO_PI * (f * x) - TWO_PI * (fp * xp)
    return w * wp * k_gibbs(x, xp, lam, lamp) * np.cos(abs(phase))


def kernel_grad(kernel, xs, index):
    """d(cov matrix)/d(raw parameter ``index``) on the same-set points xs,
    chain-ruled through the log transform (dK/d(log p) = p dK/dp);
    parameters at zero use the 1e-12 floor."""
    xs = np.asarray(xs, dtype=float)
    if not 0 <= index < n_params(kernel):
        raise ValueError(f"parameter index {index} out of range")
    return terms_on_lags(kernel, np.abs(xs[:, None] - xs[None, :]))[1][index]


# ---------------------------------------------------------------------------
# dense GP likelihood and posterior


def training_matrix(dataset, kernel, noise):
    """A = K + Omega on the valid abscissas, built by ``build_cov``."""
    return build_cov(kernel, dataset.xa) + build_cov(noise, dataset.xa)


def log_marginal_likelihood(dataset, kernel, noise):
    """log p(za | xa, kernel, noise) for the zero-mean GP, with A built
    densely from the positions.

    The SM fit's ``gp._GridMllObjective`` gathers A from a per-lag table
    (integer lag times dx) instead, so the two agree only as far as A's
    conditioning lets them.  With coloured noise and no white nugget
    (``NoiseParams("colored", 0.03, 0.02)`` on the 50-point, dx = 0.01
    profile of ``test_grid_objective_agrees_with_dense_mll``) they differ
    by 2.8e-3 nats at -2.7e5.  That gap is a property of this oracle, not
    of the fit: the imputation of a ``GPModel`` conditions on the table
    the fit scored.
    """
    return gp._gaussian_core(training_matrix(dataset, kernel, noise), dataset.za)[2]


def mll_gradient(dataset, kernel, noise):
    """Gradient of ``log_marginal_likelihood`` with respect to the
    kernel's raw (log-space) parameters, then the noise model's:
    0.5 tr((alpha alpha^T - A^-1) dA/dtheta) with dense matrices."""
    fac, alpha, _ = gp._gaussian_core(training_matrix(dataset, kernel, noise), dataset.za)
    inv = gp._inverse_lower(fac)
    inv += np.tril(inv, -1).T
    m = np.outer(alpha, alpha) - inv
    return np.array([
        0.5 * np.sum(m * kernel_grad(part, dataset.xa, i))
        for part in (kernel, noise)
        for i in range(n_params(part))
    ])


def posterior(dataset, kernel, noise, xm):
    """Posterior of the noise-free heights at xm given (xa, za): the
    library's conditioning (``gp._conditioned``, with its factor) on
    blocks that carry the noise covariance in the training block only."""
    return gp._conditioned(training_matrix(dataset, kernel, noise),
                           build_cov(kernel, xm, dataset.xa), build_cov(kernel, xm),
                           dataset.za)


# ---------------------------------------------------------------------------
# GSM


def log_posterior(model, dataset):
    """The GSM MAP objective at a model: the marginal likelihood of its
    dense covariance plus the standard-normal log density of the
    latents' whitened coordinates (flat in everything else)."""
    a = model.cov_matrix(dataset.xa)
    a[np.diag_indices_from(a)] += model.noise_sigma2
    mll = gp._gaussian_core(a, dataset.za)[2]
    specs = (model.w, model.lam, model.f)
    return mll + sum(-0.5 * float(s.v @ s.v) - 0.5 * s.n * gp.LOG_2PI for s in specs)


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(fun, x, step=1e-5):
    """Central finite-difference gradient of a scalar objective: analytic
    gradients are tested against this, never against themselves."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (fun(hi) - fun(lo)) / (2.0 * step)
    return g


# ---------------------------------------------------------------------------
# masked runs


def masked_runs(valid):
    """``plotting.masked_runs`` by one pass over the samples."""
    runs = []
    inside = False
    start = 0
    for i, ok in enumerate(valid):
        if not ok and not inside:
            inside, start = True, i
        elif ok and inside:
            inside = False
            runs.append((start, i))
    if inside:
        runs.append((start, len(valid)))
    return runs


# ---------------------------------------------------------------------------
# Rsm


def rsm(profile):
    """``profile.rsm`` by one pass over the valid samples."""
    xv = profile.valid_x()
    zv = profile.valid_z()
    if len(zv) < 2:
        raise NoProfileElementsError("too few valid points for Rsm")
    m = float(np.mean(zv))
    h = RSM_HYSTERESIS * rq(profile)
    crossings = []
    seen_high = seen_low = False
    for i in range(len(zv) - 1):
        if zv[i] >= m + h:
            seen_high = True
        if zv[i] <= m - h:
            seen_low = True
        if zv[i] < m <= zv[i + 1]:
            if seen_high and seen_low:
                t = (m - zv[i]) / (zv[i + 1] - zv[i])
                crossings.append(xv[i] + t * (xv[i + 1] - xv[i]))
                seen_high = seen_low = False
    if len(crossings) < 2:
        raise NoProfileElementsError("fewer than two qualified mean-line crossings")
    return float(np.mean(np.diff(crossings)))


# ---------------------------------------------------------------------------
# simulator draws


def toeplitz_draw(kernel, grid, rng):
    """``synthesis._toeplitz_draw`` with the Toeplitz covariance built
    and factored afresh on every call."""
    table = value_on_lags(kernel, np.arange(grid.n, dtype=float) * grid.dx)
    fac, _ = gp.chol_jittered(scipy.linalg.toeplitz(table))
    return fac @ rng.standard_normal(grid.n)


# ---------------------------------------------------------------------------
# fault injection


def refuse_the_second_factorization(monkeypatch):
    """Make ``gp.chol_jittered``, which both objectives and the
    imputation reach through ``gp._gaussian_core``, refuse its second
    call and only that one: a fit's start point evaluates, its first
    step is rejected, and every later factorization runs as before."""
    real = gp.chol_jittered
    calls = []

    def chol(a):
        calls.append(None)
        if len(calls) == 2:
            raise NotPositiveDefiniteError("refused")
        return real(a)

    monkeypatch.setattr(gp, "chol_jittered", chol)
