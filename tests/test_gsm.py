"""Latent-GP layer of the non-stationary model: latent interpolation
from whitened coordinates, covariance assembly, MAP objective, fitting,
and the pack/unpack round trip."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit
from scipy.stats import multivariate_normal

from surfimpute import (
    FitFailureError,
    GsmModel,
    NotPositiveDefiniteError,
    OptConfig,
    Profile,
    fit_gsm,
    impute,
    make_gsm_model,
    make_grid,
)
from surfimpute import gsm
from surfimpute.gp import _centered_dataset, _gaussian_core, _inverse_lower, chol_jittered
from surfimpute.gsm import (
    LatentFunctionSpec,
    PointwiseLatents,
    _gibbs_terms,
    _GsmObjective,
    _gsm_from_terms,
    _gsm_quadrature,
    _latent_factor,
    _outer,
    gsm_cov,
    latent_eval,
)
from surfimpute.kernels import SEParams
from surfimpute.optimize import maximize
from surfimpute.profile import SurfaceDataset
from surfimpute.synthesis import (
    ChirpConfig,
    chirp_wavelength_at,
    mask_gradient,
    simulate_chirp,
)

from oracles import fd_gradient, k_gibbs, k_gsm, log_posterior, refuse_the_second_factorization

LATENT_JITTER = 1e-8
LOG_2PI = math.log(2.0 * math.pi)


def unit_prior(x_l, theta):
    """The jittered unit-variance SE latent prior among x_l."""
    t = x_l[:, None] - x_l[None, :]
    return np.exp(-(t * t) / (2.0 * theta * theta)) + LATENT_JITTER * np.eye(len(x_l))


def latent(u, mean=0.0, sigma2=1.0, theta=0.3, transform="log",
           scale=1.0, x_l=None):
    """The latent whose values at x_l are u: its whitened coordinates
    are v = L^-1 (u - mean) / sigma, L the unit prior's factor."""
    u = np.asarray(u, dtype=float)
    if x_l is None:
        x_l = np.linspace(0.0, 1.0, len(u))
    fac = np.linalg.cholesky(unit_prior(x_l, theta))
    v = scipy.linalg.solve_triangular(fac, u - mean, lower=True) / math.sqrt(sigma2)
    return LatentFunctionSpec(x_l, v, mean, SEParams(sigma2, theta),
                              transform, scale)


def representatives(spec):
    """The latent's values at x_l: mean + sigma L v."""
    fac = np.linalg.cholesky(unit_prior(spec.x_l, spec.se.theta))
    return spec.mean + math.sqrt(spec.se.sigma2) * (fac @ spec.v)


def small_model(p=5, seed=0, noise=0.05, span=1.0):
    rng = np.random.default_rng(seed)
    x_l = np.linspace(0.0, span, p)
    w = latent(math.log(1.2) + 0.2 * rng.standard_normal(p),
               mean=math.log(1.2), x_l=x_l)
    lam = latent(math.log(0.25) + 0.1 * rng.standard_normal(p),
                 mean=math.log(0.25), x_l=x_l)
    # frequency ~1.5/mm under a Nyquist scale of 10/mm
    u_f = -1.7 + 0.2 * rng.standard_normal(p)
    f = latent(u_f, mean=-1.7, transform="logit", scale=10.0, x_l=x_l)
    return GsmModel(w=w, lam=lam, f=f, noise_sigma2=noise)


def dataset_on(xa, za):
    xa = np.asarray(xa, dtype=float)
    za = np.asarray(za, dtype=float)
    return SurfaceDataset(xa=xa, za=za, xm=np.array([]),
                          idx_a=np.arange(len(xa)),
                          idx_m=np.array([], dtype=int))


# ---------------------------------------------------------------------------
# latent spec and prior factor


def test_latent_spec_validation():
    with pytest.raises(ValueError):
        latent([0.0, 1.0], x_l=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LatentFunctionSpec(np.array([0.0, 1.0]), np.array([0.0]),
                           0.0, SEParams(1.0, 0.3))
    with pytest.raises(ValueError):
        latent([0.0, 1.0], transform="affine")
    with pytest.raises(ValueError):
        latent([0.0, 1.0], transform="logit", scale=0.0)


def test_latent_factor_reconstructs_prior():
    x_l = np.linspace(0.0, 1.0, 7)
    fac = _latent_factor(0.4, x_l)
    rebuilt = fac @ fac.T
    want = unit_prior(x_l, 0.4)
    rel = np.linalg.norm(rebuilt - want) / np.linalg.norm(want)
    assert rel < 1e-8


def test_latent_factor_is_chol_jittered_of_the_jittered_prior():
    x_l = np.linspace(0.0, 1.0, 25)
    fac, jitter = chol_jittered(unit_prior(x_l, 0.125))
    assert jitter == 0.0
    assert same_bits(_latent_factor(0.125, x_l), fac)


def test_latent_prior_that_factors_only_with_more_jitter_raises(monkeypatch):
    # a prior that the ladder would make positive definite with more
    # than LATENT_JITTER on its diagonal is refused, not altered
    monkeypatch.setattr(gsm, "build_cov",
                        lambda se, x: np.ones((3, 3)) - 2.0 * LATENT_JITTER * np.eye(3))
    assert chol_jittered(np.ones((3, 3)) - LATENT_JITTER * np.eye(3))[1] > 0.0
    with pytest.raises(NotPositiveDefiniteError):
        _latent_factor(0.4, np.linspace(0.0, 1.0, 3))


# ---------------------------------------------------------------------------
# latent interpolation


def test_latent_eval_at_zero_v_is_the_mean_everywhere():
    xq = np.linspace(-0.5, 1.5, 41)
    for sigma2, theta in ((1.0, 0.3), (0.04, 0.05), (9.0, 2.0)):
        spec = LatentFunctionSpec(np.linspace(0.0, 1.0, 6), np.zeros(6), 0.7,
                                  SEParams(sigma2, theta))
        assert np.array_equal(latent_eval(spec, xq), np.exp(np.full(41, 0.7)))
        fspec = replace(spec, transform="logit", scale=10.0)
        assert np.array_equal(latent_eval(fspec, xq), 10.0 * expit(np.full(41, 0.7)))


def test_latent_eval_diagonal_limit():
    # theta far below the location spacing kills the off-diagonal prior,
    # so the latent at x_l is mean + sigma v
    rng = np.random.default_rng(4)
    v = rng.standard_normal(5)
    spec = LatentFunctionSpec(np.linspace(0.0, 1.0, 5), v, 0.2, SEParams(4.0, 1e-6))
    want = 0.2 + 2.0 * v
    got = np.log(latent_eval(spec, spec.x_l))
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_latent_eval_reproduces_representatives():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(6)
    spec = latent(u, mean=0.3)
    got = latent_eval(spec, spec.x_l)
    want = np.exp(u)
    assert np.max(np.abs(got - want) / want) < 1e-6
    fspec = latent(u, mean=0.0, transform="logit", scale=10.0)
    got_f = latent_eval(fspec, fspec.x_l)
    want_f = 10.0 * expit(u)
    assert np.max(np.abs(got_f - want_f) / want_f) < 1e-6


def test_latent_eval_constant_and_far_field():
    spec = latent(np.full(5, -0.4), mean=-0.4)
    xq = np.array([0.05, 0.33, 0.5, 0.77, 1.0])
    assert np.allclose(latent_eval(spec, xq), math.exp(-0.4), atol=1e-12)
    # far from every representative the conditional mean reverts to the
    # prior mean
    wiggly = latent(np.array([0.5, -0.8, 0.2, 0.9, -0.1]), mean=-0.4)
    far = latent_eval(wiggly, np.array([100.0]))
    assert abs(far[0] - math.exp(-0.4)) < 1e-12


def test_latent_eval_dense_solve_oracle():
    rng = np.random.default_rng(6)
    u = rng.standard_normal(5)
    spec = latent(u, mean=0.1, sigma2=1.5, theta=0.35)
    xq = np.array([0.12, 0.4, 0.81])
    k = 1.5 * unit_prior(spec.x_l, 0.35)
    t = xq[:, None] - spec.x_l[None, :]
    k_ql = 1.5 * np.exp(-(t * t) / (2.0 * 0.35**2))
    want = np.exp(0.1 + k_ql @ np.linalg.solve(k, u - 0.1))
    got = latent_eval(spec, xq)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10


def test_latent_eval_positive_and_below_scale():
    extremes = latent(np.array([-30.0, 30.0, -5.0, 20.0]))
    vals = latent_eval(extremes, np.linspace(0.0, 1.0, 40))
    assert np.all(vals > 0.0)
    fspec = latent(np.array([-30.0, 30.0, -5.0, 20.0]),
                   transform="logit", scale=10.0)
    fvals = latent_eval(fspec, np.linspace(0.0, 1.0, 40))
    assert np.all(fvals > 0.0)
    assert np.all(fvals < 10.0)


# ---------------------------------------------------------------------------
# Gibbs and GSM matrices


def test_gibbs_rejects_bad_lengthscale():
    with pytest.raises(ValueError):
        PointwiseLatents([1.0], [-0.1], [1.0])


def test_outer_equals_ufunc_outer_and_writes_into_out():
    rng = np.random.default_rng(2024)
    u, v = rng.uniform(-2.0, 2.0, 7), rng.uniform(-2.0, 2.0, 5)
    out = np.empty((7, 5))
    got = _outer(u[:, None], v[:, None], out=out)
    assert np.shares_memory(got, out)
    assert np.array_equal(out, np.multiply.outer(u, v))
    # a sum with one factor of each product exactly 1, as d = a_i + b_j
    got = _outer(np.column_stack([u, np.ones(7)]), np.column_stack([np.ones(5), v]))
    assert np.array_equal(got, np.add.outer(u, v))
    with pytest.raises(ValueError, match="C-contiguous"):
        _outer(u[:, None], v[:3, None], out=np.empty((7, 5))[:, :3])
    # an empty set gives an empty matrix, as ufunc.outer does
    none = np.zeros(0)
    lat = PointwiseLatents(np.ones(7), np.full(7, 0.1), np.ones(7))
    empty = PointwiseLatents(none, none, none)
    assert _outer(u[:, None], none[:, None]).shape == (7, 0)
    assert gsm_cov(u, none, lat, empty).shape == (7, 0)
    assert gsm_cov(none, none, empty, empty).shape == (0, 0)


def test_gsm_cov_with_unit_weight_and_zero_frequency_matches_scalar_gibbs():
    # w = 1 and f = 0 make the rank-two cosine factor exactly 1
    xs = np.linspace(0.0, 1.0, 9)
    lam = np.random.default_rng(2025).uniform(0.1, 0.6, 9)
    lat = PointwiseLatents(np.ones(9), lam, np.zeros(9))
    m = gsm_cov(xs, xs, lat, lat)
    for i in range(9):
        for j in range(9):
            assert abs(m[i, j] - k_gibbs(xs[i], xs[j], lam[i], lam[j])) < 1e-14


def test_gsm_cov_matches_scalar_at_chirp_phases():
    # the chirp grid: a 0.03 mm span under a 5000/mm Nyquist frequency,
    # so 2 pi f x reaches several hundred radians
    rng = np.random.default_rng(88)

    def points_and_latents(n):
        return np.sort(rng.uniform(0.0, 0.03, n)), PointwiseLatents(
            rng.uniform(0.5, 2.0, n), rng.uniform(1e-3, 4e-3, n),
            rng.uniform(1500.0, 4500.0, n))

    xs, lat_x = points_and_latents(15)
    ys, lat_y = points_and_latents(11)
    assert 2.0 * np.pi * np.max(lat_x.f * xs) > 300.0
    for a, la, b, lb in ((xs, lat_x, xs, lat_x), (xs, lat_x, ys, lat_y)):
        m = gsm_cov(a, b, la, lb)
        want = np.array([[k_gsm(a[i], b[j], la.w[i], lb.w[j], la.lam[i],
                                lb.lam[j], la.f[i], lb.f[j])
                          for j in range(len(b))] for i in range(len(a))])
        assert np.max(np.abs(m - want) / np.outer(la.w, lb.w)) < 1e-12
    same = gsm_cov(xs, xs, lat_x, lat_x)
    assert np.array_equal(same, same.T)


def _gsm_grids():
    """A span, then n unit positions, w, lambda / span and f * span."""
    return st.tuples(st.floats(1e-3, 10.0), st.integers(2, 40)).flatmap(
        lambda sn: st.tuples(
            st.just(sn[0]),
            *(arrays(float, sn[1], elements=st.floats(lo, hi))
              for lo, hi in ((0.0, 1.0), (0.1, 10.0), (0.01, 1.0), (0.0, 50.0)))))


@settings(max_examples=60, deadline=None)
@given(_gsm_grids())
def test_gsm_cov_is_psd_on_random_grids(grid):
    span, u, w, lam, f = grid
    lat = PointwiseLatents(w, span * lam, f / span)
    m = gsm_cov(span * u, span * u, lat, lat)
    assert np.linalg.eigvalsh(m)[0] >= -1e-10 * np.trace(m)


def test_gsm_cov_satisfies_cauchy_schwarz():
    rng = np.random.default_rng(2026)
    xs = rng.uniform(-1.0, 1.0, 24)
    lat = PointwiseLatents(rng.uniform(0.5, 2.0, 24), rng.uniform(0.05, 0.5, 24),
                           rng.uniform(0.0, 10.0, 24))
    m = gsm_cov(xs, xs, lat, lat)
    d = np.sqrt(np.outer(np.diagonal(m), np.diagonal(m)))
    assert np.all(np.abs(m) <= d + 1e-12)


def test_gsm_cov_is_psd_on_seeded_grids():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(4, 64))
        xs = np.sort(rng.uniform(0.0, 3.0, n))
        lat = PointwiseLatents(rng.uniform(0.5, 2.0, n), rng.uniform(0.05, 0.5, n),
                               rng.uniform(0.0, 20.0, n))
        g = gsm_cov(xs, xs, lat, lat)
        lo = float(np.min(np.linalg.eigvalsh(g)))
        assert lo >= -1e-8 * float(np.max(np.diagonal(g)))


# ---------------------------------------------------------------------------
# model assembly


def test_gsm_model_validation():
    m = small_model()
    with pytest.raises(ValueError):
        GsmModel(w=m.w, lam=m.lam, f=m.w, noise_sigma2=0.05)
    with pytest.raises(ValueError):
        GsmModel(w=m.w, lam=m.lam, f=m.f, noise_sigma2=-1.0)
    # the three latents share one prior: its locations and lengthscale
    moved = replace(m.lam, x_l=m.lam.x_l + 0.01)
    longer = replace(m.f, se=SEParams(m.f.se.sigma2, 1.5 * m.f.se.theta))
    for lam, f in ((moved, m.f), (m.lam, longer)):
        with pytest.raises(ValueError, match="share their locations and lengthscale"):
            GsmModel(w=m.w, lam=lam, f=f, noise_sigma2=0.05)


def test_latents_at_is_latent_eval_of_each_latent():
    model = chirp_scale_model(seed=37)
    xq = np.sort(np.random.default_rng(38).uniform(0.0, 0.03, 31))
    got = model.latents_at(xq)
    for name in ("w", "lam", "f"):
        assert same_bits(getattr(got, name), latent_eval(getattr(model, name), xq))


def test_one_latent_prior_factor_serves_all_three_latents(monkeypatch):
    model = small_model(p=6, seed=39)
    factor, calls = gsm._latent_factor, []

    def counted(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(gsm, "_latent_factor", counted)
    xa = np.linspace(0.0, 1.0, 15)
    _GsmObjective(model, dataset_on(xa, np.sin(6.0 * xa)))
    assert len(calls) == 1
    calls.clear()
    model.latents_at(xa)
    assert len(calls) == 1
    calls.clear()
    # the data block, the cross block's two point sets and the gap block
    valid = np.ones(15, dtype=bool)
    valid[6:9] = False
    masked = Profile(make_grid(0.0, 1.0 / 14, 15), np.where(valid, np.sin(6.0 * xa), np.nan),
                     valid)
    impute(masked, model, 1)
    assert len(calls) == 4


def test_gsm_model_requires_log_weight_and_lengthscale():
    # the objective maps w and lambda by exp; a logit latent there would
    # fit a different kernel from the one cov_matrix evaluates
    m = small_model()
    logit_w = replace(m.w, transform="logit", scale=2.0)
    logit_lam = replace(m.lam, transform="logit", scale=2.0)
    with pytest.raises(ValueError):
        GsmModel(w=logit_w, lam=m.lam, f=m.f, noise_sigma2=0.05)
    with pytest.raises(ValueError):
        GsmModel(w=m.w, lam=logit_lam, f=m.f, noise_sigma2=0.05)


def test_gsm_cov_constant_latents_reduce_to_stationary():
    p = 5
    w0, lam0, f0 = 1.3, 0.2, 2.0
    x_l = np.linspace(0.0, 1.0, p)
    model = GsmModel(
        w=latent(np.full(p, math.log(w0)), mean=math.log(w0), x_l=x_l),
        lam=latent(np.full(p, math.log(lam0)), mean=math.log(lam0), x_l=x_l),
        f=latent(np.full(p, math.log(f0 / (10.0 - f0))),
                 mean=math.log(f0 / (10.0 - f0)),
                 transform="logit", scale=10.0, x_l=x_l),
        noise_sigma2=0.0,
    )
    xs = np.linspace(0.05, 0.95, 9)
    got = model.cov_matrix(xs)
    tau = xs[:, None] - xs[None, :]
    want = (w0 * w0 * np.exp(-(tau * tau) / (2.0 * lam0 * lam0))
            * np.cos(2.0 * np.pi * f0 * tau))
    assert np.max(np.abs(got - want)) < 1e-9


def test_gsm_cov_diagonal_is_w_squared():
    model = small_model(p=6, seed=2)
    xs = np.linspace(0.0, 1.0, 17)
    diag = np.diagonal(model.cov_matrix(xs))
    want = model.latents_at(xs).w ** 2
    assert np.max(np.abs(diag - want) / want) < 1e-10


# ---------------------------------------------------------------------------
# MAP objective


def test_log_posterior_prior_at_zero():
    p = 5
    model = GsmModel(
        w=latent(np.full(p, math.log(1.2)), mean=math.log(1.2)),
        lam=latent(np.full(p, math.log(0.25)), mean=math.log(0.25)),
        f=latent(np.full(p, -1.7), mean=-1.7, transform="logit", scale=10.0),
        noise_sigma2=0.05,
    )
    rng = np.random.default_rng(7)
    xa = np.linspace(0.0, 1.0, 8)
    za = rng.standard_normal(8)
    ds = dataset_on(xa, za)
    cov = model.cov_matrix(xa) + 0.05 * np.eye(8)
    mll = multivariate_normal(mean=np.zeros(8), cov=cov).logpdf(za)
    want = mll + 3.0 * (-(p / 2.0) * LOG_2PI)
    got = log_posterior(model, ds)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_log_posterior_sum_of_parts():
    model = small_model(p=5, seed=8, noise=0.1)
    rng = np.random.default_rng(9)
    xa = np.linspace(0.0, 1.0, 10)
    za = rng.standard_normal(10)
    ds = dataset_on(xa, za)
    cov = model.cov_matrix(xa) + 0.1 * np.eye(10)
    want = multivariate_normal(mean=np.zeros(10), cov=cov).logpdf(za)
    for spec in (model.w, model.lam, model.f):
        want += -0.5 * float(spec.v @ spec.v) - 0.5 * spec.n * LOG_2PI
    got = log_posterior(model, ds)
    assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_log_posterior_prior_monotone_in_whitened_norm():
    # observations sit exactly on the latent locations, so shifting a
    # latent mean while keeping its values there leaves the covariance
    # (hence the data term) essentially unchanged and only grows ||v||
    model = small_model(p=6, seed=10, noise=0.05)
    rng = np.random.default_rng(11)
    za = rng.standard_normal(6)
    ds = dataset_on(model.w.x_l, za)
    u_w = representatives(model.w)
    values = []
    for shift in (0.0, 1.0, 2.0):
        w = latent(u_w, mean=model.w.mean - shift, x_l=model.w.x_l)
        values.append(log_posterior(replace(model, w=w), ds))
    assert values[0] > values[1] + 0.1
    assert values[1] > values[2] + 0.1


def test_objective_value_matches_log_posterior():
    model = small_model(p=5, seed=12, noise=0.08)
    rng = np.random.default_rng(13)
    xa = np.linspace(0.0, 1.0, 12)
    za = rng.standard_normal(12)
    ds = dataset_on(xa, za)
    obj = _GsmObjective(model, ds)
    value, grad = obj(obj.pack(model))
    want = log_posterior(model, ds)
    assert abs(value - want) < 1e-9 * max(1.0, abs(want))
    assert grad.shape == (3 * 5 + 1 + 3,)


def test_objective_gradient_matches_finite_differences():
    model = small_model(p=6, seed=14, noise=0.05)
    rng = np.random.default_rng(15)
    xa = np.linspace(0.0, 1.0, 20)
    za = rng.standard_normal(20)
    ds = dataset_on(xa, za)
    obj = _GsmObjective(model, ds)
    x0 = obj.pack(model)
    for point in (x0, x0 + 0.05 * rng.standard_normal(len(x0))):
        _, grad = obj(point)
        fd = fd_gradient(lambda x: obj(x)[0], point)
        scale = np.maximum(np.abs(fd), np.maximum(np.abs(grad), 1e-6))
        assert np.max(np.abs(grad - fd) / scale) < 1e-4


def chirp_scale_model(p=6, seed=0, noise=0.02):
    """Latents on the chirp grid's 0.03 mm span under its 5000/mm Nyquist
    scale, with f at 0.3-0.7 of Nyquist: phases 2 pi f x reach several
    hundred radians, as they do in the chirp study."""
    rng = np.random.default_rng(seed)
    x_l = np.linspace(0.0, 0.03, p)
    w = latent(0.2 * rng.standard_normal(p), theta=0.0075, x_l=x_l)
    lam = latent(math.log(2e-3) + 0.1 * rng.standard_normal(p),
                 mean=math.log(2e-3), theta=0.0075, x_l=x_l)
    f = latent(0.3 * rng.standard_normal(p), theta=0.0075,
               transform="logit", scale=5000.0, x_l=x_l)
    return GsmModel(w=w, lam=lam, f=f, noise_sigma2=noise)


def test_objective_at_chirp_phases_matches_log_posterior_and_fd():
    model = chirp_scale_model(seed=30)
    rng = np.random.default_rng(31)
    xa = np.linspace(0.0, 0.03, 24)
    ds = dataset_on(xa, rng.standard_normal(24))
    obj = _GsmObjective(model, ds)
    x0 = obj.pack(model)
    assert 2.0 * np.pi * np.max(model.latents_at(xa).f * xa) > 300.0
    for point in (x0, x0 + 0.05 * rng.standard_normal(len(x0))):
        value, grad = obj(point)
        want = log_posterior(obj.unpack(point), ds)
        assert abs(value - want) < 1e-9 * max(1.0, abs(want))
        fd = fd_gradient(lambda x: obj(x)[0], point)
        scale = np.maximum(np.abs(fd), np.maximum(np.abs(grad), 1e-6))
        assert np.max(np.abs(grad - fd) / scale) < 1e-4


def full_matrix_objective(obj, raw):
    """The objective's value and gradient from full n x n matrices: M =
    alpha alpha^T - A^-1 formed in full, P = (M o G) [wc ws] by a dense
    product and the lambda row sum elementwise.  The reference for the
    lower-triangle BLAS products of _GsmObjective."""
    p = obj.p
    xa, za = obj.xa, obj.za
    vs, sigma_n2, sigma2s = obj.split(raw)
    scales = np.sqrt(sigma2s)
    devs = [scale * (obj.map @ v) for scale, v in zip(scales, vs)]
    us = [spec.mean + dev for spec, dev in zip(obj.specs0, devs)]
    w, lam, s_f = np.exp(us[0]), np.exp(us[1]), expit(us[2])
    f_nyq = obj.model0.f.scale

    sq = (xa[:, None] - xa[None, :]) ** 2
    inv_d = 1.0 / np.add.outer(lam * lam, lam * lam)
    sq_d = sq * inv_d
    g = np.sqrt(np.multiply.outer(2.0 * lam, lam) * inv_d) * np.exp(-sq_d)
    phase = 2.0 * np.pi * f_nyq * s_f * xa
    wc, ws = w * np.cos(phase), w * np.sin(phase)
    k = g * (np.multiply.outer(wc, wc) + np.multiply.outer(ws, ws))
    fac, alpha, value = _gaussian_core(k + sigma_n2 * np.eye(len(xa)), za)
    for v in vs:
        value += -0.5 * v @ v - 0.5 * p * LOG_2PI

    inv = _inverse_lower(fac)
    inv = inv + np.tril(inv, -1).T
    m = np.outer(alpha, alpha) - inv
    pc, ps = ((m * g) @ np.column_stack([wc, ws])).T
    s_w = wc * pc + ws * ps
    df = f_nyq * s_f * (1.0 - s_f)
    sens = [
        s_w,
        0.5 * s_w + lam * lam * np.sum(m * k * (2.0 * sq_d - 1.0) * inv_d, axis=1),
        -2.0 * np.pi * xa * df * (ws * pc - wc * ps),
    ]
    grad = np.empty_like(raw)
    grad[3 * p] = 0.5 * sigma_n2 * (alpha @ alpha - np.trace(inv))
    for h, s in enumerate(sens):
        grad[h * p : (h + 1) * p] = scales[h] * (obj.map.T @ s) - vs[h]
        grad[3 * p + 1 + h] = 0.5 * s @ devs[h]
    return float(value), grad


def bench_chirp_objective(seed=3):
    """The objective of the first profile of the benchmark's chirp
    workload at ``seed`` (n = 174 valid points, 25 representatives),
    at the benchmark's start model."""
    config = ChirpConfig(dx=1e-4, n=300)
    truth = simulate_chirp(config, 1000 * seed)
    slope = np.gradient(truth.z, truth.dx)
    masked = mask_gradient(truth, float(np.quantile(np.abs(slope[:100]), 0.5)))
    left, right = chirp_wavelength_at(config, truth.x[[0, -1]])
    model0 = make_gsm_model(masked, n_latent=25, wavelength_left=left,
                            wavelength_right=right,
                            noise0=1e-3 * float(np.var(masked.valid_z())))
    centered, _ = _centered_dataset(masked)
    return _GsmObjective(model0, centered)


@pytest.mark.parametrize("seed", [3, 4])
def test_objective_matches_the_full_matrix_oracle_at_the_bench_chirp_input(seed):
    obj = bench_chirp_objective(seed)
    assert len(obj.xa) > 150
    rng = np.random.default_rng(seed)
    x0 = obj.pack(obj.model0)
    ds = dataset_on(obj.xa, obj.za)
    for point in [x0] + [x0 + 0.05 * rng.standard_normal(len(x0)) for _ in range(3)]:
        value, grad = obj(point)
        want_value, want_grad = full_matrix_objective(obj, point)
        assert np.isfinite(value)
        assert np.max(np.abs(grad - want_grad)) <= 1e-10 * np.max(np.abs(want_grad))
        assert abs(value - want_value) <= 1e-10 * abs(want_value)
        # log_posterior's latent_eval builds the objective's own latent
        # map, so no solve of the ill-conditioned latent prior separates
        # the two values
        posterior = log_posterior(obj.unpack(point), ds)
        assert abs(value - posterior) <= 1e-12 * abs(posterior)


@pytest.mark.parametrize("seed", [3, 4])
def test_objective_agrees_with_the_potri_inverse_at_the_bench_chirp_input(
        seed, monkeypatch):
    def potri_inverse(fac):
        inv, info = scipy.linalg.lapack.dpotri(fac.T, lower=0, overwrite_c=1)
        assert info == 0
        return inv.T

    obj = bench_chirp_objective(seed)
    rng = np.random.default_rng(seed)
    x0 = obj.pack(obj.model0)
    points = [x0] + [x0 + 0.05 * rng.standard_normal(len(x0)) for _ in range(3)]
    got = [obj(x) for x in points]
    # gsm imports the inverse by name
    monkeypatch.setattr(gsm, "_inverse_lower", potri_inverse)
    for (value, grad), x in zip(got, points):
        want_value, want_grad = obj(x)
        assert np.isfinite(value)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert np.max(np.abs(grad - want_grad)) <= 1e-10 * np.max(np.abs(want_grad))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**32 - 1))
def test_gsm_from_terms_is_bitwise_symmetric_on_the_same_set(n, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 0.03, n))
    lam = rng.uniform(1e-4, 4e-3, n)
    g = _gibbs_terms(-((xs[:, None] - xs[None, :]) ** 2), lam, lam)[0]
    q = _gsm_quadrature(xs, rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 5000.0, n))
    k = _gsm_from_terms(g, q, q)
    assert np.array_equal(g, g.T)
    assert np.array_equal(k, k.T)
    # a second, equal quadrature matrix gives the same bits
    assert np.array_equal(_gsm_from_terms(g, q, q.copy(order="F")), k)


def test_objective_rejects_a_vector_of_the_wrong_length():
    model = small_model(p=5, seed=12)
    obj = _GsmObjective(model, dataset_on(np.linspace(0.0, 1.0, 8), np.zeros(8)))
    x0 = obj.pack(model)
    assert np.isfinite(obj(x0)[0])
    with pytest.raises(ValueError, match=f"expected {len(x0)} coordinates"):
        obj(np.append(x0, 0.0))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_objective_buffers_carry_no_state_between_calls():
    # the objective writes every n x n matrix into buffers it owns; a
    # call after points rejected part-way must equal a fresh objective's
    model = chirp_scale_model(seed=32)
    rng = np.random.default_rng(33)
    ds = dataset_on(np.linspace(0.0, 0.03, 24), rng.standard_normal(24))
    obj = _GsmObjective(model, ds)
    p = model.w.n
    x1 = obj.pack(model)
    x2 = x1 + 0.05 * rng.standard_normal(len(x1))
    v1, g1 = obj(x1)
    kept = g1.copy()
    w_overflow = x1.copy()
    w_overflow[:p] = 800.0  # w overflows: K is not finite
    noise_overflow = x1.copy()
    noise_overflow[3 * p] = 800.0
    latent_variance_overflow = x1.copy()
    latent_variance_overflow[3 * p + 1] = 800.0
    for bad in (w_overflow, noise_overflow, latent_variance_overflow):
        value, grad = obj(bad)
        assert value == -np.inf and not np.any(grad)
        if bad is w_overflow:
            # that rejection came after K was written into A's buffer
            assert not np.all(np.isfinite(obj._a))
    v2, g2 = obj(x2)
    v1_again, g1_again = obj(x1)
    for x, v, g in ((x1, v1, g1), (x2, v2, g2), (x1, v1_again, g1_again)):
        v_fresh, g_fresh = _GsmObjective(model, ds)(x)
        assert same_bits(v, v_fresh) and same_bits(g, g_fresh)
    # the gradient handed out first is the caller's own array
    assert same_bits(g1, kept)


def test_objective_latents_match_the_unpacked_model():
    # the constant latent maps give the values latent_eval interpolates
    # from the unpacked representatives
    model = small_model(p=6, seed=34, noise=0.05)
    rng = np.random.default_rng(35)
    xa = np.sort(rng.uniform(0.0, 1.0, 15))
    obj = _GsmObjective(model, dataset_on(xa, rng.standard_normal(15)))
    x0 = obj.pack(model)
    for point in (x0, x0 + 0.3 * rng.standard_normal(len(x0))):
        vs, _, sigma2s = obj.split(point)
        devs = obj._deviations(vs, np.sqrt(sigma2s))
        u_w, u_lam, u_f = (spec.mean + dev for spec, dev in zip(obj.specs0, devs))
        got = (np.exp(u_w), np.exp(u_lam), model.f.scale * expit(u_f))
        want = obj.unpack(point).latents_at(xa)
        for g, w in zip(got, (want.w, want.lam, want.f)):
            assert np.max(np.abs(g - w) / np.abs(w)) < 1e-12


def test_objective_pack_unpack_round_trip():
    model = small_model(p=5, seed=16, noise=0.07)
    ds = dataset_on(np.linspace(0.0, 1.0, 6),
                    np.zeros(6))
    obj = _GsmObjective(model, ds)
    back = obj.unpack(obj.pack(model))
    xs = np.linspace(0.0, 1.0, 9)
    assert np.allclose(back.cov_matrix(xs), model.cov_matrix(xs),
                       rtol=1e-12, atol=1e-12)
    assert abs(back.noise_sigma2 - model.noise_sigma2) < 1e-15
    for a, b in ((back.w, model.w), (back.lam, model.lam), (back.f, model.f)):
        assert same_bits(a.v, b.v)
        assert a.se == b.se


# ---------------------------------------------------------------------------
# fitting


def gsm_draw_profile(model, n, seed):
    g = make_grid(0.0, 1.0 / (n - 1), n)
    xs = g.points()
    cov = model.cov_matrix(xs) + model.noise_sigma2 * np.eye(n)
    fac = np.linalg.cholesky(cov + 1e-10 * np.eye(n))
    z = fac @ np.random.default_rng(seed).standard_normal(n)
    return Profile(g, z, None)


def test_fit_gsm_ascent_from_generating_parameters():
    gen = small_model(p=4, seed=17, noise=0.05)
    profile = gsm_draw_profile(gen, 36, seed=18)
    config = OptConfig(max_iterations=40)
    model, trace = fit_gsm(profile, gen, config)
    assert max(trace.objectives) >= trace.objectives[0] - 1e-9
    assert np.all(np.isfinite(latent_eval(model.w, profile.x)))
    assert model.noise_sigma2 > 0

    # the fitted model is the optimizer's best vector: v bitwise, the four
    # variances within an ulp of their logs (exp then log returns most
    # but not all doubles), and it imputes bitwise as that vector does
    obj = _GsmObjective(gen, _centered_dataset(profile)[0])
    best_x, _ = maximize(obj, obj.pack(gen), config)
    got = obj.pack(model)
    p = gen.w.n
    assert same_bits(got[: 3 * p], best_x[: 3 * p])
    assert np.max(np.abs(got - best_x)) <= 1e-15
    valid = np.ones(36, dtype=bool)
    valid[15:21] = False
    masked = Profile(profile.grid, np.where(valid, profile.z, np.nan), valid)
    for seed in (1, 2):
        a, b = impute(masked, model, seed), impute(masked, obj.unpack(best_x), seed)
        for field in ("post_mean", "lo95", "hi95"):
            assert same_bits(getattr(a, field), getattr(b, field))
        assert same_bits(a.profile.z, b.profile.z)


def test_fit_gsm_keeps_every_latent_lengthscale():
    gen = small_model(p=4, seed=17, noise=0.05)
    theta = gen.w.se.theta  # the latents share one lengthscale
    gen = replace(gen, lam=replace(gen.lam, se=SEParams(0.5, theta)),
                  f=replace(gen.f, se=SEParams(2.0, theta)))
    profile = gsm_draw_profile(gen, 36, seed=18)
    model, _ = fit_gsm(profile, gen, OptConfig(max_iterations=20))
    for fitted, start in ((model.w, gen.w), (model.lam, gen.lam),
                          (model.f, gen.f)):
        assert same_bits(fitted.se.theta, start.se.theta)
        assert fitted.se.sigma2 != start.se.sigma2


def test_fit_gsm_rejects_nonfinite_start():
    gen = small_model(p=4, seed=19)
    profile = gsm_draw_profile(gen, 20, seed=20)
    bad = replace(gen, w=replace(gen.w, v=np.full(4, 800.0)))
    with pytest.raises(FitFailureError) as err:
        fit_gsm(profile, bad, OptConfig(max_iterations=5))
    assert str(err.value) == "GSM fit could not start: objective is not finite at the start point (-inf)"


def test_fit_gsm_stops_at_a_nonfinite_objective_with_its_best_iterate(monkeypatch):
    # as fit_gp does: the first step is rejected, and the fit returns its
    # start, the best finite iterate, in place of raising
    gen = small_model(p=4, seed=21, noise=0.05)
    profile = gsm_draw_profile(gen, 20, seed=22)
    obj = _GsmObjective(gen, _centered_dataset(profile)[0])
    refuse_the_second_factorization(monkeypatch)
    model, trace = fit_gsm(profile, gen, OptConfig(max_iterations=30))
    assert trace.termination == "nonfinite"
    assert trace.n_iterations == 1 and len(trace.objectives) == 1
    assert same_bits(obj.pack(model), obj.pack(obj.unpack(obj.pack(gen))))


# ---------------------------------------------------------------------------
# the prior-knowledge factory


def test_make_gsm_model_structure():
    g = make_grid(0.0, 0.01, 101)
    rng = np.random.default_rng(25)
    z = np.sin(2.0 * np.pi * g.points() / 0.2) + 0.01 * rng.standard_normal(101)
    profile = Profile(g, z, None)
    model = make_gsm_model(profile, n_latent=12, wavelength_left=0.2,
                           wavelength_right=0.4, noise0=1e-4)
    assert model.w.n == model.lam.n == model.f.n == 12
    assert model.f.scale == profile.grid.nyquist
    assert model.noise_sigma2 == 1e-4
    f_ends = latent_eval(model.f, np.array([g.points()[0], g.points()[-1]]))
    assert abs(f_ends[0] - 5.0) < 1e-6 * 5.0
    assert abs(f_ends[1] - 2.5) < 1e-6 * 2.5


def test_make_gsm_model_validation():
    g = make_grid(0.0, 0.01, 50)
    profile = Profile(g, np.sin(g.points()), None)
    with pytest.raises(ValueError):
        make_gsm_model(profile, n_latent=1)
    with pytest.raises(ValueError):
        make_gsm_model(profile, wavelength_left=-0.1, wavelength_right=0.2)
    with pytest.raises(ValueError):
        make_gsm_model(profile, init_rq=0.0)


@pytest.mark.parametrize("init_rq", [math.inf, math.nan, 1e155, 1e300])
def test_make_gsm_model_rejects_an_rq_whose_start_kernel_is_not_finite(init_rq):
    # w(x)^2 = Rq^2 is the start kernel's variance; the test session
    # turns any numpy RuntimeWarning into an error
    g = make_grid(0.0, 0.01, 50)
    profile = Profile(g, np.sin(g.points()), None)
    with pytest.raises(ValueError, match="finite"):
        make_gsm_model(profile, init_rq=init_rq)
    assert make_gsm_model(profile, init_rq=1e150).w.mean == math.log(1e150)


@pytest.mark.parametrize("wavelength", [math.inf, 1e-320])
@pytest.mark.parametrize("side", ["wavelength_left", "wavelength_right"])
def test_make_gsm_model_rejects_a_wavelength_whose_frequency_is_not_finite(side, wavelength):
    # 1 / inf = 0 and 1 / 1e-320 = inf; either made the start ramp warn
    g = make_grid(0.0, 0.01, 50)
    profile = Profile(g, np.sin(g.points()), None)
    with pytest.raises(ValueError, match="finite"):
        make_gsm_model(profile, **{side: wavelength})
