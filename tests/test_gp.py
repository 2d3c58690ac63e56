"""GP inference: likelihood, gradients, conditioning, sampling, imputation."""

import math

import numpy as np
import pytest
import scipy.stats

from surfimpute import (
    EmptyDatasetError,
    NoiseParams,
    NotPositiveDefiniteError,
    NothingToImputeError,
    OptConfig,
    Profile,
    SEParams,
    SMParams,
    build_cov,
    chol_jittered,
    estimate_noise_variance,
    fd_gradient,
    fit_se,
    fit_sm,
    impute,
    kernel_grad,
    log_marginal_likelihood,
    make_grid,
    mll_gradient,
    n_params,
    posterior,
    predictive_posterior,
    raw_vector,
    rq,
    sample_posterior,
    split_dataset,
    with_raw_vector,
)
from surfimpute.gp import GPModel, _GridMllObjective, _gaussian_core, _inverse_lower


def dataset_from(xa, za, xm=()):
    # assemble a dataset without a backing grid (inference only needs points)
    from surfimpute.profile import SurfaceDataset

    xa = np.asarray(xa, dtype=float)
    za = np.asarray(za, dtype=float)
    xm = np.asarray(xm, dtype=float)
    return SurfaceDataset(xa=xa, za=za, xm=xm,
                          idx_a=np.arange(len(xa)),
                          idx_m=np.arange(len(xm)))


def random_profile(seed, n=60, missing=0):
    rng = np.random.default_rng(seed)
    g = make_grid(0.0, 0.01, n)
    z = np.sin(2 * np.pi * g.points() / 0.15) + 0.05 * rng.standard_normal(n)
    valid = np.ones(n, dtype=bool)
    if missing:
        valid[rng.choice(n, size=missing, replace=False)] = False
    if valid.sum() == 0:
        valid[0] = True
    return Profile(g, z, valid)


# ---------------------------------------------------------------------------
# jittered factorization


def test_chol_exact_when_possible():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    fac, jitter = chol_jittered(a)
    assert jitter == 0.0
    assert np.max(np.abs(fac @ fac.T - a)) < 1e-12


def test_chol_escalates_jitter():
    # rank-1 matrix needs a positive jitter level
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)
    fac, jitter = chol_jittered(a)
    assert jitter > 0.0
    assert np.max(np.abs(fac @ fac.T - a)) <= 1e-4 * np.mean(np.diagonal(a)) + 1e-9
    # the jitter goes on a copy, and the factor is that of a + jitter * I
    assert np.array_equal(a, np.outer(v, v))
    assert np.array_equal(fac, np.linalg.cholesky(a + jitter * np.eye(3)))


def test_chol_gives_up_on_indefinite():
    a = np.array([[1.0, 0.0], [0.0, -5.0]])
    with pytest.raises(NotPositiveDefiniteError):
        chol_jittered(a)


# ---------------------------------------------------------------------------
# Gaussian core and potri inverse


def test_core_and_inverse_share_the_jittered_factor():
    # one eigenvalue slightly negative: only the last ladder rung factors it
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    a = q @ np.diag([1.0, 0.5, -2e-5]) @ q.T
    a = 0.5 * (a + a.T)
    y = np.array([0.3, -1.0, 2.0])
    fac, alpha, logdens = _gaussian_core(a, y)
    jitter = chol_jittered(a)[1]
    assert jitter == 1e-4 * np.mean(np.diagonal(a))
    jittered = a + jitter * np.eye(3)
    inv = _inverse_lower(fac)
    assert np.all(np.triu(inv, 1) == 0.0)
    inv += np.tril(inv, -1).T
    want = np.linalg.inv(jittered)
    assert np.max(np.abs(inv - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(alpha - want @ y)) <= 1e-10 * np.max(np.abs(alpha))
    ref = scipy.stats.multivariate_normal(np.zeros(3), jittered).logpdf(y)
    assert abs(logdens - ref) <= 1e-10 * abs(ref)


def test_inverse_of_a_singular_factor_raises():
    fac = np.linalg.cholesky(np.array([[4.0, 1.0], [1.0, 3.0]]))
    fac[1, 1] = 0.0
    with pytest.raises(NotPositiveDefiniteError):
        _inverse_lower(fac)


# ---------------------------------------------------------------------------
# marginal likelihood


def test_mll_matches_dense_logpdf():
    rng = np.random.default_rng(8)
    xa = np.sort(rng.uniform(0.0, 1.0, 5))
    za = rng.standard_normal(5)
    ds = dataset_from(xa, za)
    kernel = SEParams(1.5, 0.2)
    noise = NoiseParams("white", 0.1)
    got = log_marginal_likelihood(ds, kernel, noise)
    cov = build_cov(kernel, xa) + 0.1 * np.eye(5)
    want = scipy.stats.multivariate_normal(np.zeros(5), cov).logpdf(za)
    assert abs(got - want) < 1e-9


def test_mll_single_point_closed_form():
    ds = dataset_from([0.0], [1.0])
    got = log_marginal_likelihood(ds, SEParams(2.0, 1.0), NoiseParams("white", 0.5))
    var = 2.5
    want = -0.5 * (1.0 / var) - 0.5 * math.log(var) - 0.5 * math.log(2 * math.pi)
    assert abs(got - want) < 1e-12


def test_mll_reorder_invariant():
    rng = np.random.default_rng(9)
    xa = rng.uniform(0.0, 1.0, 12)
    za = rng.standard_normal(12)
    perm = rng.permutation(12)
    a = log_marginal_likelihood(dataset_from(xa, za), SEParams(1.0, 0.3),
                                NoiseParams("white", 0.05))
    b = log_marginal_likelihood(dataset_from(xa[perm], za[perm]),
                                SEParams(1.0, 0.3), NoiseParams("white", 0.05))
    assert abs(a - b) <= 1e-10 * abs(a)


def test_mll_gradient_zero_data_branch():
    xa = np.array([0.0, 0.5])
    ds = dataset_from(xa, np.zeros(2))
    kernel = SEParams(1.0, 0.5)
    noise = NoiseParams("white", 0.2)
    g = mll_gradient(ds, kernel, noise)
    a = build_cov(kernel, xa) + 0.2 * np.eye(2)
    ainv = np.linalg.inv(a)
    for i in range(2):
        want = -0.5 * np.sum(ainv * kernel_grad(kernel, xa, i))
        assert abs(g[i] - want) < 1e-10


def test_mll_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    xa = np.sort(rng.uniform(0.0, 2.0, 30))
    za = np.sin(8.0 * xa) + 0.1 * rng.standard_normal(30)
    ds = dataset_from(xa, za)
    # lengthscales kept short so the training matrix stays well away
    # from singular; finite differences are meaningless on a cliff
    cases = [
        (SEParams(1.0, 0.3), NoiseParams("white", 0.05)),
        (SMParams([1.0, 0.5], [2.0, 5.0], [0.5, 2.0]), NoiseParams("white", 0.02)),
        (SEParams(1.0, 0.12), NoiseParams("colored", 0.1, 0.02)),
    ]
    for kernel, noise in cases:
        nk, nn = n_params(kernel), n_params(noise)
        raw0 = np.concatenate([raw_vector(kernel), raw_vector(noise)])

        def mll_at(vec):
            k = with_raw_vector(kernel, vec[:nk])
            w = with_raw_vector(noise, vec[nk:])
            return log_marginal_likelihood(ds, k, w)

        fd = fd_gradient(mll_at, raw0)
        an = mll_gradient(ds, kernel, noise)
        scale = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(an - fd) / scale) < 1e-5


# ---------------------------------------------------------------------------
# posterior conditioning


def test_posterior_reproduces_noise_free_point():
    ds = dataset_from([0.0], [1.0])
    p = posterior(ds, SEParams(1.0, 1.0), NoiseParams("white", 0.0), [0.0])
    assert abs(p.mean[0] - 1.0) < 1e-9
    assert p.cov[0, 0] <= 1e-10


def test_posterior_one_point_closed_form():
    ds = dataset_from([0.0], [1.0])
    p = posterior(ds, SEParams(1.0, 1.0), NoiseParams("white", 0.0), [1.0])
    assert abs(p.mean[0] - math.exp(-0.5)) < 1e-12
    assert abs(p.cov[0, 0] - (1.0 - math.exp(-1.0))) < 1e-12


def test_posterior_decorrelation_limit():
    ds = dataset_from([0.0], [1.0])
    p = posterior(ds, SEParams(1.0, 1.0), NoiseParams("white", 0.0), [25.0])
    assert abs(p.mean[0]) < 1e-6
    assert abs(p.cov[0, 0] - 1.0) < 1e-6


def test_posterior_variance_never_exceeds_prior():
    rng = np.random.default_rng(12)
    xa = np.sort(rng.uniform(0.0, 1.0, 20))
    za = rng.standard_normal(20)
    xm = rng.uniform(0.0, 1.0, 15)
    kernel = SMParams([1.0], [4.0], [1.0])
    p = posterior(dataset_from(xa, za), kernel, NoiseParams("white", 0.1), xm)
    prior_diag = np.diagonal(build_cov(kernel, xm))
    assert np.all(np.diagonal(p.cov) <= prior_diag + 1e-8)


def test_posterior_mean_reproduces_training_data():
    rng = np.random.default_rng(13)
    xa = np.sort(rng.uniform(0.0, 1.0, 25))
    za = np.sin(7.0 * xa)
    ds = dataset_from(xa, za)
    p = posterior(ds, SEParams(1.0, 0.2), NoiseParams("white", 1e-12), xa)
    g = make_grid(0.0, 1.0 / 25.0, 25)
    scale = rq(Profile(g, za, None))
    assert np.max(np.abs(p.mean - za)) < 1e-6 * scale


def test_predictive_adds_noise_floor():
    rng = np.random.default_rng(14)
    xa = np.sort(rng.uniform(0.0, 1.0, 30))
    za = np.sin(6.0 * xa) + 0.05 * rng.standard_normal(30)
    ds = dataset_from(xa, za)
    kernel = SEParams(1.0, 0.15)
    noise = NoiseParams("white", 0.04)
    xm = np.linspace(0.05, 0.95, 7)
    lat = posterior(ds, kernel, noise, xm)
    pred = predictive_posterior(ds, kernel, noise, xm)
    # same mean (white noise has no cross-covariance off the training set)
    assert np.array_equal(lat.mean, pred.mean)
    assert np.max(np.abs((pred.cov - lat.cov) - 0.04 * np.eye(7))) < 1e-12
    assert np.all(np.diagonal(pred.cov) >= 0.04 - 1e-12)


def test_posterior_empty_queries():
    ds = dataset_from([0.0], [1.0])
    p = posterior(ds, SEParams(1.0, 1.0), NoiseParams("white", 0.0), [])
    assert p.mean.shape == (0,) and p.cov.shape == (0, 0)


# ---------------------------------------------------------------------------
# posterior sampling


def test_sampling_deterministic():
    p = posterior(dataset_from([0.0, 1.0], [0.0, 1.0]), SEParams(1.0, 0.5),
                  NoiseParams("white", 0.01), [0.25, 0.5, 0.75])
    a = sample_posterior(p, seed=7, count=3)
    b = sample_posterior(p, seed=7, count=3)
    assert np.array_equal(a, b)
    c = sample_posterior(p, seed=8, count=3)
    assert not np.array_equal(a, c)


def test_sampling_degenerate_covariance():
    from surfimpute.gp import PosteriorGaussian

    p = PosteriorGaussian(np.array([2.0, -1.0]), np.zeros((2, 2)))
    draws = sample_posterior(p, seed=1, count=5)
    # jitter floor is 1e-10, so draws sit within ~1e-5 of the mean
    assert np.max(np.abs(draws - p.mean[None, :])) < 1e-4


def test_sampling_monte_carlo_statistics():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((3, 3))
    cov = m @ m.T + 0.5 * np.eye(3)
    mean = rng.standard_normal(3)
    from surfimpute.gp import PosteriorGaussian

    p = PosteriorGaussian(mean, cov)
    draws = sample_posterior(p, seed=123, count=10000)
    emp_mean = draws.mean(axis=0)
    se = np.sqrt(np.diagonal(cov) / 10000.0)
    assert np.all(np.abs(emp_mean - mean) <= 4.0 * se)
    emp_cov = np.cov(draws.T, bias=True)
    rel = np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov)
    assert rel < 0.10


# ---------------------------------------------------------------------------
# imputation contract


def test_impute_keeps_valid_bitwise_and_completes():
    prof = random_profile(21, n=80, missing=12)
    model = GPModel(SEParams(1.0, 0.05), NoiseParams("white", 0.01))
    result = impute(prof, model, seed=5)
    out = result.profile
    assert np.all(out.valid)
    assert np.array_equal(out.z[prof.valid], prof.z[prof.valid])
    assert len(result.xm) == prof.n_missing
    assert np.all(result.lo95 <= result.hi95)
    assert np.all(result.post_mean >= result.lo95)
    assert np.all(result.post_mean <= result.hi95)


def test_impute_deterministic_in_seed():
    prof = random_profile(22, n=60, missing=9)
    model = GPModel(SEParams(1.0, 0.05), NoiseParams("white", 0.01))
    a = impute(prof, model, seed=3)
    b = impute(prof, model, seed=3)
    assert np.array_equal(a.profile.z, b.profile.z)
    c = impute(prof, model, seed=4)
    assert not np.array_equal(a.profile.z, c.profile.z)


def test_impute_single_gap_near_zero_noise():
    g = make_grid(0.0, 0.1, 9)
    z = np.sin(g.points())
    valid = np.ones(9, dtype=bool)
    valid[4] = True  # keep all, then mask one interior point
    valid[4] = False
    prof = Profile(g, np.where(valid, z, np.nan), valid)
    model = GPModel(SEParams(1.0, 0.3), NoiseParams("white", 1e-10))
    result = impute(prof, model, seed=1)
    assert result.lo95[0] <= result.post_mean[0] <= result.hi95[0]
    # smooth model, tiny noise: the fill hugs the local trend
    assert abs(result.profile.z[4] - z[4]) < 0.05


def test_impute_errors():
    g = make_grid(0.0, 1.0, 4)
    complete = Profile(g, np.zeros(4), None)
    model = GPModel(SEParams(1.0, 1.0), NoiseParams("white", 0.01))
    with pytest.raises(NothingToImputeError):
        impute(complete, model, seed=1)
    sparse = Profile(
        g,
        np.array([1.0, math.nan, math.nan, math.nan]),
        np.array([True, False, False, False]),
    )
    with pytest.raises(EmptyDatasetError):
        impute(sparse, model, seed=1)


def test_impute_interval_carries_noise_floor():
    # intervals from the predictive law never collapse at the noise level
    prof = random_profile(23, n=80, missing=10)
    sigma2 = 0.09
    model = GPModel(SEParams(1.0, 0.05), NoiseParams("white", sigma2))
    result = impute(prof, model, seed=2)
    half = 0.5 * (result.hi95 - result.lo95)
    z95 = scipy.stats.norm.ppf(0.975)
    assert np.all(half >= z95 * math.sqrt(sigma2) - 1e-9)


# ---------------------------------------------------------------------------
# noise estimation and fitting


def test_noise_estimate_recovers_white_level():
    rng = np.random.default_rng(30)
    g = make_grid(0.0, 0.002, 1500)
    smooth = np.sin(2 * np.pi * g.points() / 0.5)
    sigma = 0.05
    z = smooth + sigma * rng.standard_normal(g.n)
    est = estimate_noise_variance(Profile(g, z, None))
    assert 0.5 * sigma**2 < est < 2.0 * sigma**2


@pytest.mark.parametrize("case", ["random_mask", "masked_ends", "colored_noise"])
def test_grid_objective_agrees_with_dense_mll(case):
    prof = random_profile(31, n=50, missing=6)
    noise = NoiseParams("white", 0.03)
    if case == "masked_ends":
        # idx_a[0] > 0: alpha sits on the grid at an offset
        valid = prof.valid.copy()
        valid[:3] = valid[-4:] = False
        prof = Profile(prof.grid, prof.z, valid)
    elif case == "colored_noise":
        # correlation length below the grid step keeps A well conditioned
        noise = NoiseParams("colored", 0.03, 0.005)
    ds = split_dataset(prof)
    kernel = SMParams([0.8, 0.3], [5.0, 11.0], [1.0, 4.0])
    obj = _GridMllObjective(ds, prof.dx, kernel, noise)
    raw = np.concatenate([raw_vector(kernel), raw_vector(noise)])
    val, grad = obj(raw)
    assert abs(val - log_marginal_likelihood(ds, kernel, noise)) < 1e-9
    an = mll_gradient(ds, kernel, noise)
    assert np.max(np.abs(grad - an)) < 1e-9


def test_fit_se_improves_likelihood():
    prof = random_profile(33, n=60, missing=8)
    cfg = OptConfig(max_iterations=60)
    model, trace, _ = fit_se(prof, config=cfg)
    assert isinstance(model.kernel, SEParams)
    assert max(trace.objectives) >= trace.objectives[0]


def test_fit_sm_initialization_uses_texture_statistics():
    prof = random_profile(34, n=120, missing=0)
    from surfimpute.gp import sm_initial_kernel

    kernel = sm_initial_kernel(prof, q=5)
    assert kernel.q == 5
    r = rq(prof)
    assert abs(kernel.weights[0] - r * r) < 1e-9
    from surfimpute import rsm

    f0 = 1.0 / rsm(prof)
    assert abs(kernel.freqs[0] - f0) < 1e-9
    # harmonics ride above the fundamental
    assert np.all(np.diff(kernel.freqs) > 0)


def test_fit_sm_runs_and_returns_valid_model():
    prof = random_profile(35, n=90, missing=10)
    cfg = OptConfig(max_iterations=40)
    model, trace, traces = fit_sm(prof, q=2, config=cfg, n_restarts=2)
    assert model.kernel.q == 2
    assert model.noise.sigma2 > 0
    assert np.isfinite(max(trace.objectives))
    assert len(traces) == 2
    assert trace.best_so_far()[-1] == max(t.best_so_far()[-1] for t in traces)
