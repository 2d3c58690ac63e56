"""GP inference: likelihood, gradients, conditioning, sampling, imputation."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from surfimpute import (
    EmptyDatasetError,
    FitFailureError,
    InsufficientFeaturesError,
    NoProfileElementsError,
    NotPositiveDefiniteError,
    NothingToImputeError,
    OptConfig,
    Profile,
    fit_se,
    fit_sm,
    impute,
    make_grid,
    rq,
)
from surfimpute import _lapack, gp, gsm, synthesis
from surfimpute.gp import (
    GPModel,
    _GridMllObjective,
    _gaussian_core,
    _grid_predictive,
    _inverse_lower,
    _lag_index,
    _lag_terms,
    chol_jittered,
    estimate_noise_variance,
    predictive_posterior,
    sample_posterior,
)
from surfimpute.kernels import (
    NoiseParams,
    PeriodicParams,
    SEParams,
    SMParams,
    build_cov,
    n_params,
    raw_vector,
    with_raw_vector,
)
from surfimpute.optimize import maximize
from surfimpute.profile import SurfaceDataset, split_dataset

from oracles import (
    fd_gradient,
    kernel_grad,
    log_marginal_likelihood,
    mll_gradient,
    posterior,
    refuse_the_second_factorization,
    training_matrix,
)


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
    u, info = scipy.linalg.lapack.dpotrf((a + jitter * np.eye(3)).T, lower=0, clean=1)
    assert info == 0 and np.array_equal(fac, u.T)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rank_one", [False, True])
def test_chol_factor_is_c_ordered_lower_with_zero_upper(order, rank_one):
    # _inverse_lower (it inverts fac^T in place) and the GSM objective's
    # mirror step rely on a C-ordered factor whose strict upper triangle
    # is exactly zero
    rng = np.random.default_rng(6)
    b = rng.standard_normal((7, 7))
    v = rng.standard_normal(7)
    a = np.outer(v, v) if rank_one else b @ b.T + 7.0 * np.eye(7)
    a = np.asarray(a, order=order)
    before = a.copy()
    fac, jitter = chol_jittered(a)
    # the ladder escalates on the rank-one matrix only
    assert (jitter > 0.0) == rank_one
    assert fac.flags.c_contiguous
    assert np.all(np.triu(fac, 1) == 0.0)
    assert np.all(np.diagonal(fac) > 0.0)
    assert np.max(np.abs(fac @ fac.T - a - jitter * np.eye(7))) <= 1e-12 * np.max(np.abs(a))
    assert np.array_equal(a, before)


def test_chol_gives_up_on_indefinite():
    a = np.array([[1.0, 0.0], [0.0, -5.0]])
    with pytest.raises(NotPositiveDefiniteError):
        chol_jittered(a)


@pytest.mark.parametrize("n", [3, 65, 257])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["off-diagonal", "diagonal"])
def test_chol_refuses_a_lower_triangle_that_is_not_finite(n, bad, where, monkeypatch):
    # potrf reports success on a NaN and returns a NaN factor, and a
    # non-finite mean diagonal would make the jitter itself non-finite;
    # an infinity below the diagonal fails a pivot or becomes a NaN.
    # either way the first factorization names it and no jitter rung
    # runs (off-diagonal-inf-3 would fail its pivot on every rung)
    rng = np.random.default_rng([n, where == "diagonal"])
    b = rng.standard_normal((n, n))
    a = b @ b.T / n + np.eye(n)
    i = int(rng.integers(1, n))
    j = int(rng.integers(0, i)) if where == "off-diagonal" else i
    a[i, j] = bad  # in the lower triangle, the one LAPACK reads
    calls = []
    potrf = _lapack.dpotrf

    def counting_potrf(*args, **kwargs):
        calls.append(args[0].shape)
        return potrf(*args, **kwargs)

    # the library calls potrf through its routine table
    monkeypatch.setattr(_lapack, "dpotrf", counting_potrf)
    with pytest.raises(NotPositiveDefiniteError, match="not finite"):
        chol_jittered(a)
    assert len(calls) == (1 if where == "off-diagonal" else 0)


def test_chol_scales_the_jitter_of_a_diagonal_whose_mean_overflows():
    # 35 diagonal entries near 1e308 sum to inf; the matrix is finite
    # and factors at the first jitter rung, as it does at 1e300
    data = split_dataset(Profile(make_grid(0.0, 0.01, 35), np.zeros(35), None))
    noise = NoiseParams("white", 0.1)
    for sigma2 in (1e300, 1e308):
        a = training_matrix(data, SEParams(sigma2, 0.05), noise)
        assert np.all(np.isfinite(a))
        fac, jitter = chol_jittered(a)
        assert jitter == 1e-10 * float(np.sum(np.diagonal(a) / 35))
        assert np.all(np.isfinite(fac))
        assert math.isfinite(log_marginal_likelihood(data, SEParams(sigma2, 0.05), noise))


def test_a_covariance_that_is_not_finite_raises_where_it_is_factored():
    prof = random_profile(41, n=40, missing=5)
    kernel = SEParams(1.0, 0.1)
    with np.errstate(over="ignore"):
        noise = with_raw_vector(NoiseParams("white", 0.01), [800.0])
    assert noise.sigma2 == math.inf
    with pytest.raises(NotPositiveDefiniteError):
        log_marginal_likelihood(split_dataset(prof), kernel, noise)
    with pytest.raises(NotPositiveDefiniteError):
        impute(prof, GPModel(kernel, noise), seed=1)


# ---------------------------------------------------------------------------
# Gaussian core and the blocked inverse


LEAF = gp._TRTRI_LEAF


def potri_inverse(fac):
    """The oracle of _inverse_lower: LAPACK potri on fac^T in place."""
    inv, info = scipy.linalg.lapack.dpotri(fac.T, lower=0, overwrite_c=1)
    assert info == 0
    return inv.T


def spd_factor(n, seed):
    """Lower Cholesky factor of a well-conditioned SPD matrix."""
    b = np.random.default_rng(seed).standard_normal((n, n))
    return np.linalg.cholesky(b @ b.T / n + np.eye(n))


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


def test_gaussian_core_of_an_empty_system_is_the_empty_density():
    fac, alpha, logdens = _gaussian_core(np.zeros((0, 0)), np.zeros(0))
    assert fac.shape == (0, 0) and alpha.shape == (0,) and logdens == 0.0


def test_gradient_of_an_empty_dataset_is_zero_and_lapack_stays_quiet(capfd):
    ds = dataset_from([], [])
    kernel, noise = SEParams(1.0, 0.1), NoiseParams("white", 0.01)
    assert log_marginal_likelihood(ds, kernel, noise) == 0.0
    assert np.array_equal(mll_gradient(ds, kernel, noise), np.zeros(3))
    # LAPACK reports an illegal argument on stderr before it returns
    assert "On entry to" not in capfd.readouterr().err


def test_inverse_of_a_singular_factor_raises():
    fac = np.linalg.cholesky(np.array([[4.0, 1.0], [1.0, 3.0]]))
    fac[1, 1] = 0.0
    with pytest.raises(NotPositiveDefiniteError):
        _inverse_lower(fac)


@pytest.mark.parametrize("n", [1, 2, LEAF, LEAF + 1, 2 * LEAF + 1, 174, 261, 934])
def test_inverse_matches_the_potri_oracle_in_the_factors_memory(n):
    fac = spd_factor(n, n)
    want = potri_inverse(fac.copy())
    inv = _inverse_lower(fac)
    assert np.shares_memory(inv, fac)
    assert np.all(np.triu(inv, 1) == 0.0)
    assert np.max(np.abs(inv - want)) <= 1e-12 * np.max(np.abs(want))


def test_inverse_up_to_the_leaf_size_is_potri_bitwise():
    # a leaf is trtri + lauum, the two halves of potri
    for n in range(1, LEAF + 1):
        fac = spd_factor(n, n)
        want = potri_inverse(fac.copy())
        assert np.array_equal(_inverse_lower(fac), want)


@pytest.mark.parametrize("rows", [(5,), (200,), (260,), (200, 5)],
                         ids=["first-half", "second-half", "last-row", "two"])
def test_inverse_names_the_first_zero_pivot_as_potri_does(rows):
    # n = 261 recurses to leaves of 32 and 33 rows
    fac = spd_factor(261, 7)
    for r in rows:
        fac[r, r] = 0.0
    _, info = scipy.linalg.lapack.dpotri(fac.T.copy(order="F"), lower=0)
    assert info == min(rows) + 1
    with pytest.raises(NotPositiveDefiniteError, match=f"at pivot {info}$"):
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


def test_predictive_with_colored_noise_matches_dense_conditioning():
    # the fill path: colored noise also correlates the query heights with
    # the valid ones, so the cross block carries the noise covariance too
    rng = np.random.default_rng(15)
    xa = np.sort(rng.choice(np.linspace(0.0, 1.0, 41), 30, replace=False))
    za = np.sin(6.0 * xa) + 0.05 * rng.standard_normal(30)
    ds = dataset_from(xa, za)
    kernel = SEParams(1.0, 0.15)
    noise = NoiseParams("colored", 0.04, 0.03)
    xm = np.linspace(0.0125, 0.9875, 7)
    pred = predictive_posterior(ds, kernel, noise, xm)

    def cov(xs, ys):
        return build_cov(kernel, xs, ys) + build_cov(noise, xs, ys)

    a, c_ma = cov(xa, xa), cov(xm, xa)
    mean = c_ma @ np.linalg.solve(a, za)
    want = cov(xm, xm) - c_ma @ np.linalg.solve(a, c_ma.T)
    assert np.max(np.abs(pred.mean - mean)) < 1e-10
    assert np.max(np.abs(pred.cov - want)) < 1e-10
    assert np.array_equal(pred.cov, pred.cov.T)


def test_posterior_empty_queries():
    ds = dataset_from([0.0], [1.0])
    p = predictive_posterior(ds, SEParams(1.0, 1.0), NoiseParams("white", 0.0), [])
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


def bench_turned_objective(seed):
    """The SM grid objective of the first profile of the benchmark's
    turned workload at ``seed``, and its start point: the narrowest dale
    masked after pruning at half the largest dale volume, with a masked
    share of 10-20 %."""
    for s in range(1000 * seed, 1000 * seed + 1000):
        truth = synthesis.simulate_turned(synthesis.TurnedSimConfig(n=300), s)
        dales = synthesis.watershed_dales(truth)
        threshold = 0.5 * max(d.volume for d in dales)
        try:
            masked = synthesis.mask_smallest_width_dales(truth, 1, threshold)
        except InsufficientFeaturesError:
            continue
        if 0.10 <= np.mean(~masked.valid) <= 0.20:
            break
    kernel = gp.sm_initial_kernel(masked, q=5)
    noise = NoiseParams("white", estimate_noise_variance(masked))
    centered, _ = gp._centered_dataset(masked)
    obj = _GridMllObjective(centered, masked.dx, kernel, noise)
    return obj, np.concatenate([raw_vector(kernel), raw_vector(noise)])


@pytest.mark.parametrize("seed", [3, 4])
def test_grid_objective_agrees_with_the_potri_inverse_at_the_bench_turned_input(
        seed, monkeypatch):
    obj, x0 = bench_turned_objective(seed)
    assert len(obj.za) > 2 * LEAF + 1
    rng = np.random.default_rng(seed)
    points = [x0] + [x0 + 0.05 * rng.standard_normal(len(x0)) for _ in range(3)]
    got = [obj(x) for x in points]
    monkeypatch.setattr(gp, "_inverse_lower", potri_inverse)
    for (value, grad), x in zip(got, points):
        want_value, want_grad = obj(x)
        assert np.isfinite(value)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert np.max(np.abs(grad - want_grad)) <= 1e-10 * np.max(np.abs(want_grad))


def test_grid_objective_buffers_carry_no_state_between_calls():
    # the objective gathers A and the triangle of A^-1 into buffers it
    # owns; a call after a rejected point must equal a fresh objective's
    prof = random_profile(32, n=50, missing=6)
    ds = split_dataset(prof)
    kernel = SMParams([0.8, 0.3], [5.0, 11.0], [1.0, 4.0])
    noise = NoiseParams("white", 0.03)
    obj = _GridMllObjective(ds, prof.dx, kernel, noise)
    x1 = np.concatenate([raw_vector(kernel), raw_vector(noise)])
    x2 = x1 + 0.1 * np.random.default_rng(33).standard_normal(len(x1))
    v1, g1 = obj(x1)
    kept = g1.copy()
    bad = x1.copy()
    bad[-1] = 800.0  # infinite noise variance
    v_bad, g_bad = obj(bad)
    assert v_bad == -np.inf and np.array_equal(g_bad, np.zeros_like(bad))
    v2, g2 = obj(x2)
    v1_again, g1_again = obj(x1)
    for x, v, g in ((x1, v1, g1), (x2, v2, g2), (x1, v1_again, g1_again)):
        v_fresh, g_fresh = _GridMllObjective(ds, prof.dx, kernel, noise)(x)
        assert v == v_fresh and np.array_equal(g.view(np.uint64), g_fresh.view(np.uint64))
    assert np.array_equal(g1.view(np.uint64), kept.view(np.uint64))


def _shared_guard_case(kind):
    """One objective of each fit on the same 50-point profile, its start
    vector, the module whose ``_inverse_lower`` it calls, and the
    coordinates whose overflow makes its covariance not finite."""
    prof = random_profile(32, n=50, missing=6)
    ds, _ = gp._centered_dataset(prof)
    if kind == "grid":
        kernel = SMParams([0.8, 0.3], [5.0, 11.0], [1.0, 4.0])
        noise = NoiseParams("white", 0.03)
        obj = _GridMllObjective(ds, prof.dx, kernel, noise)
        x = np.concatenate([raw_vector(kernel), raw_vector(noise)])
        return obj, x, gp, (slice(0, 1), slice(-1, None))  # a weight, the noise
    model0 = gsm.make_gsm_model(prof, n_latent=6)
    obj = gsm._GsmObjective(model0, ds)
    return obj, obj.pack(model0), gsm, (slice(0, 6),)  # the weight latent


@pytest.mark.parametrize("kind", ["grid", "gsm"])
def test_objectives_share_one_rejection_guard(kind, monkeypatch):
    # gp._rejecting_failures turns each of these points into exactly
    # (-inf, zeros), for both objectives alike
    obj, x, module, overflows = _shared_guard_case(kind)
    assert np.isfinite(obj(x)[0])
    evaluated, rejected = [], []
    with monkeypatch.context() as patch:
        patch.setattr(obj, "_evaluate", lambda raw: evaluated.append(raw))
        for index, value in ((0, math.nan), (-1, math.inf)):
            bad = x.copy()
            bad[index] = value
            rejected.append(obj(bad))
    assert not evaluated  # the guard rejects a non-finite coordinate itself
    for index in overflows:
        bad = x.copy()
        bad[index] = 800.0  # a covariance that is not finite, which chol_jittered refuses
        rejected.append(obj(bad))

    def fails(exc):
        def chol(a):
            raise exc("refused")
        return chol

    for exc in (NotPositiveDefiniteError, np.linalg.LinAlgError):
        with monkeypatch.context() as patch:
            patch.setattr(gp, "chol_jittered", fails(exc))
            rejected.append(obj(x))

    # a NaN inverse leaves the value finite and makes the gradient NaN
    with monkeypatch.context() as patch:
        patch.setattr(module, "_inverse_lower", lambda fac: np.full_like(fac, math.nan))
        with np.errstate(invalid="ignore"):
            value, grad = obj._evaluate(x)
        assert np.isfinite(value) and not np.all(np.isfinite(grad))
        rejected.append(obj(x))

    assert len(rejected) == 5 + len(overflows)
    for value, grad in rejected:
        assert value == -np.inf
        assert type(grad) is np.ndarray and np.array_equal(grad, np.zeros(len(x)))
    # a vector of the wrong length is a fault, not a rejected point
    for wrong in (np.append(x, 0.0), x[:-1], np.append(x, math.nan)):
        with pytest.raises(ValueError, match=f"expected {len(x)} coordinates"):
            obj(wrong)


def test_grid_objective_rejects_what_the_parameter_classes_reject(monkeypatch):
    # raw log -800 underflows to a zero weight or lengthscale, which the
    # parameter classes refuse; the objective rejects the point instead
    prof = random_profile(32, n=50, missing=6)
    ds = split_dataset(prof)
    noise = NoiseParams("white", 0.03)
    sm = SMParams([0.8, 0.3], [5.0, 11.0], [1.0, 4.0])
    se = SEParams(100.0, 0.05)
    for kernel, index in ((sm, 0), (se, 1)):
        obj = _GridMllObjective(ds, prof.dx, kernel, noise)
        bad = np.concatenate([raw_vector(kernel), raw_vector(noise)])
        bad[index] = -800.0
        value, grad = obj(bad)
        assert value == -np.inf
        assert np.array_equal(grad, np.zeros(len(bad)))
        # a vector of the wrong length is a fault, not a rejected point
        with pytest.raises(ValueError, match="coordinates"):
            obj(np.append(bad, 0.0))

    # a fit stops at its first rejected point and keeps its start
    obj = _GridMllObjective(ds, prof.dx, se, noise)
    x0 = np.concatenate([raw_vector(se), raw_vector(noise)])
    refuse_the_second_factorization(monkeypatch)
    x, trace = maximize(obj, x0, OptConfig(max_iterations=5))
    assert trace.termination == "nonfinite"
    assert trace.n_iterations == 1 and len(trace.objectives) == 1
    assert np.array_equal(x, x0)


# ---------------------------------------------------------------------------
# imputation from the per-lag table


def fill_like_profile(seed, n=300):
    # the bench fill workload's input at a smaller size: periodic draw
    # with coloured noise and no white nugget, about a third masked
    config = synthesis.TurnedSimConfig(n=n)
    truth = synthesis.simulate_turned(config, seed)
    valid = np.ones(n, dtype=bool)
    rng = np.random.default_rng(seed)
    for start in rng.choice(n - 20, size=6, replace=False):
        valid[start : start + 16] = False
    model = GPModel(PeriodicParams(config.sigma2, config.theta, config.period),
                    NoiseParams("colored", config.noise_sigma2, config.noise_theta))
    return Profile(truth.grid, np.where(valid, truth.z, np.nan), valid), model


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("case", ["se_white", "sm_white", "periodic_colored"])
def test_impute_matches_dense_predictive_posterior(case):
    if case == "periodic_colored":
        prof, model = fill_like_profile(40)
    else:
        prof = random_profile(41, n=120, missing=30)
        kernel = (SEParams(1.0, 0.05) if case == "se_white"
                  else SMParams([0.8, 0.3], [5.0, 11.0], [1.0, 4.0]))
        model = GPModel(kernel, NoiseParams("white", 0.01))
    ds = split_dataset(prof)
    offset = float(np.mean(ds.za))
    centered = SurfaceDataset(ds.xa, ds.za - offset, ds.xm, ds.idx_a, ds.idx_m)
    want = predictive_posterior(centered, model.kernel, model.noise, ds.xm)
    got = _grid_predictive(prof, centered, model)
    assert relative_gap(got.cov, want.cov) <= 1e-10
    result = impute(prof, model, seed=7)
    lo, hi = want.interval95()
    assert relative_gap(result.post_mean, want.mean + offset) <= 1e-10
    assert relative_gap(result.lo95, lo + offset) <= 1e-10
    assert relative_gap(result.hi95, hi + offset) <= 1e-10


@st.composite
def stationary_models(draw):
    sigma2 = draw(st.floats(0.1, 10.0))
    theta = draw(st.floats(0.005, 0.5))
    which = draw(st.sampled_from(["se", "periodic", "sm"]))
    if which == "se":
        kernel = SEParams(sigma2, theta)
    elif which == "periodic":
        kernel = PeriodicParams(sigma2, theta, draw(st.floats(0.02, 1.0)))
    else:
        q = draw(st.integers(1, 3))
        kernel = SMParams([sigma2 / (q + i) for i in range(q)],
                          [draw(st.floats(0.0, 40.0)) for _ in range(q)],
                          [draw(st.floats(0.0, 400.0)) for _ in range(q)])
    if draw(st.booleans()):
        noise = NoiseParams("white", draw(st.floats(0.0, 1.0)))
    else:
        noise = NoiseParams("colored", draw(st.floats(0.0, 1.0)), draw(st.floats(0.001, 0.1)))
    return kernel, noise


@settings(max_examples=60, deadline=None)
@given(model=stationary_models(), n=st.integers(2, 40),
       x0=st.floats(-5.0, 5.0), dx=st.floats(1e-3, 0.05), data=st.data())
def test_lag_table_gather_equals_dense_build(model, n, x0, dx, data):
    kernel, noise = model
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    cols = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    x = make_grid(x0, dx, n).points()
    table, _ = _lag_terms(kernel, noise, np.arange(n, dtype=float) * dx)
    same = np.take(table, _lag_index(rows))
    want = build_cov(kernel, x[rows]) + build_cov(noise, x[rows])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(same - want)) <= 1e-12 * scale
    assert np.array_equal(same, same.T)
    assert np.min(np.linalg.eigvalsh(same)) >= -1e-12 * len(rows) * scale
    # across two sets white noise counts only where positions coincide.
    # The bound scales with the lag-0 value, as the same-set one does: far
    # in the kernel's tail, rounding of the abscissas alone moves a cross
    # entry by more than 1e-12 of the cross block's own maximum
    cross = np.take(table, _lag_index(rows, cols))
    want = build_cov(kernel, x[rows], x[cols]) + build_cov(noise, x[rows], x[cols])
    assert np.max(np.abs(cross - want)) <= 1e-12 * table[0]


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


@pytest.mark.parametrize("scales", [
    {"init_rsm": 1e-300}, {"init_rsm": math.inf}, {"init_rsm": math.nan},
    {"init_rq": math.inf}, {"init_rq": 1e200}, {"init_rq": math.nan},
], ids=["rsm-tiny", "rsm-inf", "rsm-nan", "rq-inf", "rq-huge", "rq-nan"])
def test_sm_initial_kernel_rejects_scales_whose_start_kernel_is_not_finite(scales):
    # 1e-300 mm puts the frequency variances at 2.5e597 /mm^2 and 1e200 um
    # the weight at 1e400 um^2; the test session turns any numpy
    # RuntimeWarning, such as the overflow in squaring, into an error
    prof = random_profile(34, n=120, missing=0)
    with pytest.raises(ValueError, match="finite"):
        gp.sm_initial_kernel(prof, q=1, **scales)
    assert np.isfinite(gp.sm_initial_kernel(prof, q=1, init_rsm=1e-150).freq_vars[0])


def _start_rsm(fit, profile, **prior):
    """The start Rsm (mm) of one fit.  Run with ``gp.fit_gp`` patched to
    return its start kernel, fit_sm and fit_se optimize nothing."""
    if fit == "gsm":  # the lengthscale latent starts at the flat ramp's wavelength
        return math.exp(gsm.make_gsm_model(profile, n_latent=4, **prior).lam.mean)
    if fit == "se":
        return 4.0 * fit_se(profile).theta
    return 1.0 / fit_sm(profile, q=1, **prior).freqs[0]


@pytest.mark.parametrize("case, fit", [
    (case, fit) for case in ("one-crossing", "flat", "bad-prior", "huge", "tiny")
    for fit in ("sm", "se", "gsm") if (case, fit) != ("bad-prior", "se")  # se takes no prior
])
def test_every_fit_starts_and_refuses_alike(monkeypatch, case, fit):
    monkeypatch.setattr(gp, "fit_gp", lambda profile, kernel0, *args, **kwargs: kernel0)
    g = make_grid(0.0, 0.01, 40)
    x = g.points()
    wave = np.sin(2 * np.pi * x / 0.1)
    z = {"one-crossing": x, "flat": np.ones(40), "bad-prior": wave, "huge": 1e160 * wave,
         "tiny": 1e-155 * wave}
    profile = Profile(g, z[case], None)
    if case == "one-crossing":  # a ramp has no Rsm: start at a tenth of the span
        assert _start_rsm(fit, profile) == pytest.approx(0.039, rel=1e-12)
    elif case == "flat":
        with pytest.raises(NoProfileElementsError, match="^the profile is flat: its Rq is 0$"):
            _start_rsm(fit, profile)
    elif case == "bad-prior":
        for init_rq in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError,
                               match="^Rsm and Rq scales must be positive and finite$"):
                _start_rsm(fit, profile, init_rq=init_rq)
        # a prior whose square is subnormal or 0
        for init_rq in (1e-155, 1e-170):
            with pytest.raises(ValueError, match="start kernel variance that underflows$"):
                _start_rsm(fit, profile, init_rq=init_rq)
    elif case == "tiny":  # Rq^2 is subnormal
        with pytest.raises(FitFailureError,
                           match="fit could not start: the height variance underflows$"):
            _start_rsm(fit, profile)
    else:  # the session turns the overflow's RuntimeWarning into an error
        with pytest.raises(FitFailureError,
                           match="fit could not start: the height variance overflows$"):
            _start_rsm(fit, profile)


def test_fit_sm_runs_and_returns_valid_model():
    prof = random_profile(35, n=90, missing=10)
    cfg = OptConfig(max_iterations=40)
    model, trace, traces = fit_sm(prof, q=2, config=cfg, n_restarts=2)
    assert model.kernel.q == 2
    assert model.noise.sigma2 > 0
    assert np.isfinite(max(trace.objectives))
    assert len(traces) == 2
    assert max(trace.objectives) == max(max(t.objectives) for t in traces)
