"""Covariance functions: values, matrices, gradients, PSD behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfimpute.kernels import (
    NoiseParams,
    PeriodicParams,
    PointwiseLatents,
    SEParams,
    SMParams,
    _outer,
    build_cov,
    gibbs_cov,
    gsm_cov,
    n_params,
    raw_vector,
    terms_on_lags,
    value_on_lags,
    with_raw_vector,
)

from oracles import fd_gradient, k_gibbs, k_gsm, k_noise, k_periodic, k_se, k_sm, kernel_grad

RNG = np.random.default_rng(2024)


def random_sm(q, rng):
    return SMParams(
        weights=rng.uniform(0.5, 3.0, q),
        freqs=rng.uniform(1.0, 20.0, q),
        freq_vars=rng.uniform(0.5, 10.0, q),
    )


ALL_STATIONARY = [
    SEParams(2.0, 0.3),
    PeriodicParams(10.0, 0.8, 0.1),
    SMParams([1.5, 0.7], [10.0, 25.0], [2.0, 8.0]),
    NoiseParams("colored", 0.02, 0.001),
]


# ---------------------------------------------------------------------------
# scalar values


def test_se_values():
    assert k_se(1.0, 1.0, SEParams(3.0, 0.5)) == 3.0
    got = k_se(0.0, 0.5, SEParams(2.0, 0.5))
    assert abs(got - 2.0 * math.exp(-0.5)) < 1e-12
    flat = k_se(0.0, 1.0, SEParams(4.0, 1e6))
    assert abs(flat - 4.0) <= 1e-9 * 4.0


def test_periodic_values():
    p = PeriodicParams(10.0, 0.8, 0.1)
    assert abs(k_periodic(0.0, 0.1, p) - 10.0) < 1e-12
    assert abs(k_periodic(0.3, 0.3, p) - 10.0) < 1e-12
    half = k_periodic(0.0, 0.05, p)
    assert abs(half - 10.0 * math.exp(-1.0 / 1.28)) < 1e-10


def test_sm_values():
    p = SMParams([1.5, 0.7], [10.0, 25.0], [2.0, 8.0])
    assert abs(k_sm(0.3, 0.3, p) - (1.5 + 0.7)) < 1e-12
    pure = SMParams([2.0], [1.0], [0.0])
    assert abs(k_sm(0.25, 0.0, pure)) < 1e-12  # cos(pi/2)


def test_noise_values():
    white = NoiseParams("white", 0.02)
    assert k_noise(0.5, 0.5, white) == 0.02
    assert k_noise(0.5, 0.5001, white) == 0.0
    colored = NoiseParams("colored", 0.02, 0.001)
    assert abs(k_noise(0.0, 0.0, colored) - 0.02) < 1e-15
    got = k_noise(0.0, 0.001, colored)
    assert abs(got - 0.02 * math.exp(-0.5)) < 1e-12


def test_gibbs_values():
    assert abs(k_gibbs(0.7, 0.7, 0.3, 0.3) - 1.0) < 1e-15
    got = k_gibbs(0.0, 0.0, 1.0, 2.0)
    assert abs(got - math.sqrt(4.0 / 5.0)) < 1e-12
    # constant lengthscale reduces to a unit SE with theta = lam
    xs = np.linspace(-1.0, 1.0, 41)
    lam = 0.37
    worst = max(
        abs(k_gibbs(a, b, lam, lam) - math.exp(-((a - b) ** 2) / (2 * lam * lam)))
        for a in xs
        for b in xs[::4]
    )
    assert worst < 1e-12


def test_gsm_values():
    assert abs(k_gsm(0.4, 0.4, 1.7, 1.7, 0.2, 0.2, 3.0, 3.0) - 1.7**2) < 1e-12
    # constant latents reduce to w^2 SE(theta=lam) cos(2 pi f tau)
    w, lam, f = 1.3, 0.25, 4.0
    for tau in (0.0, 0.05, 0.11, 0.4):
        got = k_gsm(tau, 0.0, w, w, lam, lam, f, f)
        want = w * w * math.exp(-(tau**2) / (2 * lam * lam)) * math.cos(
            2 * math.pi * f * tau
        )
        assert abs(got - want) < 1e-12


def test_gibbs_rejects_bad_lengthscale():
    with pytest.raises(ValueError):
        PointwiseLatents([1.0], [-0.1], [1.0])


# ---------------------------------------------------------------------------
# matrix builders


def test_build_cov_single_point():
    m = build_cov(SEParams(3.0, 1.0), [0.5])
    assert m.shape == (1, 1) and m[0, 0] == 3.0


def test_build_cov_se_two_points():
    s2 = 2.0
    m = build_cov(SEParams(s2, 0.4), [0.0, 0.4])
    off = s2 * math.exp(-0.5)
    assert abs(m[0, 0] - s2) < 1e-15 and abs(m[1, 1] - s2) < 1e-15
    assert abs(m[0, 1] - off) < 1e-12 and abs(m[1, 0] - off) < 1e-12


def test_build_cov_bitwise_symmetric():
    xs = RNG.uniform(0.0, 2.0, 32)
    for kernel in ALL_STATIONARY + [NoiseParams("white", 0.1)]:
        m = build_cov(kernel, xs)
        assert np.array_equal(m, m.T), type(kernel).__name__


def test_white_noise_cross_blocks():
    xs, ys = np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0])
    for s2 in (0.0, 0.5):
        white = NoiseParams("white", s2)
        # sigma2 I on one set, sigma2 [x = y] across two
        for m, want, lags in (
            (build_cov(white, xs), s2 * np.eye(3), np.abs(xs[:, None] - xs)),
            (build_cov(white, xs, ys), [[0.0, 0.0], [s2, 0.0], [0.0, 0.0]],
             np.abs(xs[:, None] - ys)),
        ):
            assert np.array_equal(m, want)
            value, grads = terms_on_lags(white, lags)
            assert np.array_equal(value_on_lags(white, lags), m)
            assert np.array_equal(value, m)
            assert np.array_equal(grads, [m])  # d/dlog sigma2 is the value


def test_stationary_translation_invariance():
    xs = RNG.uniform(0.0, 1.0, 16)
    shift = 7.3
    for kernel in ALL_STATIONARY:
        a = build_cov(kernel, xs)
        b = build_cov(kernel, xs + shift)
        assert np.max(np.abs(a - b)) < 1e-12, type(kernel).__name__


def test_cauchy_schwarz():
    xs = RNG.uniform(-1.0, 1.0, 24)
    lat = PointwiseLatents(
        RNG.uniform(0.5, 2.0, 24), RNG.uniform(0.05, 0.5, 24),
        RNG.uniform(0.0, 10.0, 24)
    )
    mats = [build_cov(k, xs) for k in ALL_STATIONARY]
    mats.append(gsm_cov(xs, xs, lat, lat))
    for m in mats:
        d = np.sqrt(np.outer(np.diagonal(m), np.diagonal(m)))
        assert np.all(np.abs(m) <= d + 1e-12)


def test_psd_on_random_grids():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(4, 64))
        xs = np.sort(rng.uniform(0.0, 3.0, n))
        kernels_here = ALL_STATIONARY + [
            NoiseParams("white", 0.3),
            random_sm(3, rng),
        ]
        for kernel in kernels_here:
            m = build_cov(kernel, xs)
            lo = float(np.min(np.linalg.eigvalsh(m)))
            assert lo >= -1e-8 * float(np.max(np.diagonal(m)))
        lat = PointwiseLatents(
            rng.uniform(0.5, 2.0, n), rng.uniform(0.05, 0.5, n),
            rng.uniform(0.0, 20.0, n)
        )
        g = gsm_cov(xs, xs, lat, lat)
        lo = float(np.min(np.linalg.eigvalsh(g)))
        assert lo >= -1e-8 * float(np.max(np.diagonal(g)))


def test_outer_equals_ufunc_outer_and_writes_into_out():
    u, v = RNG.uniform(-2.0, 2.0, 7), RNG.uniform(-2.0, 2.0, 5)
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


def test_gibbs_cov_matches_scalar():
    xs = np.linspace(0.0, 1.0, 9)
    lam = RNG.uniform(0.1, 0.6, 9)
    m = gibbs_cov(xs, xs, lam, lam)
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


@st.composite
def _stationary_on_points(draw):
    """Unsorted positions within a random span, and an SE, periodic,
    spectral mixture or coloured-noise kernel whose length and frequency
    scales are drawn relative to that span."""
    span = draw(st.floats(1e-3, 10.0))
    n = draw(st.integers(1, 40))
    xs = span * draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    relative = st.floats(-2.0, 1.0).map(lambda e: 10.0**e)
    sigma2 = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    kind = draw(st.sampled_from(("se", "periodic", "sm", "colored")))
    if kind == "se":
        return xs, SEParams(sigma2, span * draw(relative))
    if kind == "periodic":
        return xs, PeriodicParams(sigma2, draw(relative), span * draw(relative))
    if kind == "colored":
        return xs, NoiseParams("colored", sigma2, span * draw(relative))
    q = draw(st.integers(1, 3))

    def per_component(lo, hi):
        return draw(arrays(float, q, elements=st.floats(lo, hi)))

    return xs, SMParams(per_component(1e-3, 1e3), per_component(0.0, 50.0) / span,
                        (per_component(0.0, 10.0) / span) ** 2)


@settings(max_examples=100, deadline=None)
@given(_stationary_on_points())
def test_stationary_cov_is_symmetric_and_psd_at_random_points(case):
    xs, kernel = case
    m = build_cov(kernel, xs)
    assert np.array_equal(m, m.T)
    assert np.linalg.eigvalsh(m)[0] >= -1e-10 * np.trace(m)


def test_sm_spectrum_peaks_at_component_frequency():
    # DFT of a narrow-linewidth component concentrates at f
    f = 12.0
    p = SMParams([1.0], [f], [0.01])
    dt = 1.0 / 256.0
    t = np.arange(4096) * dt
    vals = np.array([k_sm(v, 0.0, p) for v in t])
    spec = np.abs(np.fft.rfft(vals * np.hanning(len(vals))))
    freqs = np.fft.rfftfreq(len(vals), dt)
    spec[0] = 0.0
    peak = freqs[int(np.argmax(spec))]
    assert abs(peak - f) < 2.0 * freqs[1]


# ---------------------------------------------------------------------------
# raw parameter vectors and analytic gradients


def test_raw_vector_round_trip():
    rng = np.random.default_rng(5)
    for kernel in ALL_STATIONARY + [
        NoiseParams("white", 0.3),
        NoiseParams("white", 0.0),
        random_sm(3, rng),
        SMParams([1.0, 2.0], [5.0, 0.0], [0.0, 3.0]),
    ]:
        vec = raw_vector(kernel)
        # one entry per number the kernel holds (white noise has no theta)
        count = sum(np.size(getattr(kernel, f.name)) for f in dataclasses.fields(kernel)
                    if f.name != "kind" and getattr(kernel, f.name) is not None)
        assert len(vec) == n_params(kernel) == count
        back = with_raw_vector(kernel, vec)
        assert np.allclose(raw_vector(back), vec, rtol=0, atol=1e-12)


def test_kernel_grad_simple_identities():
    xs = np.array([0.3])
    se = SEParams(2.5, 0.4)
    assert abs(kernel_grad(se, xs, 0)[0, 0] - 2.5) < 1e-12
    sm = SMParams([2.0], [3.0], [1.0])
    assert abs(kernel_grad(sm, xs, 0)[0, 0] - 2.0) < 1e-12
    white = NoiseParams("white", 0.7)
    assert abs(kernel_grad(white, xs, 0)[0, 0] - 0.7) < 1e-12


def test_kernel_grad_matches_finite_differences():
    rng = np.random.default_rng(31)
    xs = np.sort(rng.uniform(0.0, 1.0, 8))
    for kernel in ALL_STATIONARY + [NoiseParams("white", 0.3), random_sm(2, rng)]:
        raw0 = raw_vector(kernel)
        for idx in range(n_params(kernel)):
            probe = (3, 4)  # fixed entry to compare, off-diagonal

            def entry(vec):
                k = with_raw_vector(kernel, vec)
                return build_cov(k, xs)[probe]

            fd = fd_gradient(entry, raw0, step=1e-6)[idx]
            an = kernel_grad(kernel, xs, idx)[probe]
            scale = max(abs(fd), abs(an), 1e-9)
            assert abs(fd - an) / scale < 1e-5, (type(kernel).__name__, idx)


def test_kernel_grad_index_out_of_range():
    with pytest.raises(ValueError):
        kernel_grad(SEParams(1.0, 1.0), np.array([0.0]), 2)


def test_sm_pure_cosine_component_allowed():
    p = SMParams([1.0], [5.0], [0.0])
    xs = np.linspace(0.0, 1.0, 33)
    m = build_cov(p, xs)
    want = np.cos(2 * np.pi * 5.0 * np.abs(xs[:, None] - xs[None, :]))
    assert np.max(np.abs(m - want)) < 1e-12
