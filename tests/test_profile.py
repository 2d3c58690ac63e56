"""Grid, profile, dataset splitting and roughness statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from surfimpute import (
    EmptyDatasetError,
    Grid1D,
    NoProfileElementsError,
    Profile,
    TurnedSimConfig,
    make_grid,
    profile_from_arrays,
    rq,
    rsm,
    simulate_turned,
)
from surfimpute import gp
from surfimpute.profile import split_dataset


def sine_profile(wavelength, amplitude=1.0, dx=None, periods=10, phase=0.0):
    dx = wavelength / 100.0 if dx is None else dx
    n = int(round(periods * wavelength / dx)) + 1
    grid = make_grid(0.0, dx, n)
    x = grid.points()
    z = amplitude * np.sin(2.0 * np.pi * x / wavelength + phase)
    return Profile(grid, z, None)


# ---------------------------------------------------------------------------
# grid arithmetic


def test_grid_points_fig_scale():
    g = make_grid(0.0, 5e-4, 8000)
    x = g.points()
    assert len(x) == 8000
    assert abs(x[-1] - 3.9995) < 1e-12


def test_grid_single_point():
    g = make_grid(0.0, 1.0, 1)
    assert np.array_equal(g.points(), [0.0])


def test_grid_offset_points():
    g = make_grid(2.0, 0.5, 3)
    assert np.allclose(g.points(), [2.0, 2.5, 3.0], rtol=0, atol=1e-15)


def test_grid_points_no_drift():
    # direct x0 + i*dx must stay within one ulp of exact per index
    g = make_grid(0.3, 1e-3, 100000)
    i = np.array([0, 1, 9999, 99999])
    exact = 0.3 + i * 1e-3
    got = g.points()[i]
    assert np.all(np.abs(got - exact) <= np.spacing(exact))


def test_grid_rejects_bad_args():
    for bad in (lambda: make_grid(0, 0.0, 5),
                lambda: make_grid(0, -1.0, 5),
                lambda: make_grid(0, 1.0, 0),
                lambda: make_grid(math.nan, 1.0, 5)):
        with pytest.raises(ValueError):
            bad()


def test_grid_nyquist():
    g = make_grid(0.0, 0.002, 11)
    assert abs(g.nyquist - 250.0) < 1e-12


# ---------------------------------------------------------------------------
# profile construction


def test_profile_requires_finite_valid_heights():
    g = make_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        Profile(g, [1.0, math.nan, 3.0], [True, True, True])
    # nan is fine where the flag is off
    p = Profile(g, [1.0, math.nan, 3.0], [True, False, True])
    assert p.n_valid == 2
    assert p.n_missing == 1


def test_profile_length_checks():
    g = make_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        Profile(g, [1.0, 2.0], None)
    with pytest.raises(ValueError):
        Profile(g, [1.0, 2.0, 3.0], [True, False])


def test_profile_arrays_read_only():
    p = Profile(make_grid(0.0, 1.0, 3), [1.0, 2.0, 3.0], None)
    with pytest.raises(ValueError):
        p.z[0] = 9.0
    with pytest.raises(ValueError):
        p.valid[0] = False


def test_with_filled_is_bitwise_on_valid():
    g = make_grid(0.0, 0.1, 5)
    z = np.array([0.1, 0.2, math.nan, 0.4, 0.5])
    p = Profile(g, z, [1, 1, 0, 1, 1])
    filled = p.with_filled([7.5])
    assert np.all(filled.valid)
    assert filled.z[2] == 7.5
    for i in (0, 1, 3, 4):
        assert filled.z[i] == z[i]
    with pytest.raises(ValueError):
        p.with_filled([1.0, 2.0])


def test_profile_from_arrays_checks_uniformity():
    x = np.array([0.0, 0.1, 0.2, 0.35])
    with pytest.raises(ValueError):
        profile_from_arrays(x, np.zeros(4))
    p = profile_from_arrays(np.array([0.0, 0.1, 0.2, 0.3]), np.zeros(4))
    assert p.grid.n == 4
    assert abs(p.grid.dx - 0.1) < 1e-15


# ---------------------------------------------------------------------------
# dataset splitting


def test_split_all_valid():
    p = Profile(make_grid(0.0, 1.0, 4), [1.0, 2.0, 3.0, 4.0], None)
    ds = split_dataset(p)
    assert ds.n_valid == 4
    assert ds.n_missing == 0
    assert np.array_equal(ds.za, p.z)


def test_split_mixed():
    p = Profile(make_grid(0.0, 1.0, 3), [1.0, math.nan, 3.0], [1, 0, 1])
    ds = split_dataset(p)
    assert np.array_equal(ds.xa, [0.0, 2.0])
    assert np.array_equal(ds.za, [1.0, 3.0])
    assert np.array_equal(ds.xm, [1.0])
    assert np.array_equal(ds.idx_a, [0, 2])
    assert np.array_equal(ds.idx_m, [1])


def test_split_counts_at_scale():
    rng = np.random.default_rng(7)
    n = 8000
    valid = np.ones(n, dtype=bool)
    valid[rng.choice(n, size=953, replace=False)] = False
    p = Profile(make_grid(0.0, 5e-4, n), rng.standard_normal(n), valid)
    ds = split_dataset(p)
    assert ds.n_valid == 7047
    assert ds.n_missing == 953


def test_split_rejects_all_invalid():
    p = Profile(make_grid(0.0, 1.0, 2), [math.nan, math.nan], [0, 0])
    with pytest.raises(EmptyDatasetError):
        split_dataset(p)


def test_split_remerge_bitwise():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(50)
    valid = rng.random(50) > 0.3
    valid[0] = True
    p = Profile(make_grid(0.0, 0.01, 50), z, valid)
    ds = split_dataset(p)
    merged = np.empty(50)
    merged[ds.idx_a] = ds.za
    merged[ds.idx_m] = math.nan
    assert np.array_equal(merged[ds.idx_a], z[ds.idx_a])


# ---------------------------------------------------------------------------
# Rq


def test_rq_constant_is_zero():
    p = Profile(make_grid(0.0, 1.0, 10), np.full(10, 3.3), None)
    assert rq(p) == 0.0


def test_rq_sine_amplitude():
    p = sine_profile(0.1, amplitude=2.5, dx=0.1 / 200, periods=20)
    # drop the duplicated final sample so whole periods average exactly
    p = Profile(p.grid, p.z, np.arange(p.n) < p.n - 1)
    assert abs(rq(p) - 2.5 / math.sqrt(2.0)) < 1e-3


def test_rq_matches_two_pass_oracle():
    rng = np.random.default_rng(11)
    z = rng.standard_normal(100) * 4.0 + 7.0
    p = Profile(make_grid(0.0, 0.01, 100), z, None)
    mean = sum(z) / len(z)
    var = sum((v - mean) ** 2 for v in z) / len(z)
    assert abs(rq(p) - math.sqrt(var)) <= 1e-12 * math.sqrt(var)


def test_rq_shift_invariant():
    rng = np.random.default_rng(12)
    z = rng.standard_normal(64)
    g = make_grid(0.0, 0.01, 64)
    a = rq(Profile(g, z, None))
    b = rq(Profile(g, z + 123.456, None))
    assert abs(a - b) <= 1e-12 * a


def test_rq_of_deviations_whose_squares_underflow():
    # every square of 1e-170 * sin underflows to 0; the heights differ,
    # so Rq is that of the sine and no fit refuses the profile as flat
    grid = make_grid(0.0, 0.0025, 40)  # one whole period of 0.1 mm
    tiny = Profile(grid, 1e-170 * np.sin(2.0 * np.pi * grid.points() / 0.1), None)
    assert abs(rq(tiny) - 1e-170 / math.sqrt(2.0)) <= 1e-12 * 1e-170 / math.sqrt(2.0)
    assert gp._start_scales(tiny, "SE")[1] == rq(tiny)
    flat = Profile(grid, np.full(40, 1e-170), None)
    assert rq(flat) == 0.0
    with pytest.raises(NoProfileElementsError, match="flat"):
        gp._start_scales(flat, "SE")


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_rq_is_the_plain_root_mean_square_where_a_square_survives(z):
    z = np.array(z)
    dev = z - np.mean(z)
    plain = np.sqrt(np.mean(dev ** 2))
    if plain > 0 or not np.any(dev):
        p = Profile(make_grid(0.0, 0.01, len(z)), z, None)
        assert rq(p) == float(plain)


def test_rq_needs_a_valid_point():
    p = Profile(make_grid(0.0, 1.0, 2), [math.nan, math.nan], [0, 0])
    with pytest.raises(EmptyDatasetError):
        rq(p)


# ---------------------------------------------------------------------------
# Rsm


def test_rsm_cosine_tenth_mm():
    p = sine_profile(0.1, amplitude=1.0, periods=10)
    assert abs(rsm(p) - 0.1) < 1e-3


def test_rsm_cosine_ten_um():
    p = sine_profile(0.01, amplitude=0.5, periods=12)
    assert abs(rsm(p) - 0.01) < 1e-4


def test_rsm_amplitude_invariant():
    a = rsm(sine_profile(0.2, amplitude=1.0, periods=8))
    b = rsm(sine_profile(0.2, amplitude=250.0, periods=8))
    assert abs(a - b) < 1e-12


def test_rsm_tolerates_small_noise():
    wavelength = 0.1
    p = sine_profile(wavelength, amplitude=1.0, dx=wavelength / 100, periods=15)
    rng = np.random.default_rng(5)
    noisy = Profile(p.grid, p.z + 0.01 * rng.standard_normal(p.n), None)
    assert abs(rsm(noisy) - wavelength) < 0.02 * wavelength


def test_rsm_hysteresis_rejects_noise_elements():
    # tiny ripples around the mean line must not count as elements
    wavelength = 0.1
    p = sine_profile(wavelength, amplitude=1.0, dx=wavelength / 200, periods=10)
    ripple = 0.02 * np.sin(2.0 * np.pi * p.x / (wavelength / 23.0))
    noisy = Profile(p.grid, p.z + ripple, None)
    assert abs(rsm(noisy) - wavelength) < 0.02 * wavelength


def test_rsm_too_few_crossings():
    p = Profile(make_grid(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8), None)
    with pytest.raises(NoProfileElementsError):
        rsm(p)


def bits(value):
    return np.float64(value).view(np.uint64)


@st.composite
def masked_profiles(draw):
    n = draw(st.integers(1, 80))
    # small integers put samples on the mean line and on the band edges;
    # a sampled cosine plus floats crosses the mean line many times
    heights = st.integers(-3, 3).map(float) | st.floats(-1e3, 1e3)
    noise = np.array(draw(st.lists(heights, min_size=n, max_size=n)))
    carrier = draw(st.sampled_from([0.0, 1.0, 50.0])) * np.cos(np.arange(n) * 0.9)
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n) | st.just([True] * n))
    x0 = draw(st.sampled_from([0.0, -3.25, 1e3]))
    dx = draw(st.sampled_from([1e-4, 0.01, 1.0]))
    return Profile(make_grid(x0, dx, n), carrier + noise, valid)


@settings(max_examples=300, deadline=None)
@given(p=masked_profiles())
def test_rsm_is_bitwise_the_per_point_loop(p):
    try:
        want = oracles.rsm(p)
    except NoProfileElementsError:
        with pytest.raises(NoProfileElementsError):
            rsm(p)
        return
    assert bits(rsm(p)) == bits(want)


def test_rsm_is_bitwise_the_per_point_loop_on_a_masked_turned_draw():
    p = simulate_turned(TurnedSimConfig(n=2000), 1)
    valid = np.ones(p.n, dtype=bool)
    valid[300:420] = valid[1500:1530] = False
    for q in (p, p.with_mask(valid)):
        assert bits(rsm(q)) == bits(oracles.rsm(q))


def test_rsm_counts_a_sample_on_a_band_edge_as_a_visit():
    # mean -1 and Rq 10, so the upper band edge is 0.0, where the first
    # sample sits: without that visit only one crossing would qualify
    z = [0.0, -2.0, -1.0, 20.0, -10.0, -20.0, 2.0, 1.0, 10.0, -1.0, -10.0]
    p = Profile(make_grid(0.0, 1.0, len(z)), z, None)
    assert bits(rsm(p)) == bits(oracles.rsm(p))
