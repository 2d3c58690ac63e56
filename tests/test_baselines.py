"""Classical imputation baselines: examples, oracles, shared invariants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfimpute import baselines
from surfimpute import (
    CoverageError,
    EmptyDatasetError,
    Profile,
    impute_constant,
    impute_idw,
    impute_median_filter,
    impute_nn_mean,
    make_grid,
)


def profile_of(z, valid, dx=1.0):
    z = np.asarray(z, dtype=float)
    return Profile(make_grid(0.0, dx, len(z)), z,
                   np.asarray(valid, dtype=bool))


def gapped(values_valid, gap_at, gap_len, dx=1.0):
    # valid heights with one contiguous missing run spliced in
    z = list(values_valid[:gap_at]) + [math.nan] * gap_len + list(values_valid[gap_at:])
    valid = [True] * gap_at + [False] * gap_len + [True] * (len(values_valid) - gap_at)
    return profile_of(z, valid, dx)


# ---------------------------------------------------------------------------
# constant fill


def test_constant_mean_example():
    p = profile_of([1.0, math.nan, 3.0], [1, 0, 1])
    out = impute_constant(p, "mean")
    assert out.z[1] == 2.0


def test_constant_median_example():
    p = profile_of([1.0, 2.0, math.nan, 100.0], [1, 1, 0, 1])
    out = impute_constant(p, "median")
    assert out.z[2] == 2.0


def test_constant_identity_on_complete_profile():
    p = profile_of([1.0, 2.0, 3.0], [1, 1, 1])
    out = impute_constant(p, "mean")
    assert np.array_equal(out.z, p.z)
    assert np.all(out.valid)


def test_constant_fill_equals_valid_mean_exactly():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(40)
    valid = rng.random(40) > 0.3
    valid[:2] = True
    p = profile_of(z, valid)
    out = impute_constant(p, "mean")
    want = float(np.mean(z[valid]))
    assert np.all(out.z[~valid] == want)


def test_constant_rejects_unknown_statistic():
    p = profile_of([1.0, math.nan], [1, 0])
    with pytest.raises(ValueError):
        impute_constant(p, "mode")


# ---------------------------------------------------------------------------
# nearest-neighbor mean


def test_nn_single_point_between_neighbors():
    p = profile_of([2.0, math.nan, 4.0], [1, 0, 1])
    out = impute_nn_mean(p)
    assert out.z[1] == 3.0


def test_nn_gap_becomes_plateau():
    p = gapped([1.0, 3.0], gap_at=1, gap_len=5)
    out = impute_nn_mean(p)
    assert np.all(out.z[1:6] == 2.0)


def test_nn_one_sided_prefix():
    p = profile_of([math.nan, math.nan, 7.0, 9.0], [0, 0, 1, 1])
    out = impute_nn_mean(p)
    assert out.z[0] == 7.0 and out.z[1] == 7.0


def test_nn_one_sided_suffix():
    p = profile_of([7.0, 9.0, math.nan], [1, 1, 0])
    out = impute_nn_mean(p)
    assert out.z[2] == 9.0


# ---------------------------------------------------------------------------
# iterative median filter


def test_medfilt_single_point_even_count_median():
    p = profile_of([1.0, math.nan, 5.0], [1, 0, 1])
    out = impute_median_filter(p, window=3)
    assert out.z[1] == 3.0


def test_medfilt_run_between_equal_plateaus():
    p = gapped([0.0, 0.0, 0.0, 0.0], gap_at=2, gap_len=3)
    out = impute_median_filter(p, window=3)
    assert np.all(out.z == 0.0)


def test_medfilt_matches_step_by_step_simulation():
    # reference simulation of the pass semantics: all fills of one pass
    # are computed from the state at the start of the pass
    rng = np.random.default_rng(11)
    z = rng.standard_normal(30)
    valid = np.ones(30, dtype=bool)
    valid[4:9] = False
    valid[15] = False
    valid[20:28] = False
    window, half = 5, 2
    zz = z.copy()
    known = valid.copy()
    while not np.all(known):
        new_vals = {}
        for i in np.flatnonzero(~known):
            lo, hi = max(0, i - half), min(30, i + half + 1)
            vals = zz[lo:hi][known[lo:hi]]
            if len(vals):
                new_vals[i] = float(np.median(vals))
        for i, val in new_vals.items():
            zz[i] = val
            known[i] = True
    p = profile_of(np.where(valid, z, math.nan), valid)
    out = impute_median_filter(p, window=window)
    assert np.array_equal(out.z, np.where(valid, z, zz))


def counted_medians(monkeypatch):
    """The rows of each ``_window_medians`` call, as lists of indices."""
    calls = []
    original = baselines._window_medians

    def counted(z, known, rows, offsets):
        calls.append(rows.tolist())
        return original(z, known, rows, offsets)

    monkeypatch.setattr(baselines, "_window_medians", counted)
    return calls


def test_medfilt_pass_count_on_hand_case(monkeypatch):
    # run of 5 with window 3 needs ceil(5 / (3 - 1)) = 3 passes:
    # edges, next layer, then the center point
    calls = counted_medians(monkeypatch)
    p = gapped([1.0, 3.0], gap_at=1, gap_len=5)
    out = impute_median_filter(p, window=3)
    assert np.all(out.valid)
    assert calls == [[1, 5], [2, 4], [3]]
    assert out.z.tolist() == [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0]


def test_medfilt_computes_each_missing_median_once(monkeypatch):
    # each pass takes only its frontier, so the rows of all passes add up
    # to the missing count; a pass that rescanned every missing point
    # would count the middle of the long gaps once per pass
    calls = counted_medians(monkeypatch)
    rng = np.random.default_rng(3)
    valid = np.ones(400, dtype=bool)
    valid[:37] = valid[50:51] = valid[90:230] = valid[300:] = False
    p = profile_of(np.where(valid, rng.standard_normal(400), math.nan), valid)
    impute_median_filter(p, window=5)
    assert sum(len(rows) for rows in calls) == p.n_missing


def test_medfilt_closes_a_gap_of_any_length():
    # the last 2001 of 2101 points missing: 1001 passes at window 5
    z = np.arange(2101.0)
    valid = z < 100
    out = impute_median_filter(profile_of(np.where(valid, z, math.nan), valid), window=5)
    assert np.all(out.valid)
    assert np.array_equal(out.z[:100], z[:100])
    # odd indices copy 99 and each even one averages the two before it,
    # so the fill rises from 98.5 towards 99
    assert out.z[100] == 98.5 and out.z[-1] == 99.0
    assert np.all((out.z[100:] >= 98.5) & (out.z[100:] <= 99.0))


def test_medfilt_parameter_validation():
    p = profile_of([1.0, math.nan, 2.0], [1, 0, 1])
    for bad_window in (2, 4, 1, -3):
        with pytest.raises(ValueError):
            impute_median_filter(p, window=bad_window)


# ---------------------------------------------------------------------------
# inverse-distance weighting


def test_idw_symmetric_neighbors_for_any_power():
    p = profile_of([2.0, math.nan, 4.0], [1, 0, 1])
    for power in (1.0, 2.0, 3.5):
        out = impute_idw(p, power=power)
        assert abs(out.z[1] - 3.0) < 1e-12


@pytest.mark.parametrize("kwargs", [
    {"power": math.nan}, {"power": math.inf}, {"power": 0.0},
    {"radius": math.nan}, {"radius": 0.0},
], ids=["power-nan", "power-inf", "power-zero", "radius-nan", "radius-zero"])
def test_idw_rejects_a_power_or_radius_outside_its_range(kwargs):
    p = profile_of([2.0, math.nan, 4.0], [1, 0, 1])
    with pytest.raises(ValueError, match="power|radius"):
        impute_idw(p, **kwargs)


def test_idw_forced_arithmetic():
    # distances 1 and 2, values 0 and 3, power 1: (0*1 + 3*0.5)/1.5 = 1
    p = profile_of([0.0, math.nan, math.nan, 3.0], [1, 0, 0, 1])
    out = impute_idw(p, power=1.0)
    assert abs(out.z[1] - 1.0) < 1e-12


def test_idw_matches_brute_force():
    rng = np.random.default_rng(17)
    z = rng.standard_normal(40)
    valid = rng.random(40) > 0.25
    valid[0] = valid[-1] = True
    p = profile_of(np.where(valid, z, math.nan), valid, dx=0.1)
    radius, power = 0.7, 2.0
    out = impute_idw(p, power=power, radius=radius)
    x = p.x
    for i in np.flatnonzero(~valid):
        d = np.abs(x[valid] - x[i])
        keep = d <= radius
        w = d[keep] ** (-power)
        want = np.sum(w * z[valid][keep]) / np.sum(w)
        assert abs(out.z[i] - want) < 1e-12


def test_idw_coverage_error_and_default_radius():
    # nearest valid point is 11 steps away: outside the default 10 dx
    n = 23
    valid = np.zeros(n, dtype=bool)
    valid[0] = valid[-1] = True
    z = np.where(valid, 1.0, math.nan)
    p = profile_of(z, valid)
    with pytest.raises(CoverageError):
        impute_idw(p)
    out = impute_idw(p, radius=11.0)
    assert np.all(out.valid)


def test_idw_parameter_validation():
    p = profile_of([1.0, math.nan, 2.0], [1, 0, 1])
    with pytest.raises(ValueError):
        impute_idw(p, power=0.0)
    with pytest.raises(ValueError):
        impute_idw(p, radius=-1.0)


# ---------------------------------------------------------------------------
# shared invariants


ALL_METHODS = [
    lambda p: impute_constant(p, "mean"),
    lambda p: impute_constant(p, "median"),
    impute_nn_mean,
    impute_median_filter,
    impute_idw,
]


def test_all_methods_preserve_valid_bitwise_and_complete():
    rng = np.random.default_rng(29)
    for trial in range(5):
        z = rng.standard_normal(60)
        valid = rng.random(60) > 0.2
        valid[0] = valid[-1] = True
        p = profile_of(np.where(valid, z, math.nan), valid)
        zv = z[valid]
        lo, hi = float(np.min(zv)), float(np.max(zv))
        for method in ALL_METHODS:
            out = method(p)
            assert np.all(out.valid)
            assert np.array_equal(out.z[valid], z[valid])
            assert np.all(out.z[~valid] >= lo - 1e-12)
            assert np.all(out.z[~valid] <= hi + 1e-12)


@st.composite
def masked_profiles(draw):
    n = draw(st.integers(1, 60))
    z = draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    dx = draw(st.sampled_from([1e-4, 0.01, 1.0]))
    return profile_of(np.where(valid, z, math.nan), valid, dx)


@settings(max_examples=80, deadline=None)
@given(p=masked_profiles())
def test_all_methods_preserve_valid_bitwise_and_complete_on_random_profiles(p):
    # IDW gets a radius spanning the profile, so that every gap has support
    methods = ALL_METHODS[:-1] + [lambda q: impute_idw(q, radius=q.n * q.dx)]
    for method in methods:
        out = method(p)
        assert np.all(out.valid)
        assert np.all(np.isfinite(out.z))
        assert np.array_equal(out.z[p.valid].view(np.uint64),
                              p.z[p.valid].view(np.uint64))


def test_all_methods_identity_on_complete_profile():
    p = profile_of([0.5, -1.0, 2.0], [1, 1, 1])
    for method in ALL_METHODS:
        out = method(p)
        assert np.array_equal(out.z, p.z)


def test_all_methods_reject_empty_dataset():
    p = profile_of([math.nan, math.nan], [0, 0])
    for method in ALL_METHODS:
        with pytest.raises(EmptyDatasetError):
            method(p)


# ---------------------------------------------------------------------------
# whole-array fills against per-point reference loops
#
# The library fills all missing points of a pass at once.  These loops
# are the plain per-point definitions it replaced, kept as the oracle.


def ref_nn_mean(profile):
    idx = np.flatnonzero(~profile.valid)
    if profile.n_valid == 0:
        raise EmptyDatasetError("no valid points to impute from")
    valid_idx = np.flatnonzero(profile.valid)
    z = profile.z
    fills = np.empty(len(idx))
    for k, i in enumerate(idx):
        pos = np.searchsorted(valid_idx, i)
        left = valid_idx[pos - 1] if pos > 0 else None
        right = valid_idx[pos] if pos < len(valid_idx) else None
        if left is None:
            fills[k] = z[right]
        elif right is None:
            fills[k] = z[left]
        else:
            fills[k] = 0.5 * (z[left] + z[right])
    return profile.with_filled(fills)


def ref_median_filter(profile, window):
    # every pass fills at least one point while any valid point exists
    z = profile.z.copy()
    known = profile.valid.copy()
    half = (window - 1) // 2
    n = profile.n
    while not np.all(known):
        new_vals = {}
        for i in np.flatnonzero(~known):
            lo, hi = max(0, i - half), min(n, i + half + 1)
            vals = z[lo:hi][known[lo:hi]]
            if len(vals):
                new_vals[i] = float(np.median(vals))
        for i, val in new_vals.items():
            z[i] = val
            known[i] = True
    return profile.with_filled(z[np.flatnonzero(~profile.valid)])


def ref_idw(profile, power, radius):
    idx = np.flatnonzero(~profile.valid)
    xv = profile.valid_x()
    zv = profile.valid_z()
    fills = np.empty(len(idx))
    for k, i in enumerate(idx):
        d = np.abs(xv - profile.x[i])
        near = d <= radius
        if not np.any(near):
            raise CoverageError(
                f"no valid point within radius {radius:g} of x={profile.x[i]:g}"
            )
        w = d[near] ** (-power)
        fills[k] = float(np.sum(w * zv[near]) / np.sum(w))
    return profile.with_filled(fills)


def outcome(fill, *args):
    try:
        return fill(*args).z, None
    except CoverageError as exc:
        return None, exc


def assert_same_outcome(got, want, rtol=0.0, scale=1.0):
    (z, err), (z_ref, err_ref) = got, want
    assert type(err) is type(err_ref)
    if err is not None:
        assert str(err) == str(err_ref)
        return
    if rtol == 0.0:
        assert same_bits(z, z_ref)
    else:
        assert np.all(np.abs(z - z_ref) <= rtol * scale)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def run_masked_profiles(draw):
    # alternating runs of valid and missing points: gaps at either end
    # and gaps longer than any window turn up often
    runs = draw(st.lists(st.integers(1, 25), min_size=1, max_size=9))
    valid = np.concatenate([np.full(r, k % 2 == 0) for k, r in enumerate(runs)])
    if draw(st.booleans()):
        valid = ~valid
    if not valid.any():
        valid[draw(st.integers(0, len(valid) - 1))] = True
    n = len(valid)
    z = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    dx = draw(st.sampled_from([1e-4, 0.01, 1.0]))
    x0 = draw(st.sampled_from([0.0, -3.7, 125.0]))
    return Profile(make_grid(x0, dx, n), np.where(valid, z, math.nan), valid)


@settings(max_examples=150, deadline=None)
@given(p=run_masked_profiles(), window=st.sampled_from([3, 5, 7, 9, 11]),
       power=st.floats(0.5, 4.0),
       radius_steps=st.integers(1, 40).map(float) | st.floats(1.0, 40.0))
def test_fills_match_the_per_point_reference(p, window, power, radius_steps):
    assert_same_outcome(outcome(impute_nn_mean, p), outcome(ref_nn_mean, p))
    assert_same_outcome(outcome(impute_median_filter, p, window),
                        outcome(ref_median_filter, p, window))
    # a whole number of steps puts grid points right on the radius, where
    # rounding decides; a weighted mean of heights is exact to a few ulps
    # of the largest one
    radius = radius_steps * p.dx
    assert_same_outcome(outcome(impute_idw, p, power, radius),
                        outcome(ref_idw, p, power, radius),
                        rtol=1e-14, scale=np.max(np.abs(p.valid_z())))


def test_idw_blocks_agree_with_one_band(monkeypatch):
    # a tiny block forces many row blocks of different widths
    rng = np.random.default_rng(5)
    n = 300
    valid = rng.random(n) > 0.6
    valid[0] = True
    p = profile_of(np.where(valid, rng.standard_normal(n), math.nan), valid,
                   dx=0.01)
    whole = impute_idw(p, power=1.5, radius=0.4)
    monkeypatch.setattr(baselines, "_BLOCK_ENTRIES", 7)
    blocked = impute_idw(p, power=1.5, radius=0.4)
    assert same_bits(whole.z, blocked.z)
    assert same_bits(impute_median_filter(p, window=9).z,
                     ref_median_filter(p, 9).z)


def test_idw_radius_spanning_the_profile_keeps_a_bounded_band():
    # every other point missing: k x n_valid would be 2000 x 2000 doubles
    # (32 MB per array); the row blocks keep the band near 0.5 MB
    n = 4000
    valid = np.arange(n) % 2 == 0
    z = np.where(valid, np.sin(0.01 * np.arange(n)), math.nan)
    p = profile_of(z, valid, dx=0.01)
    tracemalloc.start()
    try:
        out = impute_idw(p, radius=n * p.dx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(out.valid)
    assert peak < 8e6
