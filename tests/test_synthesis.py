"""Simulators and mask generators: examples, oracles, invariants."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import toeplitz_draw
from surfimpute import (
    ChirpConfig,
    EmptyDatasetError,
    InsufficientFeaturesError,
    MustImputeFirstError,
    Profile,
    TurnedSimConfig,
    make_grid,
    mask_gradient,
    mask_smallest_width_dales,
    simulate_chirp,
    simulate_turned,
    synthesis,
)
from surfimpute.kernels import PeriodicParams
from surfimpute.synthesis import (
    Dale,
    _interior_extrema,
    chirp_wavelength_at,
    chirp_wavelengths,
    watershed_dales,
)


def profile_of(z, dx=1.0):
    z = np.asarray(z, dtype=float)
    return Profile(make_grid(0.0, dx, len(z)), z, None)


def trough_cosine(periods, spp=20):
    # a record that starts and ends at troughs: all peaks are interior,
    # so exactly periods-1 full dales of width one wavelength each
    n = periods * spp + 1
    g = make_grid(0.0, 1.0 / spp, n)
    return Profile(g, -np.cos(2.0 * np.pi * g.points()), None)


# ---------------------------------------------------------------------------
# turned simulator


def test_turned_fully_correlated_limit_is_constant():
    # theta -> inf makes the kernel matrix rank one; the factorization
    # then runs at the first jitter rung 1e-10*diag, which puts an iid
    # noise floor of sd 1e-5*sigma on the draw. constant up to that.
    cfg = TurnedSimConfig(n=400, sigma2=10.0, theta=1e7, noise_sigma2=0.0)
    p = simulate_turned(cfg, 3)
    bound = 8.0 * math.sqrt(1e-10 * cfg.sigma2)
    assert np.max(np.abs(p.z - np.mean(p.z))) <= bound
    assert np.all(p.valid)


def test_turned_ensemble_second_moment_matches_prior():
    # the process mean is zero, so E[mean(z^2)] = sigma2 + noise_sigma2
    # exactly. variance about the draw's own mean would not do: the
    # periodic kernel never decays with lag, every draw keeps a large
    # shared component, and that statistic sits near 3 regardless of n.
    cfg = TurnedSimConfig()
    moments = [float(np.mean(np.square(simulate_turned(cfg, seed).z)))
               for seed in range(50)]
    want = cfg.sigma2 + cfg.noise_sigma2
    assert abs(np.mean(moments) - want) <= 0.30 * want


def test_turned_autocovariance_peaks_at_period():
    cfg = TurnedSimConfig()
    z = simulate_turned(cfg, 7).z
    zc = z - np.mean(z)
    lags = np.arange(25, 76)
    c = np.array([np.mean(zc[:-l] * zc[l:]) for l in lags])
    peak_lag = int(lags[np.argmax(c)])
    period_steps = round(cfg.period / cfg.dx)
    assert abs(peak_lag - period_steps) <= 1


def test_turned_deterministic_and_seeds_decorrelate():
    cfg = TurnedSimConfig(n=500)
    a = simulate_turned(cfg, 11)
    b = simulate_turned(cfg, 11)
    assert np.array_equal(a.z, b.z)
    # draws concentrate on a few periodic modes, so one pair's correlation
    # is close to the cosine of a random phase difference and can land
    # anywhere in [-1, 1]. the bound holds for these pinned pairs; phase
    # randomness shows up as a near-zero signed average over many pairs.
    zs = {s: simulate_turned(cfg, s).z for s in range(30)}
    for left, right in ((0, 1), (4, 5), (8, 9), (10, 11)):
        corr = np.corrcoef(zs[left], zs[right])[0, 1]
        assert abs(corr) < 0.5
    signed = [np.corrcoef(zs[s], zs[s + 1])[0, 1] for s in range(0, 30, 2)]
    assert abs(float(np.mean(signed))) < 0.30


def test_turned_config_validation():
    with pytest.raises(ValueError):
        TurnedSimConfig(sigma2=-1.0)
    with pytest.raises(ValueError):
        TurnedSimConfig(noise_sigma2=0.1, noise_theta=0.0)


# ---------------------------------------------------------------------------
# chirp simulator


def test_chirp_starts_at_half_amplitude():
    cfg = ChirpConfig(noise_sigma2=0.0)
    p = simulate_chirp(cfg, 1)
    assert p.z[0] == 2.5


def test_chirp_wavelength_table_and_first_boundary():
    lam = chirp_wavelengths(24)
    assert lam[0] == 0.01
    assert abs(lam[1] - 10.0 ** (25.0 / 24.0) * 1e-3) < 1e-12
    assert len(lam) == 25
    cfg = ChirpConfig()
    assert chirp_wavelength_at(cfg, np.array([0.0099]))[0] == lam[0]
    assert chirp_wavelength_at(cfg, np.array([0.01]))[0] == lam[1]
    assert chirp_wavelength_at(cfg, np.array([0.015]))[0] == lam[1]


def test_chirp_zero_crossings_of_first_segment():
    cfg = ChirpConfig(noise_sigma2=0.0)
    p = simulate_chirp(cfg, 1)
    lam0 = chirp_wavelengths(cfg.k_max)[0]
    first = p.z[p.x < lam0]
    sign_flip = np.flatnonzero(np.diff(np.sign(first)) != 0)
    assert len(sign_flip) == 2
    spacing = (sign_flip[1] - sign_flip[0]) * cfg.dx
    assert abs(spacing - lam0 / 2.0) <= cfg.dx


def test_chirp_wavelength_truncates_at_last_interval():
    cfg = ChirpConfig(k_max=1)
    lam = chirp_wavelengths(1)  # 0.01 and 0.1 mm, boundary ends at 0.11
    far = chirp_wavelength_at(cfg, np.array([0.2, 5.0]))
    assert np.all(far == lam[1])


def test_chirp_deterministic():
    cfg = ChirpConfig(n=600)
    a = simulate_chirp(cfg, 5)
    b = simulate_chirp(cfg, 5)
    assert np.array_equal(a.z, b.z)
    c = simulate_chirp(cfg, 6)
    assert not np.array_equal(a.z, c.z)


def test_chirp_noise_decorrelates_across_seeds():
    # the cosine carrier is seed independent, so decorrelation binds the
    # stochastic component only; the noise correlates over 800 grid steps,
    # so like the turned draws a single pair can align and the bound is
    # checked on pinned pairs
    cfg = ChirpConfig()

    def residual(seed):
        p = simulate_chirp(cfg, seed)
        carrier = 0.5 * cfg.amplitude * np.cos(
            2.0 * np.pi * p.x / chirp_wavelength_at(cfg, p.x))
        return p.z - carrier

    rs = {s: residual(s) for s in (0, 1, 6, 7, 8, 9)}
    for left, right in ((0, 1), (6, 7), (8, 9)):
        corr = np.corrcoef(rs[left], rs[right])[0, 1]
        assert abs(corr) < 0.5


def test_chirp_config_validation():
    with pytest.raises(ValueError):
        ChirpConfig(amplitude=0.0)
    with pytest.raises(ValueError):
        ChirpConfig(k_max=0)


# ---------------------------------------------------------------------------
# one factorization per configuration


SIM_CASES = [
    (simulate_turned, TurnedSimConfig(n=300)),
    (simulate_turned, TurnedSimConfig(n=300, noise_sigma2=0.0)),
    (simulate_turned, TurnedSimConfig(n=257, dx=3e-3)),
    (simulate_turned, TurnedSimConfig(n=300, x0=1.75)),
    (simulate_chirp, ChirpConfig(n=300, dx=1e-4)),
    (simulate_chirp, ChirpConfig(n=420, dx=2.5e-5)),
    (simulate_chirp, ChirpConfig(n=300, dx=1e-4, x0=0.5)),
]


@pytest.mark.parametrize("simulate, cfg", SIM_CASES)
def test_draws_are_bitwise_the_factor_on_every_draw(simulate, cfg, monkeypatch):
    seeds = (0, 1, 17, 5003)
    got = [simulate(cfg, s).z for s in seeds]
    with monkeypatch.context() as m:
        m.setattr(synthesis, "_toeplitz_draw", toeplitz_draw)
        want = [simulate(cfg, s).z for s in seeds]
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def counted_factorizations(monkeypatch):
    calls = []
    real = synthesis.chol_jittered

    def chol(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(synthesis, "chol_jittered", chol)
    synthesis._toeplitz_factor.cache_clear()
    return calls


def test_seeds_of_one_turned_config_share_two_factorizations(monkeypatch):
    calls = counted_factorizations(monkeypatch)
    for seed in range(10):
        simulate_turned(TurnedSimConfig(n=300), seed)
    assert calls == [300, 300]


def test_the_origin_never_enters_the_factor(monkeypatch):
    calls = counted_factorizations(monkeypatch)
    simulate_turned(TurnedSimConfig(n=300), 1)
    simulate_turned(TurnedSimConfig(n=300, x0=1.75), 2)
    simulate_chirp(ChirpConfig(n=300, dx=1e-4), 1)
    simulate_chirp(ChirpConfig(n=300, dx=1e-4, x0=0.5), 2)
    assert calls == [300, 300, 300]


def test_a_changed_grid_or_kernel_factors_again(monkeypatch):
    calls = counted_factorizations(monkeypatch)
    for cfg in (TurnedSimConfig(n=200), TurnedSimConfig(n=201),
                TurnedSimConfig(n=200, dx=3e-3), TurnedSimConfig(n=200, period=0.11)):
        simulate_turned(cfg, 1)
    # each config is new in n, dx or period to a memo of two entries
    assert calls == [200, 200, 201, 201, 200, 200, 200, 200]


def test_the_shared_factor_is_read_only():
    fac = synthesis._toeplitz_factor(PeriodicParams(10.0, 0.8, 0.1), 50, 2e-3)
    assert not fac.flags.writeable
    with pytest.raises(ValueError):
        fac[0, 0] = 1.0
    assert synthesis._toeplitz_factor(PeriodicParams(10.0, 0.8, 0.1), 50, 2e-3) is fac


# ---------------------------------------------------------------------------
# watershed dale segmentation


def test_watershed_single_v_spans_profile():
    p = profile_of([2.0, 1.0, 0.0, 1.0, 2.0])
    dales = watershed_dales(p)
    assert len(dales) == 1
    d = dales[0]
    assert (d.left, d.pit, d.right) == (0, 2, 4)
    assert d.width == 4.0


def test_watershed_cosine_periods():
    periods, spp = 6, 20
    p = trough_cosine(periods, spp)
    dales = watershed_dales(p)
    assert len(dales) == periods - 1
    widths = np.array([d.width for d in dales])
    assert np.all(np.abs(widths - 1.0) <= p.dx + 1e-12)
    pits = [d.pit for d in dales]
    assert pits == sorted(pits)
    # interiors are disjoint: consecutive dales share only the peak
    for a, b in zip(dales, dales[1:]):
        assert a.right == b.left


def test_watershed_w_merge_with_trapezoid_oracle():
    z = np.array([2.0, 1.0, 0.2, 1.1, 0.3, 1.0, 2.0])
    p = profile_of(z)
    dales = watershed_dales(p)
    assert [(d.left, d.right) for d in dales] == [(0, 3), (3, 6)]
    # volumes against the direct water-fill area
    assert abs(dales[0].volume - np.trapezoid(np.clip(1.1 - z[0:4], 0, None))) < 1e-12
    assert abs(dales[1].volume - np.trapezoid(np.clip(1.1 - z[3:7], 0, None))) < 1e-12
    assert abs(dales[0].volume - 1.0) < 1e-12
    assert abs(dales[1].volume - 0.9) < 1e-12
    # pruning below 0.95 merges the shallow right dale across its lower
    # peak (the shared interior one) into the left dale
    merged = watershed_dales(p, volume_threshold=0.95)
    assert len(merged) == 1
    d = merged[0]
    assert (d.left, d.pit, d.right) == (0, 2, 6)
    assert abs(d.volume - np.trapezoid(np.clip(2.0 - z, 0, None))) < 1e-12


def test_watershed_monotone_profile_has_no_dales():
    assert watershed_dales(profile_of([0.0, 1.0, 2.0, 3.0])) == []
    assert watershed_dales(profile_of([3.0, 2.0, 1.0, 0.0])) == []
    assert watershed_dales(profile_of([1.0, 1.0, 1.0])) == []


def test_watershed_dale_invariants_on_turned_draw():
    p = simulate_turned(TurnedSimConfig(n=500), 4)
    dales = watershed_dales(p)
    assert len(dales) > 1
    for d in dales:
        assert d.left < d.pit < d.right
        assert d.width > 0 and d.volume >= 0
        assert abs(d.width - (p.x[d.right] - p.x[d.left])) < 1e-12
    for a, b in zip(dales, dales[1:]):
        assert a.right <= b.left


def test_watershed_rejects_incomplete_and_bad_threshold():
    g = make_grid(0.0, 1.0, 4)
    holed = Profile(g, np.array([1.0, math.nan, 0.5, 1.0]),
                    np.array([True, False, True, True]))
    with pytest.raises(MustImputeFirstError):
        watershed_dales(holed)
    with pytest.raises(ValueError):
        watershed_dales(profile_of([1.0, 0.0, 1.0]), volume_threshold=-0.1)


def test_a_nan_volume_threshold_is_rejected():
    # no volume compares below NaN, so it would prune nothing
    profile = profile_of([1.0, 0.0, 0.9, 0.2, 1.0])
    with pytest.raises(ValueError, match="volume threshold"):
        watershed_dales(profile, volume_threshold=math.nan)
    with pytest.raises(ValueError, match="volume threshold"):
        mask_smallest_width_dales(profile, 1, math.nan)


# ---------------------------------------------------------------------------
# dale masking


def test_mask_dales_count_zero_is_identity():
    p = trough_cosine(3)
    out = mask_smallest_width_dales(p, 0)
    assert np.array_equal(out.z, p.z)
    assert np.array_equal(out.valid, p.valid)


def test_mask_dales_narrowest_only():
    # dales of widths 3, 2, 3; the middle one is uniquely narrowest
    z = [2.0, 0.0, 1.8, 2.0, 0.0, 2.0, 0.5, 1.9, 2.0]
    p = profile_of(z)
    dales = watershed_dales(p)
    assert sorted(d.width for d in dales) == [2.0, 3.0, 3.0]
    out = mask_smallest_width_dales(p, 1)
    assert np.array_equal(np.flatnonzero(~out.valid), [4])
    assert np.array_equal(out.z, p.z)


def test_mask_dales_all_of_cosine():
    periods = 5
    p = trough_cosine(periods)
    dales = watershed_dales(p)
    out = mask_smallest_width_dales(p, len(dales))
    want_invalid = np.zeros(p.n, dtype=bool)
    for d in dales:
        want_invalid[d.left + 1 : d.right] = True
    assert np.array_equal(~out.valid, want_invalid)


def test_mask_dales_turned_fraction_in_band():
    p = simulate_turned(TurnedSimConfig(n=2000), 1)
    dales = watershed_dales(p)
    threshold = 0.5 * max(d.volume for d in dales)
    out = mask_smallest_width_dales(p, 5, threshold)
    frac = 1.0 - np.mean(out.valid)
    assert 0.05 <= frac <= 0.20
    assert np.array_equal(out.z, p.z)


def test_mask_dales_errors():
    p = profile_of([2.0, 1.0, 0.0, 1.0, 2.0])
    with pytest.raises(InsufficientFeaturesError):
        mask_smallest_width_dales(p, 2)
    with pytest.raises(ValueError):
        mask_smallest_width_dales(p, -1)


# ---------------------------------------------------------------------------
# gradient masking


def test_mask_gradient_constant_profile_keeps_everything():
    p = profile_of([1.5] * 10)
    out = mask_gradient(p, 1e-9)
    assert np.all(out.valid)


def test_mask_gradient_needs_two_points():
    with pytest.raises(EmptyDatasetError, match="at least two points"):
        mask_gradient(profile_of([1.5]), 1.0)
    assert np.all(mask_gradient(profile_of([1.5, 1.5]), 1.0).valid)


def test_mask_gradient_ramp_masks_all():
    g = make_grid(0.0, 1.0, 8)
    p = Profile(g, 2.0 * g.points(), None)
    out = mask_gradient(p, 1.0)
    assert not np.any(out.valid)
    assert np.array_equal(out.z, p.z)


def test_mask_gradient_chirp_monotone_in_threshold():
    cfg = ChirpConfig(dx=1e-4, n=1250)
    p = simulate_chirp(cfg, 2)
    slope = np.abs(np.gradient(p.z, p.dx))
    thresholds = [float(np.quantile(slope, q)) for q in (0.3, 0.5, 0.7)]
    fracs = [1.0 - np.mean(mask_gradient(p, t).valid) for t in thresholds]
    assert fracs[0] > fracs[1] > fracs[2]
    # spurious points concentrate where the wavelength is small
    out = mask_gradient(p, thresholds[1])
    third = p.n // 3
    assert np.mean(~out.valid[:third]) > np.mean(~out.valid[-third:])


def test_mask_gradient_errors():
    p = profile_of([0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        mask_gradient(p, 0.0)
    g = make_grid(0.0, 1.0, 3)
    holed = Profile(g, np.array([0.0, math.nan, 0.0]),
                    np.array([True, False, True]))
    with pytest.raises(MustImputeFirstError):
        mask_gradient(holed, 1.0)


# ---------------------------------------------------------------------------
# watershed and mask invariants on random complete profiles


@st.composite
def complete_profiles(draw, min_size=1):
    n = draw(st.integers(min_size, 60))
    # small integers make plateaus and ties; floats make generic shapes
    heights = st.integers(-4, 4).map(float) | st.floats(-1e3, 1e3)
    z = draw(st.lists(heights, min_size=n, max_size=n))
    dx = draw(st.sampled_from([1e-4, 0.01, 1.0]))
    return profile_of(z, dx)


def ref_peaks(z):
    """Lower-middle index of every run of equal heights that stands above
    its neighbouring runs (a profile end counts as lower)."""
    runs = []
    for _, group in itertools.groupby(range(len(z)), key=lambda i: z[i]):
        group = list(group)
        runs.append((z[group[0]], (group[0] + group[-1]) // 2))
    if len(runs) < 2:
        return []
    return [mid for r, (v, mid) in enumerate(runs)
            if (r == 0 or v > runs[r - 1][0])
            and (r == len(runs) - 1 or v > runs[r + 1][0])]


def check_dales(p, dales):
    for d in dales:
        assert d.left < d.pit < d.right
        assert p.z[d.pit] == np.min(p.z[d.left + 1 : d.right])
        assert d.width == p.x[d.right] - p.x[d.left]
        assert d.volume >= 0.0
    for a, b in zip(dales, dales[1:]):
        assert a.right == b.left


@settings(max_examples=150, deadline=None)
@given(p=complete_profiles(), frac=st.floats(0.0, 1.5))
def test_watershed_invariants_on_random_profiles(p, frac):
    unpruned = watershed_dales(p, 0.0)
    check_dales(p, unpruned)
    peaks = ref_peaks(p.z)
    assert [(d.left, d.right) for d in unpruned] == list(zip(peaks, peaks[1:]))
    t = frac * max((d.volume for d in unpruned), default=1.0)
    dales = watershed_dales(p, t)
    check_dales(p, dales)
    if len(dales) != 1:
        assert all(d.volume >= t for d in dales)


@settings(max_examples=100, deadline=None)
@given(p=complete_profiles(), extra=st.integers(-3, 2), frac=st.floats(0.0, 1.0))
def test_mask_dales_invalidates_exactly_the_narrowest_interiors(p, extra, frac):
    t = frac * max((d.volume for d in watershed_dales(p)), default=1.0)
    dales = watershed_dales(p, t)
    count = max(len(dales) + extra, 0)
    if count > len(dales):
        with pytest.raises(InsufficientFeaturesError):
            mask_smallest_width_dales(p, count, t)
        return
    out = mask_smallest_width_dales(p, count, t)
    want = p.valid.copy()
    for d in sorted(dales, key=lambda d: (d.width, d.left))[:count]:
        want[d.left + 1 : d.right] = False
    assert np.array_equal(out.valid, want)
    assert np.array_equal(out.z, p.z)


@settings(max_examples=100, deadline=None)
@given(p=complete_profiles(min_size=2), q=st.floats(0.0, 1.0))
def test_mask_gradient_invalidates_exactly_the_steep_points(p, q):
    slope = np.abs(np.gradient(p.z, p.dx))
    # a quantile often lands on a slope itself: the limit is inclusive
    thr = float(np.quantile(slope, q)) or 1.0
    out = mask_gradient(p, thr)
    assert np.array_equal(~out.valid, slope > thr)
    assert np.array_equal(out.z, p.z)


# ---------------------------------------------------------------------------
# the array-pass watershed against the per-point loop it replaced


def oracle_interior_extrema(z):
    runs = []
    start = 0
    for i in range(1, len(z)):
        if z[i] != z[start]:
            runs.append((z[start], start, i - 1))
            start = i
    runs.append((z[start], start, len(z) - 1))
    last = len(runs) - 1
    peaks, pits = [], []
    for r, (v, s, e) in enumerate(runs):
        mid = (s + e) // 2
        lower_left = r == 0 or v > runs[r - 1][0]
        lower_right = r == last or v > runs[r + 1][0]
        if lower_left and lower_right and last > 0:
            peaks.append(mid)
        elif 0 < r < last and v < runs[r - 1][0] and v < runs[r + 1][0]:
            pits.append(mid)
    return peaks, pits


def oracle_measure(profile, left, right):
    z, x = profile.z, profile.x
    level = min(z[left], z[right])
    seg = np.clip(level - z[left : right + 1], 0.0, None)
    volume = float(np.trapezoid(seg, x[left : right + 1]))
    pit = left + 1 + int(np.argmin(z[left + 1 : right]))
    return Dale(left, right, pit, float(x[right] - x[left]), volume)


def oracle_watershed_dales(profile, volume_threshold=0.0):
    """Rebuilds the smallest-dale list and searches it on every merge."""
    peaks, _ = oracle_interior_extrema(profile.z)
    dales = [
        oracle_measure(profile, peaks[i], peaks[i + 1]) for i in range(len(peaks) - 1)
    ]
    z = profile.z
    while len(dales) > 1:
        small = [d for d in dales if d.volume < volume_threshold]
        if not small:
            break
        target = min(small, key=lambda d: (d.volume, d.left))
        i = dales.index(target)
        low_side = "left" if z[target.left] <= z[target.right] else "right"
        j = i - 1 if low_side == "left" else i + 1
        if j < 0 or j >= len(dales):
            del dales[i]
            continue
        left = min(dales[i].left, dales[j].left)
        right = max(dales[i].right, dales[j].right)
        merged = oracle_measure(profile, left, right)
        dales[min(i, j) : max(i, j) + 1] = [merged]
    return dales


def dale_bits(dales):
    return [(type(d.left), type(d.pit), d.left, d.right, d.pit,
             struct.pack("<d", d.width), struct.pack("<d", d.volume)) for d in dales]


def assert_same_dales(p, threshold):
    assert dale_bits(watershed_dales(p, threshold)) == dale_bits(
        oracle_watershed_dales(p, threshold))


@settings(max_examples=300, deadline=None)
@given(p=complete_profiles(), frac=st.floats(0.0, 1.5))
def test_watershed_is_bitwise_the_per_point_loop(p, frac):
    peaks, pits = _interior_extrema(p.z)
    assert (peaks.tolist(), pits.tolist()) == oracle_interior_extrema(p.z)
    raw = oracle_watershed_dales(p)
    assert_same_dales(p, 0.0)
    assert_same_dales(p, frac * max((d.volume for d in raw), default=1.0))


@pytest.mark.parametrize("n", [300, 1000, 2000])
def test_watershed_is_bitwise_the_per_point_loop_on_turned_draws(n):
    for seed in range(3):
        p = simulate_turned(TurnedSimConfig(n=n), 1000 + seed)
        largest = max(d.volume for d in oracle_watershed_dales(p))
        for threshold in (0.0, 0.5 * largest):
            assert_same_dales(p, threshold)


def test_watershed_merges_the_leftmost_of_equal_volumes_first():
    # four dales of volume exactly 2; pruned below 3, the leftmost drains
    # right into its neighbor (volume 4), then the next leftmost small
    # one, (4, 6), drains left and the last follows: one dale.  Merging
    # the rightmost first would leave (0, 4) and (4, 8), both of volume 4
    p = profile_of([3.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 3.0])
    assert [d.volume for d in watershed_dales(p)] == [2.0] * 4
    dales = watershed_dales(p, 3.0)
    assert [(d.left, d.right) for d in dales] == [(0, 8)]
    assert_same_dales(p, 3.0)
