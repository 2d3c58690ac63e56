"""Synthetic profiles and mask generators for imputation studies.

Two virtual measurements: a turned (periodically tooled) surface drawn
from a periodic-kernel GP, and a deterministic chirp whose wavelength
steps up after each interval, both with an independent colored-noise
draw added.  Each stationary covariance is factored once per kernel
and grid, and every seed drawn from it reuses that factor.  Masks mark
points invalid either by watershed dale membership (deep features
swallow the probe signal) or by local slope (steep flanks reflect the
beam away).
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

import numpy as np

from . import _lapack, kernels
from .errors import EmptyDatasetError, InsufficientFeaturesError, MustImputeFirstError
from .gp import chol_jittered
from .kernels import NoiseParams, PeriodicParams
from .profile import Grid1D, Profile, make_grid


@dataclass(frozen=True)
class TurnedSimConfig:
    """Periodic-kernel GP draw (heights um, positions mm)."""

    x0: float = 0.0
    dx: float = 2e-3
    n: int = 2000
    sigma2: float = 10.0
    theta: float = 0.8
    period: float = 0.1
    noise_sigma2: float = 0.02
    noise_theta: float = 0.001

    def __post_init__(self):
        make_grid(self.x0, self.dx, self.n)  # the simulator's grid checks
        if not (self.sigma2 > 0 and self.theta > 0 and self.period > 0):
            raise ValueError("kernel parameters must be positive")
        if self.noise_sigma2 < 0 or (self.noise_sigma2 > 0 and not self.noise_theta > 0):
            raise ValueError("bad noise parameters")


@dataclass(frozen=True)
class ChirpConfig:
    """Stepped-wavelength cosine (wavelength rule in um, grid in mm)."""

    x0: float = 0.0
    dx: float = 2.5e-5
    n: int = 5000
    amplitude: float = 5.0
    k_max: int = 24
    noise_sigma2: float = 1e-4
    noise_theta: float = 0.02

    def __post_init__(self):
        make_grid(self.x0, self.dx, self.n)  # the simulator's grid checks
        if not self.amplitude > 0 or self.k_max < 1:
            raise ValueError("need a positive amplitude and k_max >= 1")
        if self.noise_sigma2 < 0 or (self.noise_sigma2 > 0 and not self.noise_theta > 0):
            raise ValueError("bad noise parameters")


@functools.lru_cache(maxsize=2)
def _toeplitz_factor(kernel, n: int, dx: float) -> np.ndarray:
    """Read-only lower Cholesky factor of a stationary kernel's Toeplitz
    covariance on n points spaced dx (the origin never enters a lag).

    Memoized on (kernel, n, dx), so the seeds of one configuration share
    one factorization.  The two most recent factors stay alive, 8 n^2
    bytes each: a turned configuration keeps both (its periodic texture
    and its coloured noise), 1.4 MB at n = 300 and 64 MB at the default
    n = 2000; the default 5000-point chirp keeps one, 200 MB.
    """
    table = kernels.value_on_lags(kernel, np.arange(n, dtype=float) * dx)
    fac, _ = chol_jittered(_lapack.toeplitz(table))
    fac.setflags(write=False)
    return fac


def _toeplitz_draw(kernel, grid: Grid1D, rng) -> np.ndarray:
    """One zero-mean draw of a stationary kernel on a uniform grid."""
    return _toeplitz_factor(kernel, grid.n, grid.dx) @ rng.standard_normal(grid.n)


def simulate_turned(config: TurnedSimConfig, seed: int) -> Profile:
    """Seeded turned-surface measurement: periodic GP draw plus an
    independent colored-noise draw (one draw from the summed kernel).
    Seeds of one configuration share both factors (_toeplitz_factor)."""
    grid = make_grid(config.x0, config.dx, config.n)
    rng = np.random.default_rng(seed)
    z = _toeplitz_draw(
        PeriodicParams(config.sigma2, config.theta, config.period), grid, rng
    )
    if config.noise_sigma2 > 0:
        z = z + _toeplitz_draw(
            NoiseParams("colored", config.noise_sigma2, config.noise_theta),
            grid,
            rng,
        )
    return Profile(grid, z, None)


def chirp_wavelengths(k_max: int) -> np.ndarray:
    """Interval wavelengths 10^(1 + k/k_max) um, returned in mm."""
    k = np.arange(k_max + 1, dtype=float)
    return 10.0 ** (1.0 + k / k_max) * 1e-3


def chirp_wavelength_at(config: ChirpConfig, x) -> np.ndarray:
    """Piecewise-constant local wavelength lambda(x) in mm.

    Interval k spans [sum of the first k wavelengths, plus the next);
    beyond the last boundary the final wavelength continues.
    """
    lam = chirp_wavelengths(config.k_max)
    edges = np.concatenate([[0.0], np.cumsum(lam)])
    k = np.clip(np.searchsorted(edges, np.asarray(x, dtype=float), side="right") - 1,
                0, config.k_max)
    return lam[k]


def simulate_chirp(config: ChirpConfig, seed: int) -> Profile:
    """Seeded chirp measurement: (a/2) cos(2 pi x / lambda(x)) plus an
    independent colored-noise draw.  Seeds of one configuration share
    the noise factor (_toeplitz_factor)."""
    grid = make_grid(config.x0, config.dx, config.n)
    x = grid.points()
    z = 0.5 * config.amplitude * np.cos(2.0 * np.pi * x / chirp_wavelength_at(config, x))
    if config.noise_sigma2 > 0:
        rng = np.random.default_rng(seed)
        z = z + _toeplitz_draw(
            NoiseParams("colored", config.noise_sigma2, config.noise_theta),
            grid,
            rng,
        )
    return Profile(grid, z, None)


# ---------------------------------------------------------------------------
# watershed dale segmentation


@dataclass(frozen=True)
class Dale:
    """A dale: grid indices of its bounding peaks and pit, plus its
    width (mm) and water-fill volume (um*mm) at the lower peak level."""

    left: int
    right: int
    pit: int
    width: float
    volume: float


def _interior_extrema(z: np.ndarray):
    """Peak and pit indices from maximal constant runs; a plateau counts
    once, at its lower-middle index.  Pits must be strictly interior,
    but a boundary run higher than its single inward neighbor counts as
    a bounding peak, so dales may lean on the profile ends (a V-shaped
    profile is one dale spanning the whole record)."""
    starts = np.concatenate(([0], np.flatnonzero(z[1:] != z[:-1]) + 1))
    ends = np.append(starts[1:] - 1, len(z) - 1)
    mids = (starts + ends) // 2
    v = z[starts]
    if len(v) < 2:
        return mids[:0], mids[:0]
    rise, fall = v[1:] > v[:-1], v[1:] < v[:-1]
    peaks = mids[np.append(True, rise) & np.append(fall, True)]
    pits = mids[1:-1][fall[:-1] & rise[1:]]
    return peaks, pits


def _volume(z: np.ndarray, dx: np.ndarray, left: int, right: int) -> float:
    """Water-fill volume of the span [left, right] at its lower end,
    np.trapezoid(np.clip(level - z[left:right+1], 0, None), x[left:right+1])
    in that function's own operations (clip with no upper bound is
    maximum; dx is np.diff of the whole abscissa), so bit for bit.
    A merged dale's volume comes from here; _volumes forms the first
    ones all at once."""
    level = min(z[left], z[right])
    s = np.maximum(level - z[left : right + 1], 0.0)
    return float((dx[left:right] * (s[1:] + s[:-1]) / 2.0).sum())


def _volumes(z: np.ndarray, dx: np.ndarray, peaks: np.ndarray) -> list:
    """_volume of every span between consecutive peaks, bit for bit:
    the elementwise terms of all spans come from one pass and each
    span's terms are summed on their own by the same pairwise .sum()
    (np.add.reduceat would add them in sequence).  Only
    maximum(-0.0, 0.0) may differ between numpy's SIMD and scalar
    loops, which flips the sign of a zero term; every span holds a pit
    below its level, whose terms are positive or +0.0, so that sign
    never reaches the sum."""
    left, right = peaks[:-1], peaks[1:]
    level = np.where(z[right] < z[left], z[right], z[left])  # as min() picks
    first, last = peaks[0], peaks[-1]
    lev = np.repeat(level, right - left)
    s0 = np.maximum(lev - z[first:last], 0.0)
    s1 = np.maximum(lev - z[first + 1 : last + 1], 0.0)
    terms = dx[first:last] * (s1 + s0) / 2.0
    cut = (peaks - first).tolist()
    return [float(terms[a:b].sum()) for a, b in zip(cut, cut[1:])]


def watershed_dales(profile: Profile, volume_threshold: float = 0.0):
    """Dales between consecutive peaks, volume-pruned.

    Bounding peaks include profile endpoints that sit above their
    inward neighbor, so a V-shaped record is one dale spanning it; a
    monotone record has no interior pit and yields no dales.  A dale
    whose water-fill volume (area to the horizontal through its lower
    bounding peak) is below the threshold is merged into the neighbor
    across that lower peak.  When that lower peak is the outermost one
    there is no neighbor behind it: the water drains off the open
    profile end, so the dale is dropped as no feature at all.  A lone
    dale is kept regardless.  The smallest dale goes first (the
    leftmost of equal volumes).  Returns dales ordered left to right.
    """
    if not np.all(profile.valid):
        raise MustImputeFirstError("watershed needs a complete profile")
    if not volume_threshold >= 0:  # NaN too: no volume is below it
        raise ValueError("volume threshold must be >= 0")
    z, x = profile.z, profile.x
    peaks, _ = _interior_extrema(z)
    dx = np.diff(x)
    # dale k spans [left[k], right[k]]; a merge keeps the left node of the
    # pair, so the live nodes stay in index order, and prev/nxt (-1 at the
    # ends) link them.  stamp[k] counts a node's changes, -1 once it is gone
    left, right = peaks[:-1].tolist(), peaks[1:].tolist()
    m = len(left)
    volume = _volumes(z, dx, peaks) if m else []
    prev, nxt = list(range(-1, m - 1)), [*range(1, m), -1]
    stamp = [0] * m
    # only dales below the threshold enter the heap; an entry whose stamp
    # is no longer its node's is skipped when it surfaces
    heap = [(v, a, k, 0) for k, (v, a) in enumerate(zip(volume, left)) if v < volume_threshold]
    heapq.heapify(heap)
    count = m
    while count > 1 and heap:
        _, _, k, s = heapq.heappop(heap)
        if s != stamp[k]:
            continue
        j = prev[k] if z[left[k]] <= z[right[k]] else nxt[k]
        if j < 0:  # the water drains off the open end
            gone = k
        else:
            keep, gone = min(j, k), max(j, k)
            right[keep] = right[gone]
            volume[keep] = _volume(z, dx, left[keep], right[keep])
            stamp[keep] += 1
            if volume[keep] < volume_threshold:
                heapq.heappush(heap, (volume[keep], left[keep], keep, stamp[keep]))
        p, q = prev[gone], nxt[gone]
        if p >= 0:
            nxt[p] = q
        if q >= 0:
            prev[q] = p
        stamp[gone] = -1
        count -= 1
    dales = []
    for k in range(m):
        if stamp[k] >= 0:
            a, b = left[k], right[k]
            pit = a + 1 + int(z[a + 1 : b].argmin())
            dales.append(Dale(a, b, pit, float(x[b] - x[a]), volume[k]))
    return dales


def mask_smallest_width_dales(profile: Profile, count: int,
                              volume_threshold: float = 0.0) -> Profile:
    """Invalidate the interior points of the ``count`` narrowest dales."""
    if count < 0:
        raise ValueError("need count >= 0")
    if count == 0:
        return profile.with_mask(profile.valid)
    dales = watershed_dales(profile, volume_threshold)
    if len(dales) < count:
        raise InsufficientFeaturesError(
            f"asked for {count} dales but the profile has {len(dales)}"
        )
    chosen = sorted(dales, key=lambda d: (d.width, d.left))[:count]
    valid = profile.valid.copy()
    for d in chosen:
        valid[d.left + 1 : d.right] = False
    return profile.with_mask(valid)


def mask_gradient(profile: Profile, threshold: float) -> Profile:
    """Invalidate points whose absolute local slope (um/mm) exceeds the
    threshold; central differences inside, one-sided at the ends."""
    if not np.all(profile.valid):
        raise MustImputeFirstError("gradient masking needs a complete profile")
    if not threshold > 0:
        raise ValueError("slope threshold must be positive")
    if profile.n < 2:
        raise EmptyDatasetError("gradient masking needs at least two points")
    slope = np.gradient(profile.z, profile.dx)
    return profile.with_mask(np.abs(slope) <= threshold)
