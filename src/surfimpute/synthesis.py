"""Synthetic profiles and mask generators for imputation studies.

Two virtual measurements: a turned (periodically tooled) surface drawn
from a periodic-kernel GP, and a deterministic chirp whose wavelength
steps up after each interval, both with an independent colored-noise
draw added.  Masks mark points invalid either by watershed dale
membership (deep features swallow the probe signal) or by local slope
(steep flanks reflect the beam away).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
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


def _toeplitz_draw(kernel, grid: Grid1D, rng) -> np.ndarray:
    """One zero-mean draw of a stationary kernel on a uniform grid."""
    table = kernels.value_on_lags(kernel, np.arange(grid.n, dtype=float) * grid.dx)
    fac, _ = chol_jittered(scipy.linalg.toeplitz(table))
    return fac @ rng.standard_normal(grid.n)


def simulate_turned(config: TurnedSimConfig, seed: int) -> Profile:
    """Seeded turned-surface measurement: periodic GP draw plus an
    independent colored-noise draw (one draw from the summed kernel)."""
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
    independent colored-noise draw."""
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
    """Peaks and pits from maximal constant runs; a plateau counts once,
    at its lower-middle index.  Pits must be strictly interior, but a
    boundary run higher than its single inward neighbor counts as a
    bounding peak, so dales may lean on the profile ends (a V-shaped
    profile is one dale spanning the whole record)."""
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


def _measure(profile: Profile, left: int, right: int) -> Dale:
    z, x = profile.z, profile.x
    level = min(z[left], z[right])
    seg = np.clip(level - z[left : right + 1], 0.0, None)
    volume = float(np.trapezoid(seg, x[left : right + 1]))
    pit = left + 1 + int(np.argmin(z[left + 1 : right]))
    return Dale(left, right, pit, float(x[right] - x[left]), volume)


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
    dale is kept regardless.  Returns dales ordered left to right.
    """
    if not np.all(profile.valid):
        raise MustImputeFirstError("watershed needs a complete profile")
    if volume_threshold < 0:
        raise ValueError("volume threshold must be >= 0")
    peaks, _ = _interior_extrema(profile.z)
    dales = [
        _measure(profile, peaks[i], peaks[i + 1]) for i in range(len(peaks) - 1)
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
        merged = _measure(profile, left, right)
        dales[min(i, j) : max(i, j) + 1] = [merged]
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
