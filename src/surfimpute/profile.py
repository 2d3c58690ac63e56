"""Core types and operations for 1-D surface profiles.

Heights are micrometres, abscissa positions millimetres, everywhere in
the library; unit conversions belong at I/O boundaries.  A profile is a
uniformly sampled height trace with a per-point validity flag; invalid
points are the ones imputation has to fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDatasetError, NoProfileElementsError

# Rsm hysteresis bands sit at mean +- RSM_HYSTERESIS * Rq
RSM_HYSTERESIS = 0.1
# largest deviation of an abscissa step from the mean step, relative
GRID_REL_TOL = 1e-6


@dataclass(frozen=True)
class Grid1D:
    """Uniform abscissa grid x_i = x0 + i*dx, all in mm."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if not (self.dx > 0.0) or not math.isfinite(self.dx):
            raise ValueError(f"grid spacing must be positive, got {self.dx}")
        if self.n < 1:
            raise ValueError(f"grid needs at least one point, got n={self.n}")
        if not math.isfinite(self.x0):
            raise ValueError(f"grid origin must be finite, got {self.x0}")

    def points(self) -> np.ndarray:
        # direct x0 + i*dx, never cumulative: keeps error at one ulp per index
        return self.x0 + np.arange(self.n, dtype=float) * self.dx

    @property
    def nyquist(self) -> float:
        """Highest representable spatial frequency, 1/(2*dx) in 1/mm."""
        return 0.5 / self.dx


def make_grid(x0: float, dx: float, n: int) -> Grid1D:
    return Grid1D(float(x0), float(dx), int(n))


@dataclass(frozen=True)
class Profile:
    """Heights z (um) with validity flags on a uniform grid (mm).

    ``x`` is the materialized abscissa vector.  Profiles read from disk
    keep the exact values from the file so a write round-trips bitwise;
    profiles built from a grid materialize ``grid.points()`` once.
    Arrays are stored read-only; operations return new profiles.
    """

    grid: Grid1D
    z: np.ndarray
    valid: np.ndarray
    x: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).copy()
        if z.ndim != 1:
            raise ValueError("heights must be a 1-D array")
        if len(z) != self.grid.n:
            raise ValueError(
                f"got {len(z)} heights for a grid of {self.grid.n} points"
            )
        if self.valid is None:
            valid = np.ones(len(z), dtype=bool)
        else:
            valid = np.asarray(self.valid).astype(bool).copy()
        if valid.shape != z.shape:
            raise ValueError("validity flags must match heights in length")
        if np.any(~np.isfinite(z[valid])):
            raise ValueError("valid heights must be finite")
        x = self.x
        if x is None:
            x = self.grid.points()
        else:
            x = np.asarray(x, dtype=float).copy()
            if x.shape != z.shape:
                raise ValueError("abscissa vector must match heights in length")
        for a in (z, valid, x):
            a.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def dx(self) -> float:
        return self.grid.dx

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))

    @property
    def n_missing(self) -> int:
        return self.n - self.n_valid

    def valid_x(self) -> np.ndarray:
        return self.x[self.valid]

    def valid_z(self) -> np.ndarray:
        return self.z[self.valid]

    def with_mask(self, valid: np.ndarray) -> "Profile":
        return Profile(self.grid, self.z, valid, x=self.x)

    def with_filled(self, values: np.ndarray) -> "Profile":
        """New all-valid profile; ``values`` replace the invalid heights.

        Valid heights are carried over bitwise.
        """
        values = np.asarray(values, dtype=float)
        idx = np.flatnonzero(~self.valid)
        if len(values) != len(idx):
            raise ValueError(
                f"got {len(values)} fill values for {len(idx)} missing points"
            )
        z = self.z.copy()
        z[idx] = values
        return Profile(self.grid, z, None, x=self.x)


def profile_from_arrays(x, z, valid=None) -> Profile:
    """Build a profile from an explicit abscissa vector.

    The vector must be uniformly increasing within ``GRID_REL_TOL`` of its
    mean spacing; the exact values are kept alongside the fitted grid.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise ValueError("abscissa must be a non-empty 1-D array")
    if len(x) == 1:
        grid = Grid1D(float(x[0]), 1.0, 1)
        return Profile(grid, z, valid, x=x)
    steps = np.diff(x)
    dx = float(np.mean(steps))
    if dx <= 0 or np.any(steps <= 0):
        raise ValueError("abscissa must be strictly increasing")
    if np.max(np.abs(steps - dx)) > GRID_REL_TOL * dx:
        raise ValueError("abscissa is not a uniform grid")
    grid = Grid1D(float(x[0]), dx, len(x))
    return Profile(grid, z, valid, x=x)


@dataclass(frozen=True)
class SurfaceDataset:
    """Valid observations (xa, za) plus the abscissas xm still to fill.

    ``idx_a``/``idx_m`` are the grid indices of the two groups, kept so
    grid-aware code can recover integer lags without re-deriving them.
    """

    xa: np.ndarray
    za: np.ndarray
    xm: np.ndarray
    idx_a: np.ndarray
    idx_m: np.ndarray

    @property
    def n_valid(self) -> int:
        return len(self.xa)

    @property
    def n_missing(self) -> int:
        return len(self.xm)


def split_dataset(profile: Profile) -> SurfaceDataset:
    """Split a profile into its valid observations and missing abscissas."""
    idx_a = np.flatnonzero(profile.valid)
    if len(idx_a) == 0:
        raise EmptyDatasetError("profile has no valid points")
    idx_m = np.flatnonzero(~profile.valid)
    return SurfaceDataset(
        xa=profile.x[idx_a],
        za=profile.z[idx_a],
        xm=profile.x[idx_m],
        idx_a=idx_a,
        idx_m=idx_m,
    )


def rq(profile: Profile) -> float:
    """RMS height about the mean line, over valid points (um)."""
    z = profile.valid_z()
    if len(z) == 0:
        raise EmptyDatasetError("Rq needs at least one valid point")
    dev = z - np.mean(z)
    mean_square = np.mean(dev ** 2)
    if mean_square == 0 and np.any(dev):
        # every square underflowed (deviations below about 1e-162):
        # average the squares of the deviations scaled to at most 1
        top = np.max(np.abs(dev))
        return float(top * np.sqrt(np.mean((dev / top) ** 2)))
    return float(np.sqrt(mean_square))


def rsm(profile: Profile) -> float:
    """Mean spacing of profile elements at the mean line (mm).

    An element boundary is an upward mean-line crossing; a crossing
    qualifies only after the profile has visited both hysteresis bands
    (mean +- ``RSM_HYSTERESIS``*Rq) since the previous qualified crossing,
    which suppresses noise-scale elements.  Operates on the valid
    subsequence.
    """
    xv = profile.valid_x()
    zv = profile.valid_z()
    if len(zv) < 2:
        raise NoProfileElementsError("too few valid points for Rsm")
    m = float(np.mean(zv))
    h = RSM_HYSTERESIS * rq(profile)
    # a crossing at i qualifies when both bands were visited at some
    # index in (previous qualified crossing, i]; last_high[i] and
    # last_low[i] are the latest such visits at or before i (-1: none)
    head = zv[:-1]
    idx = np.arange(len(head))
    last_high = np.maximum.accumulate(np.where(head >= m + h, idx, -1))
    last_low = np.maximum.accumulate(np.where(head <= m - h, idx, -1))
    qualified = []
    last = -1
    for i in np.flatnonzero((head < m) & (m <= zv[1:])).tolist():
        if last_high[i] > last and last_low[i] > last:
            qualified.append(i)
            last = i
    q = np.array(qualified, dtype=np.intp)
    t = (m - zv[q]) / (zv[q + 1] - zv[q])
    crossings = xv[q] + t * (xv[q + 1] - xv[q])
    if len(crossings) < 2:
        raise NoProfileElementsError(
            "fewer than two qualified mean-line crossings"
        )
    return float(np.mean(np.diff(crossings)))
