"""Classical imputation baselines.

The constant, nearest-neighbour and IDW fills take one pass; the median
filter repeats passes, with no cap, until every gap has closed, and each
pass takes only its frontier: the missing points within half a window
of one that became known in the pass before.  Each function returns
a new, fully valid profile; valid heights are carried over bitwise.
These are the reference methods GP imputation is measured against.
Every fill works on whole arrays of missing points at once; the
windowed ones go through row blocks of bounded size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoverageError, EmptyDatasetError
from .profile import Profile

# largest (missing points x window) band handled in one step
_BLOCK_ENTRIES = 1 << 16


def _check(profile: Profile) -> np.ndarray:
    idx = np.flatnonzero(~profile.valid)
    if profile.n_valid == 0:
        raise EmptyDatasetError("no valid points to impute from")
    return idx


def _row_blocks(n_rows: int, width: int):
    """Row slices whose (rows x width) band stays within _BLOCK_ENTRIES."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def impute_constant(profile: Profile, statistic: str = "mean") -> Profile:
    """Fill every missing height with the mean or median of the valid ones."""
    idx = _check(profile)
    zv = profile.valid_z()
    if statistic == "mean":
        value = float(np.mean(zv))
    elif statistic == "median":
        value = float(np.median(zv))
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    return profile.with_filled(np.full(len(idx), value))


def impute_nn_mean(profile: Profile) -> Profile:
    """Mean of the nearest valid neighbor on each side (one-sided at the
    ends); contiguous gaps become plateaus."""
    idx = _check(profile)
    valid_idx = np.flatnonzero(profile.valid)
    z = profile.z
    pos = np.searchsorted(valid_idx, idx)
    left = z[valid_idx[np.maximum(pos - 1, 0)]]
    right = z[valid_idx[np.minimum(pos, len(valid_idx) - 1)]]
    fills = np.where(pos == 0, right, left)
    both = (pos > 0) & (pos < len(valid_idx))
    fills[both] = 0.5 * (left[both] + right[both])
    return profile.with_filled(fills)


def _window_medians(z: np.ndarray, known: np.ndarray, rows: np.ndarray,
                    offsets: np.ndarray):
    """Median of the known heights in each row's window (numpy's median
    arithmetic); every row needs at least one."""
    cols = rows[:, None] + offsets
    inside = (cols >= 0) & (cols < len(z))
    np.clip(cols, 0, len(z) - 1, out=cols)
    use = inside & known[cols]
    vals = np.where(use, z[cols], np.inf)
    vals.sort(axis=1)
    count = np.count_nonzero(use, axis=1)
    r = np.arange(len(rows))
    # unknown entries sort last as +inf, so the median sits at the
    # middle of each row's first ``count`` entries; numpy sums the middle
    # entries from +0.0, which turns a -0.0 median into +0.0
    med = vals[r, (count - 1) // 2] + 0.0
    even = count % 2 == 0
    med[even] = (med[even] + vals[r[even], count[even] // 2]) / 2
    return med


def impute_median_filter(profile: Profile, window: int = 5) -> Profile:
    """Repeated median-filter fill, run until every gap has closed.

    Each pass fills every still-missing point that has at least one
    valid-or-filled point inside its centred window with the median of
    those (median of an even count = mean of the two middle values,
    numpy's convention); all fills of a pass read the heights as they
    stood at its start.  Gaps longer than the window fill inward from
    both sides, one pass per layer, so a point d steps from the nearest
    valid one fills in pass ceil(d / half-window).  Each pass computes
    medians for its own frontier only, which keeps the work linear in
    the number of missing points however long a gap is.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 3")
    idx = _check(profile)
    z = profile.z.copy()
    known = profile.valid.copy()
    # a window wider than the profile sees nothing more than the profile
    half = min((window - 1) // 2, profile.n - 1)
    offsets = np.arange(-half, half + 1)
    # the frontier of pass k + 1 is the layer of missing points whose
    # nearest valid point lies k * half + 1 to (k + 1) * half steps away
    valid_idx = np.flatnonzero(known)
    pos = np.searchsorted(valid_idx, idx)
    steps = np.minimum(np.abs(idx - valid_idx[np.maximum(pos - 1, 0)]),
                       np.abs(valid_idx[np.minimum(pos, len(valid_idx) - 1)] - idx))
    layer = (steps - 1) // half
    order = np.argsort(layer, kind="stable")
    bounds = np.flatnonzero(np.diff(layer[order])) + 1
    for rows in np.split(idx[order], bounds):
        for block in _row_blocks(len(rows), len(offsets)):
            z[rows[block]] = _window_medians(z, known, rows[block], offsets)
        known[rows] = True
    return profile.with_filled(z[idx])


def impute_idw(profile: Profile, power: float = 2.0,
               radius: float | None = None) -> Profile:
    """Inverse-distance weighting over valid points within ``radius``.

    Weights are |x - x_j|^(-power); the radius defaults to 10 grid
    steps.  A missing point with no valid support inside the radius
    raises CoverageError.  The support of each missing point is the
    band of sorted valid abscissas that ``searchsorted`` finds within
    the radius, widened by a few ulps so that rounding cannot drop a
    point the exact test ``|x_j - x| <= radius`` accepts.
    """
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    radius = 10.0 * profile.dx if radius is None else float(radius)
    if not radius > 0:
        raise ValueError("radius must be positive")
    idx = _check(profile)
    xv = profile.valid_x()
    zv = profile.valid_z()
    xm = profile.x[idx]
    slack = 8.0 * np.finfo(float).eps * (np.abs(xm) + radius)
    first = np.searchsorted(xv, xm - radius - slack, side="left")
    stop = np.searchsorted(xv, xm + radius + slack, side="right")
    fills = np.empty(len(idx))
    # one band width for every block, so that a row's sum does not
    # depend on which rows share its block
    band = np.arange(int(np.max(stop - first, initial=0)))
    for block in _row_blocks(len(idx), len(band)):
        x = xm[block]
        cols = first[block, None] + band
        in_band = cols < stop[block, None]
        np.minimum(cols, len(xv) - 1, out=cols)
        d = np.abs(xv[cols] - x[:, None])
        near = in_band & (d <= radius)
        uncovered = np.flatnonzero(~near.any(axis=1))
        if len(uncovered):
            bad = x[uncovered[0]]
            raise CoverageError(
                f"no valid point within radius {radius:g} of x={bad:g}"
            )
        w = np.power(d, -power, out=np.zeros_like(d), where=near)
        fills[block] = np.sum(w * zv[cols], axis=1) / np.sum(w, axis=1)
    return profile.with_filled(fills)
