"""Text formats: profile CSV, posterior CSV, flat key = value configs.

Floats are written with 17 significant digits so that write -> read is
bitwise exact; heights of invalid samples are written as nan and the
stored x column is reused verbatim when reading (no grid re-synthesis,
so positions round-trip exactly too).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .profile import GRID_REL_TOL, Profile, profile_from_arrays

PROFILE_HEADER = "x_mm,z_um,valid"
POSTERIOR_HEADER = "x_mm,post_mean,post_lo95,post_hi95"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _read_lines(path) -> list[str]:
    """The file's lines as UTF-8 text; bytes that do not decode are a
    ConfigError at the line that holds them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: byte 0x{data[exc.start]:02x} "
                          f"cannot be decoded",
                          line=data.count(b"\n", 0, exc.start) + 1) from exc


def write_profile_csv(profile: Profile, path) -> None:
    lines = [PROFILE_HEADER]
    for x, z, ok in zip(profile.x, profile.z, profile.valid):
        # invalid samples carry no height; never leak one into the file
        lines.append(f"{_fmt(x)},{_fmt(z) if ok else 'nan'},{1 if ok else 0}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile_csv(path) -> Profile:
    """Read a profile CSV; every malformed row is a ConfigError that
    names its line: an unparsable field, a bad flag, a valid row without
    a finite height, an abscissa that is not finite or not above the one
    before it, or a step that breaks the grid's ``GRID_REL_TOL``."""
    x, z, valid, linenos = [], [], [], []
    lines = _read_lines(path)
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise ConfigError(f"expected header {PROFILE_HEADER!r}", line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError("expected three comma-separated fields",
                              line=lineno)
        try:
            xv = float(parts[0])
            zv = float(parts[1])
            flag = int(parts[2])
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
        if not math.isfinite(xv):
            raise ConfigError("abscissa must be finite", line=lineno)
        if x and not xv > x[-1]:
            raise ConfigError("abscissa must be strictly increasing",
                              line=lineno)
        if flag not in (0, 1):
            raise ConfigError("valid flag must be 0 or 1", line=lineno)
        if flag == 1 and not math.isfinite(zv):
            raise ConfigError("valid sample has non-finite height",
                              line=lineno)
        x.append(xv)
        z.append(zv)
        valid.append(bool(flag))
        linenos.append(lineno)
    if not x:
        raise ConfigError("no data rows")
    x = np.array(x)
    try:
        return profile_from_arrays(x, np.array(z), np.array(valid, dtype=bool))
    except ValueError as exc:
        # every x is finite and above the one before, so the grid is not
        # uniform: name the first step off the median step, which a lone
        # dropped or shifted row cannot move (it moves the mean step off
        # every step)
        steps = np.diff(x)
        typical = np.median(steps)
        j = int(np.argmax(np.abs(steps - typical) > GRID_REL_TOL * typical))
        raise ConfigError(
            f"{exc}: step {steps[j]:.17g} mm where the typical step is "
            f"{typical:.17g} mm", line=linenos[j + 1]) from exc


def write_posterior_csv(xm, mean, lo95, hi95, path) -> None:
    xm = np.asarray(xm, dtype=float)
    arrays = [np.asarray(a, dtype=float) for a in (mean, lo95, hi95)]
    for a in arrays:
        if a.shape != xm.shape:
            raise ValueError("posterior columns must match query points")
    lines = [POSTERIOR_HEADER]
    for row in zip(xm, *arrays):
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_posterior_csv(path):
    """Returns (xm, mean, lo95, hi95) arrays."""
    lines = _read_lines(path)
    if not lines or lines[0].strip() != POSTERIOR_HEADER:
        raise ConfigError(f"expected header {POSTERIOR_HEADER!r}", line=1)
    cols = [[], [], [], []]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError("expected four comma-separated fields",
                              line=lineno)
        try:
            for col, part in zip(cols, parts):
                col.append(float(part))
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
    return tuple(np.array(c) for c in cols)


# ---------------------------------------------------------------------------
# flat key = value configs


def parse_config(path, schema: dict) -> dict:
    """Read ``key = value`` lines (# comments, blank lines allowed).

    ``schema`` maps key -> converter; unknown or duplicate keys,
    unconvertible values and bytes that are not UTF-8 raise ConfigError
    with the line number.
    Returns only the keys present.
    """
    out = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            out[key] = schema[key](value)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}",
                              line=lineno) from exc
    return out

