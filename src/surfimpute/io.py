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
from .profile import Profile, profile_from_arrays

PROFILE_HEADER = "x_mm,z_um,valid"
POSTERIOR_HEADER = "x_mm,post_mean,post_lo95,post_hi95"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_profile_csv(profile: Profile, path) -> None:
    lines = [PROFILE_HEADER]
    for x, z, ok in zip(profile.x, profile.z, profile.valid):
        # invalid samples carry no height; never leak one into the file
        lines.append(f"{_fmt(x)},{_fmt(z) if ok else 'nan'},{1 if ok else 0}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile_csv(path) -> Profile:
    x, z, valid = [], [], []
    with open(path) as fh:
        lines = fh.read().splitlines()
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
        if flag not in (0, 1):
            raise ConfigError("valid flag must be 0 or 1", line=lineno)
        if flag == 1 and not math.isfinite(zv):
            raise ConfigError("valid sample has non-finite height",
                              line=lineno)
        x.append(xv)
        z.append(zv)
        valid.append(bool(flag))
    if not x:
        raise ConfigError("no data rows")
    return profile_from_arrays(np.array(x), np.array(z),
                               np.array(valid, dtype=bool))


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
    with open(path) as fh:
        lines = fh.read().splitlines()
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

    ``schema`` maps key -> converter; unknown or duplicate keys and
    unconvertible values raise ConfigError with the line number.
    Returns only the keys present.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def config_bool(s: str) -> bool:
    low = s.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")
