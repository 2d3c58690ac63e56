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


def _rows(path, header: str, convert):
    """(line number, ``convert(fields)``) of each data row of a CSV that
    starts with ``header``, blank lines skipped.  A row must have as many
    fields as the header, ``convert`` must take them (its ValueError is
    the row's fault), and the first value, the abscissa, must be finite
    and above the row before's; every fault is a ConfigError at its line."""
    lines = _read_lines(path)
    if not lines or lines[0].strip() != header:
        raise ConfigError(f"expected header {header!r}", line=1)
    n_fields = header.count(",") + 1
    previous = -math.inf
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_fields:
            if not line.strip():
                continue
            raise ConfigError(f"expected {n_fields} comma-separated fields",
                              line=lineno)
        try:
            row = convert(parts)
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
        x = row[0]
        if not math.isfinite(x):
            raise ConfigError("abscissa must be finite", line=lineno)
        if not x > previous:
            raise ConfigError("abscissa must be strictly increasing",
                              line=lineno)
        previous = x
        yield lineno, row


def read_profile_csv(path) -> Profile:
    """Read a profile CSV; every malformed row is a ConfigError that
    names its line: the faults ``_rows`` finds, a bad flag, a valid row
    without a finite height, or a step that breaks the grid's
    ``GRID_REL_TOL``."""
    x, z, valid, linenos = [], [], [], []
    for lineno, (xv, zv, flag) in _rows(
            path, PROFILE_HEADER, lambda p: (float(p[0]), float(p[1]), int(p[2]))):
        if flag not in (0, 1):
            raise ConfigError("valid flag must be 0 or 1", line=lineno)
        if flag == 1 and not math.isfinite(zv):
            raise ConfigError("valid sample has non-finite height",
                              line=lineno)
        x.append(xv)
        z.append(zv)
        valid.append(flag)
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
    """Returns (xm, mean, lo95, hi95) arrays; besides the faults ``_rows``
    finds, a value that is not finite is a ConfigError at its line."""
    rows = []
    for lineno, row in _rows(path, POSTERIOR_HEADER, lambda p: [*map(float, p)]):
        if not all(map(math.isfinite, row)):
            raise ConfigError("posterior values must be finite", line=lineno)
        rows.append(row)
    return tuple(np.array(rows, dtype=float).reshape(-1, 4).T.copy())


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
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}",
                              line=lineno) from exc
    return out

