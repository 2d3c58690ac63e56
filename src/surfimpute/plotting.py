"""Deterministic SVG rendering of profiles and imputation results.

The renderer is a pure function of its inputs: no timestamps, no
randomness, fixed float formatting.  Rendering the same data twice
yields byte-identical files, which makes image output testable.
Masked spans carry their data coordinates as attributes so tests (and
other tools) can read structure back out of the image.
"""

from __future__ import annotations

import numpy as np

from .profile import Profile

WIDTH = 900.0
HEIGHT = 480.0
MARGIN_L = 70.0
MARGIN_R = 24.0
MARGIN_T = 34.0
MARGIN_B = 48.0
N_TICKS = 5

_STYLE = (
    "text{font-family:sans-serif;font-size:12px;fill:#222}"
    ".title{font-size:14px}"
    ".axis{stroke:#222;stroke-width:1;fill:none}"
    ".tick{stroke:#222;stroke-width:1}"
    ".masked-span{fill:#dddddd}"
    ".band{fill:#b8cce4;fill-opacity:0.7;stroke:none}"
    ".truth{stroke:#888888;stroke-width:1;fill:none}"
    ".imputed{stroke:#cc3311;stroke-width:1.2;fill:none}"
    ".profile{stroke:#004488;stroke-width:1;fill:none}"
    ".valid{fill:#004488;stroke:none}"
)


def _fmt(v: float) -> str:
    # fixed 3-decimal pixel coordinates keep output deterministic
    return f"{v:.3f}"


def _ticks(lo: float, hi: float, count: int = N_TICKS) -> np.ndarray:
    return np.linspace(lo, hi, count)


def masked_runs(valid: np.ndarray):
    """Contiguous runs of invalid samples as (start, stop) index pairs,
    stop exclusive."""
    missing = np.concatenate(([False], ~np.asarray(valid, dtype=bool), [False]))
    edges = np.flatnonzero(np.diff(missing)).tolist()
    return list(zip(edges[::2], edges[1::2]))


def render_svg(masked: Profile, imputed: Profile | None = None,
               truth: Profile | None = None, band_lo=None, band_hi=None,
               title: str = "") -> str:
    """Render a masked profile, optionally with the imputed curve, the
    ground truth, and a 95 % credible band over the masked points
    (``band_lo`` and ``band_hi`` hold one value per masked point, in
    order)."""
    x = masked.x
    ys = [masked.valid_z()]
    if truth is not None:
        ys.append(truth.z[np.isfinite(truth.z)])
    if imputed is not None:
        ys.append(imputed.z[np.isfinite(imputed.z)])
    has_band = band_lo is not None
    if has_band:
        band_lo = np.asarray(band_lo, dtype=float)
        band_hi = np.asarray(band_hi, dtype=float)
        shape = (masked.n_missing,)
        if band_lo.shape != shape or band_hi.shape != shape:
            raise ValueError("band arrays need one value per masked point")
        ys.extend([band_lo, band_hi])
    yall = np.concatenate([np.atleast_1d(a) for a in ys])
    if len(yall) == 0:
        raise ValueError("nothing to plot")
    x_lo, x_hi = float(x[0]), float(x[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = float(np.min(yall)), float(np.max(yall))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * ph

    def polyline(xs, zs, cls):
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(xs, zs))
        return f'<polyline class="{cls}" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        f"<style>{_STYLE}</style>",
        f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" '
        f'fill="#ffffff"/>',
    ]

    runs = masked_runs(masked.valid)
    for start, stop in runs:
        xa = float(x[start])
        xb = float(x[stop - 1])
        parts.append(
            f'<rect class="masked-span" data-x0="{xa:.17g}" '
            f'data-x1="{xb:.17g}" x="{_fmt(sx(xa))}" y="{_fmt(MARGIN_T)}" '
            f'width="{_fmt(max(sx(xb) - sx(xa), 1.0))}" '
            f'height="{_fmt(ph)}"/>'
        )

    if has_band:
        # one polygon per masked run so the band never bridges separate
        # masked regions; a = where the run starts among the band values
        a = 0
        for start, stop in runs:
            xs, b = x[start:stop], a + stop - start
            fwd = [f"{_fmt(sx(v))},{_fmt(sy(h))}"
                   for v, h in zip(xs, band_hi[a:b])]
            bwd = [f"{_fmt(sx(v))},{_fmt(sy(l))}"
                   for v, l in zip(xs[::-1], band_lo[a:b][::-1])]
            parts.append(
                f'<polygon class="band" points="{" ".join(fwd + bwd)}"/>'
            )
            a = b

    if truth is not None:
        parts.append(polyline(truth.x, truth.z, "truth"))
    if imputed is not None:
        parts.append(polyline(imputed.x, imputed.z, "imputed"))

    # the input profile itself, one polyline per contiguous valid run so
    # the line never bridges a masked gap (a complete profile gets one)
    for start, stop in masked_runs(~masked.valid):
        parts.append(polyline(x[start:stop], masked.z[start:stop], "profile"))

    for xv, zv in zip(masked.valid_x(), masked.valid_z()):
        parts.append(
            f'<circle class="valid" cx="{_fmt(sx(xv))}" '
            f'cy="{_fmt(sy(zv))}" r="1.4"/>'
        )

    # axes and ticks
    x0p, x1p = MARGIN_L, MARGIN_L + pw
    y0p, y1p = MARGIN_T + ph, MARGIN_T
    parts.append(
        f'<path class="axis" d="M {_fmt(x0p)} {_fmt(y1p)} '
        f"L {_fmt(x0p)} {_fmt(y0p)} L {_fmt(x1p)} {_fmt(y0p)}\"/>"
    )
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(
            f'<line class="tick" x1="{_fmt(px)}" y1="{_fmt(y0p)}" '
            f'x2="{_fmt(px)}" y2="{_fmt(y0p + 5)}"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0p + 18)}" '
            f'text-anchor="middle">{tv:.4g}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(
            f'<line class="tick" x1="{_fmt(x0p - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(x0p)}" y2="{_fmt(py)}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0p - 8)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end">{tv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_fmt(MARGIN_L + pw / 2)}" y="{_fmt(HEIGHT - 10)}" '
        f'text-anchor="middle">x (mm)</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(MARGIN_T + ph / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(MARGIN_T + ph / 2)})">z (um)</text>'
    )
    if title:
        # xml.sax.saxutils.escape's replacements, & first (importing it
        # loads urllib.request)
        text = title.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
        parts.append(f'<text class="title" x="{_fmt(MARGIN_L)}" y="22">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, masked: Profile, imputed: Profile | None = None,
              truth: Profile | None = None, band_lo=None, band_hi=None,
              title: str = "") -> None:
    content = render_svg(masked, imputed, truth, band_lo, band_hi, title)
    with open(path, "w") as fh:
        fh.write(content)
