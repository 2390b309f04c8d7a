"""Minimal self-contained SVG line plots.

Renders RMSE sweep curves (log y-axis) and pseudospectra (dB y-axis)
directly as vector graphics with no plotting dependency. Output is a
single standalone .svg file.
"""
from __future__ import annotations

import math

import numpy as np

from ._files import write_text
from .estimators import Pseudospectrum
from .experiments import SweepResult

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 76, 24, 44, 58
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_MAX_POINTS = 2000


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag + 1e-12)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils.escape
    does, without importing it: that pulls in urllib, http and email."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:g}"


def _decimate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bucketed min/max thinning: keeps peaks that plain subsampling loses."""
    if x.size <= _MAX_POINTS:
        return x, y
    buckets = np.array_split(np.arange(x.size), _MAX_POINTS // 2)
    keep = []
    for b in buckets:
        if b.size:
            keep.extend(sorted({int(b[np.argmin(y[b])]), int(b[np.argmax(y[b])])}))
    idx = np.array(sorted(set(keep)))
    return x[idx], y[idx]


def _series_from(data) -> tuple[list[tuple[str, np.ndarray, np.ndarray]], str, str, str]:
    """Normalize input to labeled series plus (y_mode, x_label, y_label)."""
    if isinstance(data, Pseudospectrum):
        return ([("", np.asarray(data.grid), data.to_db())],
                "linear", "azimuth (deg)", "power (dB rel. peak)")
    if isinstance(data, SweepResult):
        data = {"": data}
    if isinstance(data, dict):
        series = []
        for label, res in data.items():
            if not isinstance(res, SweepResult):
                raise ValueError(f"series {label!r} is not a SweepResult")
            series.append((str(label), np.asarray(res.params, dtype=float),
                           np.asarray(res.rmse_deg, dtype=float)))
        return series, "log", "sweep parameter", "RMSE (deg)"
    raise ValueError(f"cannot plot object of type {type(data).__name__}")


def render_plot(data, destination, *, title: str = "", marks=(), meta: str = "") -> None:
    """Render sweep results or a pseudospectrum to an SVG file.

    data: SweepResult, dict of label -> SweepResult (overlaid, with a
    legend), or Pseudospectrum. RMSE curves get a log y-axis and spectra are
    drawn in dB, each with its own axis labels. `marks` draws dashed
    vertical lines (e.g. estimates). `meta` is embedded as an XML comment.
    """
    series, y_mode, x_label, y_label = _series_from(data)

    clean = []
    for label, x, y in series:
        ok = np.isfinite(x) & np.isfinite(y)
        if y_mode == "log":
            ok &= y > 0
        if np.any(ok):
            xs, ys = _decimate(x[ok], y[ok])
            clean.append((label, xs, np.log10(ys) if y_mode == "log" else ys))
    if not clean:
        raise ValueError("nothing to plot: no finite data points")

    all_x = np.concatenate([s[1] for s in clean])
    all_y = np.concatenate([s[2] for s in clean])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    x_ticks = [(t, _fmt(t)) for t in _nice_ticks(x_lo, x_hi)]
    if y_mode == "log" and y_hi - y_lo >= 1.0:
        dec = max(1, math.ceil((y_hi - y_lo) / 6))
        y_ticks = [(float(d), _fmt(10.0 ** d))
                   for d in range(math.ceil(y_lo), math.floor(y_hi) + 1, dec)]
    elif y_mode == "log":
        y_ticks = [(math.log10(t), _fmt(t))
                   for t in _nice_ticks(10.0 ** y_lo, 10.0 ** y_hi) if t > 0]
    else:
        y_ticks = [(t, _fmt(t)) for t in _nice_ticks(y_lo, y_hi)]

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">']
    if meta:
        out.append(f"<!-- {escape(meta)} -->")
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')

    for t, _label in x_ticks:
        out.append(f'<line x1="{px(t):.1f}" y1="{_MT}" x2="{px(t):.1f}" '
                   f'y2="{_H - _MB}" stroke="#e0e0e0"/>')
    for t, _label in y_ticks:
        out.append(f'<line x1="{_ML}" y1="{py(t):.1f}" x2="{_W - _MR}" '
                   f'y2="{py(t):.1f}" stroke="#e0e0e0"/>')
    for m in marks:
        out.append(f'<line x1="{px(float(m)):.1f}" y1="{_MT}" x2="{px(float(m)):.1f}" '
                   f'y2="{_H - _MB}" stroke="#999999" stroke-dasharray="4 3"/>')

    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>')
    for t, label in x_ticks:
        out.append(f'<text x="{px(t):.1f}" y="{_H - _MB + 18}" font-size="12" '
                   f'text-anchor="middle">{escape(label)}</text>')
    for t, label in y_ticks:
        out.append(f'<text x="{_ML - 6}" y="{py(t) + 4:.1f}" font-size="12" '
                   f'text-anchor="end">{escape(label)}</text>')

    for i, (label, xs, ys) in enumerate(clean):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')

    if any(label for label, _, _ in clean):
        ly = _MT + 10
        for i, (label, _, _) in enumerate(clean):
            color = _PALETTE[i % len(_PALETTE)]
            out.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" '
                       f'x2="{_W - _MR - 126}" y2="{ly}" stroke="{color}" '
                       f'stroke-width="2"/>')
            out.append(f'<text x="{_W - _MR - 120}" y="{ly + 4}" '
                       f'font-size="12">{escape(label)}</text>')
            ly += 18

    if title:
        out.append(f'<text x="{_W / 2:.0f}" y="24" font-size="15" '
                   f'text-anchor="middle">{escape(title)}</text>')
    out.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 14}" font-size="13" '
               f'text-anchor="middle">{escape(x_label)}</text>')
    out.append(f'<text x="20" y="{(_MT + _H - _MB) / 2:.0f}" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 20 '
               f'{(_MT + _H - _MB) / 2:.0f})">{escape(y_label)}</text>')
    out.append("</svg>")

    write_text(destination, "\n".join(out) + "\n", "plot")
