"""Hand-rolled SVG figures.

Rendering is pure string assembly with fixed formatting, so a given
input always produces byte-identical output (matplotlib and friends do
not guarantee that across versions).
"""

from __future__ import annotations

from html import escape

from .common import fmt6
from .stepfun import StepFunction

_W, _H = 640, 400
_X0, _X1, _Y0, _Y1 = 70, _W - 20, _H - 50, 40  # the plot box: left, right, bottom, top
_PALETTE = ["#1965b0", "#dc050c", "#4eb265", "#f7a600", "#882e72", "#777777"]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _scale(lo: float, hi: float, a: float, b: float):
    """The linear map that takes lo to pixel a and hi to pixel b."""
    return lambda v: a + (v - lo) / (hi - lo) * (b - a)


def _frame(title: str, xlabel: str, ylabel: str, xticks, to_x, yticks=(), to_y=None) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="15">{escape(title)}</text>',
    ]
    parts.append(
        f'<path d="M{_X0} {_Y1} L{_X0} {_Y0} L{_X1} {_Y0}" fill="none" stroke="black"/>'
    )
    for t in xticks:
        px = to_x(t)
        parts.append(f'<line x1="{px:.2f}" y1="{_Y0}" x2="{px:.2f}" y2="{_Y0 + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{_Y0 + 18}" text-anchor="middle">{escape(fmt6(t))}</text>'
        )
    for t in yticks:
        py = to_y(t)
        parts.append(f'<line x1="{_X0 - 4}" y1="{py:.2f}" x2="{_X0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_X0 - 8}" y="{py + 4:.2f}" text-anchor="end">{escape(fmt6(t))}</text>'
        )
    parts.append(
        f'<text x="{(_X0 + _X1) / 2:.1f}" y="{_H - 12}" text-anchor="middle">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{(_Y0 + _Y1) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_Y0 + _Y1) / 2:.1f})">{escape(ylabel)}</text>'
    )
    return parts


def step_chart(curves: list[tuple[str, StepFunction]], title: str) -> str:
    """Right-continuous step plot of one or more named survival curves
    over time, on a y axis from 0 to 1."""
    xmax = max((float(f.times[-1]) for _, f in curves if f.times.size), default=1.0)
    xmax = xmax * 1.05 if xmax > 0 else 1.0
    to_x, to_y = _scale(0.0, xmax, _X0, _X1), _scale(0.0, 1.0, _Y0, _Y1)
    parts = _frame(title, "time", "survival probability", _ticks(0.0, xmax), to_x,
                   _ticks(0.0, 1.0), to_y)
    for ci, (label, f) in enumerate(curves):
        color = _PALETTE[ci % len(_PALETTE)]
        pts = [(0.0, f.initial)]
        prev = f.initial
        for t, v in zip(f.times, f.values):
            pts.append((float(t), prev))
            pts.append((float(t), float(v)))
            prev = float(v)
        pts.append((xmax / 1.05, prev))
        d = " ".join(
            ("M" if i == 0 else "L") + f"{to_x(px):.2f} {to_y(py):.2f}"
            for i, (px, py) in enumerate(pts)
        )
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _Y1 + 16 + 16 * ci
        parts.append(
            f'<line x1="{_X1 - 150}" y1="{ly - 4}" x2="{_X1 - 130}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_X1 - 124}" y="{ly}">{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bar_chart(
    rows: list[tuple[str, float]],
    title: str,
    xlabel: str,
) -> str:
    """Horizontal bars, one per labeled value; negative values extend left
    of the zero line. Row order is preserved top to bottom."""
    n = max(len(rows), 1)
    lo = min(0.0, min((v for _, v in rows), default=0.0))
    hi = max(0.0, max((v for _, v in rows), default=1.0))
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    lo, hi = lo - 0.05 * span, hi + 0.05 * span
    x0 = _X0 + 70  # room for the labels left of the bars
    to_x = _scale(lo, hi, x0, _X1)
    parts = _frame(title, xlabel, "", _ticks(lo, hi), to_x)
    zero_x = to_x(0.0)
    parts.append(
        f'<line x1="{zero_x:.2f}" y1="{_Y1}" x2="{zero_x:.2f}" y2="{_Y0}" '
        f'stroke="#aaaaaa" stroke-dasharray="3 3"/>'
    )
    slot = (_Y0 - _Y1) / n
    bar_h = max(min(slot * 0.7, 24.0), 2.0)
    for i, (label, v) in enumerate(rows):
        cy = _Y1 + slot * (i + 0.5)
        px = to_x(v)
        left, width = (min(px, zero_x), abs(px - zero_x))
        color = _PALETTE[0] if v >= 0 else _PALETTE[1]
        parts.append(
            f'<rect x="{left:.2f}" y="{cy - bar_h / 2:.2f}" width="{width:.2f}" '
            f'height="{bar_h:.2f}" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{cy + 4:.2f}" text-anchor="end">{escape(label)}</text>'
        )
        anchor_x = max(px, zero_x) + 4
        parts.append(f'<text x="{anchor_x:.2f}" y="{cy + 4:.2f}">{escape(fmt6(v))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
