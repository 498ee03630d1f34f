"""Minimal in-process SVG rendering for reliability diagrams.

String-built rect/line/text primitives only, so reports carry no plotting
dependency. Output is deterministic for identical inputs.
"""

from __future__ import annotations

from pathlib import Path

from ..metrics import BinTable

_W, _H = 440, 440
_PAD = 60
_PLOT = _W - 2 * _PAD


def _sx(v: float) -> float:
    return _PAD + v * _PLOT


def _sy(v: float) -> float:
    return _H - _PAD - v * _PLOT


def render_reliability(table: BinTable, title: str) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:g}" y="24" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    parts.append(f'<line x1="{_sx(0):g}" y1="{_sy(0):g}" x2="{_sx(1):g}" y2="{_sy(0):g}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{_sx(0):g}" y1="{_sy(0):g}" x2="{_sx(0):g}" y2="{_sy(1):g}" '
                 'stroke="black" stroke-width="1"/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<text x="{_sx(tick):g}" y="{_H - _PAD + 18:g}" text-anchor="middle" '
                     f'font-size="10" font-family="sans-serif">{tick:g}</text>')
        parts.append(f'<text x="{_PAD - 8:g}" y="{_sy(tick) + 4:g}" text-anchor="end" '
                     f'font-size="10" font-family="sans-serif">{tick:g}</text>')
    parts.append(f'<text x="{_W / 2:g}" y="{_H - 16}" text-anchor="middle" font-size="12" '
                 'font-family="sans-serif">confidence</text>')
    parts.append(f'<text x="18" y="{_H / 2:g}" text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif" transform="rotate(-90 18 {_H / 2:g})">accuracy</text>')

    # per-bin accuracy bars in equal slots; an equal-width bin's edges are
    # the same numbers, i/m and (i+1)/m
    m = table.m
    for i, b in enumerate(table.bins):
        if b.count and b.acc is not None:
            x0, x1 = _sx(i / m), _sx((i + 1) / m)
            y0, y1 = _sy(b.acc), _sy(0)
            parts.append(f'<rect x="{x0 + 1:g}" y="{y0:g}" width="{x1 - x0 - 2:g}" '
                         f'height="{y1 - y0:g}" fill="#4878a8" fill-opacity="0.8"/>')
            # mean-confidence marker inside the bar
            if b.conf is not None:
                cx = _sx(b.conf)
                parts.append(f'<line x1="{cx:g}" y1="{y0 - 6:g}" x2="{cx:g}" y2="{y1:g}" '
                             'stroke="#c0504d" stroke-width="1.5"/>')
    # identity line on top
    parts.append(f'<line x1="{_sx(0):g}" y1="{_sy(0):g}" x2="{_sx(1):g}" y2="{_sy(1):g}" '
                 'stroke="black" stroke-width="1" stroke-dasharray="4,3"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_reliability_svg(table: BinTable, path: str | Path, title: str) -> None:
    Path(path).write_text(render_reliability(table, title))
