"""Ternary diagrams rendered as standalone SVG.

Each panel shows one pair of components at the bottom corners; the top
corner carries the summed remainder of the other components, marked with a
star when there is more than one of them. Groups get distinct markers.
Output is deterministic: fixed layout, fixed number formatting, and no
timestamps, so files can be compared byte for byte.
"""

from __future__ import annotations

import math

from .composition import CompositionDataset
from .errors import EmptyGroupError, InputError, TooFewComponentsError

__all__ = ["render_ternary_svg", "emit_ternary_svg", "component_pairs"]

_MARKERS = ("circle", "cross", "square", "diamond")
_COLORS = ("#1f6fb2", "#c23b22", "#3a9d5d", "#8a56c2")

_PANEL = 300.0
_COLUMNS = 3  # panels per row
_MARGIN = 34.0
_H = math.sqrt(3.0) / 2.0


def component_pairs(components: tuple[str, ...]) -> list[tuple[str, str]]:
    """All unordered component pairs, in component order."""
    out = []
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            out.append((components[i], components[j]))
    return out


def _escape(text: str) -> str:
    """Text escaped for an SVG text element."""
    # Imported here, not at module level: xml.sax.saxutils loads
    # urllib.request, which would add about 7 MB and 40 ms to every command.
    from xml.sax.saxutils import escape

    return escape(text)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _marker(kind: str, x: float, y: float, color: str) -> str:
    if kind == "circle":
        return (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" '
            f'fill="{color}" fill-opacity="0.85"/>'
        )
    if kind == "cross":
        return (
            f'<path d="M{_fmt(x - 3.5)} {_fmt(y - 3.5)}L{_fmt(x + 3.5)} '
            f'{_fmt(y + 3.5)}M{_fmt(x - 3.5)} {_fmt(y + 3.5)}'
            f'L{_fmt(x + 3.5)} {_fmt(y - 3.5)}" stroke="{color}" '
            f'stroke-width="1.8" fill="none"/>'
        )
    if kind == "square":
        return (
            f'<rect x="{_fmt(x - 3)}" y="{_fmt(y - 3)}" width="6" '
            f'height="6" fill="{color}" fill-opacity="0.85"/>'
        )
    return (
        f'<path d="M{_fmt(x)} {_fmt(y - 4)}L{_fmt(x + 4)} {_fmt(y)}'
        f'L{_fmt(x)} {_fmt(y + 4)}L{_fmt(x - 4)} {_fmt(y)}Z" '
        f'fill="{color}" fill-opacity="0.85"/>'
    )


def _panel_svg(
    dataset: CompositionDataset,
    pair: tuple[str, str],
    ox: float,
    oy: float,
) -> list[str]:
    """One triangle panel at offset (ox, oy) in document coordinates."""
    a, b = pair
    ia = dataset.component_index(a)
    ib = dataset.component_index(b)
    rest = [
        j for j in range(dataset.n_components) if j not in (ia, ib)
    ]
    rest_label = "★" if len(rest) > 1 else _escape(dataset.components[rest[0]])

    side = _PANEL - 2.0 * _MARGIN
    x0, y0 = ox + _MARGIN, oy + _PANEL - _MARGIN
    # Triangle corners in document coordinates (SVG y runs downward).
    left = (x0, y0)
    right = (x0 + side, y0)
    top = (x0 + 0.5 * side, y0 - _H * side)

    parts = [
        f'<path d="M{_fmt(left[0])} {_fmt(left[1])}L{_fmt(right[0])} '
        f'{_fmt(right[1])}L{_fmt(top[0])} {_fmt(top[1])}Z" fill="none" '
        f'stroke="#555555" stroke-width="1"/>',
        f'<text x="{_fmt(left[0] - 4)}" y="{_fmt(left[1] + 14)}" '
        f'font-size="11" text-anchor="start" fill="#222222">{_escape(a)}</text>',
        f'<text x="{_fmt(right[0] + 4)}" y="{_fmt(right[1] + 14)}" '
        f'font-size="11" text-anchor="end" fill="#222222">{_escape(b)}</text>',
        f'<text x="{_fmt(top[0])}" y="{_fmt(top[1] - 6)}" font-size="11" '
        f'text-anchor="middle" fill="#222222">{rest_label}</text>',
    ]
    matrix = dataset.matrix
    groups = dataset.groups
    for g_idx, g in enumerate(groups):
        kind = _MARKERS[g_idx % len(_MARKERS)]
        color = _COLORS[g_idx % len(_COLORS)]
        sub = matrix[[lab == g for lab in dataset.labels]]
        va = sub[:, ia]
        vb = sub[:, ib]
        vr = sub[:, rest].sum(axis=1)
        for xa, xb, xr in zip(va, vb, vr):
            px = x0 + (xb + 0.5 * xr) * side
            py = y0 - (_H * xr) * side
            parts.append(_marker(kind, px, py, color))
    return parts


def render_ternary_svg(
    dataset: CompositionDataset,
    pairs: list[tuple[str, str]] | None = None,
) -> str:
    """Render one panel per component pair into a single SVG document;
    pairs=None draws every unordered pair."""
    if dataset.n_observations == 0:
        raise EmptyGroupError("cannot draw a ternary diagram of no data")
    if dataset.n_components < 3:
        raise TooFewComponentsError(
            "ternary diagrams need at least 3 components, got "
            f"{dataset.n_components}"
        )
    if pairs is None:
        pairs = component_pairs(dataset.components)
    if not pairs:
        raise InputError("no component pairs requested")
    for a, b in pairs:
        if a == b:
            raise InputError(f"pair ({a}, {b}) repeats a component")
        dataset.component_index(a)
        dataset.component_index(b)

    ncol = max(1, min(_COLUMNS, len(pairs)))
    nrow = (len(pairs) + ncol - 1) // ncol
    legend_h = 24.0
    width = ncol * _PANEL
    height = nrow * _PANEL + legend_h

    body: list[str] = []
    for idx, pair in enumerate(pairs):
        ox = (idx % ncol) * _PANEL
        oy = (idx // ncol) * _PANEL
        body.extend(_panel_svg(dataset, pair, ox, oy))

    lx = 10.0
    ly = nrow * _PANEL + 14.0
    for g_idx, g in enumerate(dataset.groups):
        kind = _MARKERS[g_idx % len(_MARKERS)]
        color = _COLORS[g_idx % len(_COLORS)]
        body.append(_marker(kind, lx, ly - 4.0, color))
        body.append(
            f'<text x="{_fmt(lx + 8)}" y="{_fmt(ly)}" font-size="11" '
            f'fill="#222222">{_escape(g)}</text>'
        )
        lx += 14.0 + 7.5 * len(g)
    remainder = dataset.n_components > 3
    if remainder:
        body.append(
            f'<text x="{_fmt(lx + 6)}" y="{_fmt(ly)}" font-size="11" '
            f'fill="#222222">★ = sum of the unlabeled components'
            "</text>"
        )

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} '
        f'{_fmt(height)}" font-family="sans-serif">'
        '<rect width="100%" height="100%" fill="#ffffff"/>'
    )
    return head + "".join(body) + "</svg>\n"


def emit_ternary_svg(
    dataset: CompositionDataset,
    path: str,
    pairs: list[tuple[str, str]] | None = None,
) -> str:
    """Render and write an SVG file; nothing is written on error."""
    svg = render_ternary_svg(dataset, pairs=pairs)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    return path
