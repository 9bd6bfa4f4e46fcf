"""Cost-effectiveness plane and the efficient frontier.

Conventions: the reference regime sits at the origin of the plane and every
other regime is a point (incremental effect, incremental cost) against that
same reference.  Frontier candidates are the strictly more effective
regimes; the frontier itself is the lower convex envelope of the candidates
anchored at the origin, so the slope between consecutive frontier vertices
is the ICER of stepping up, and those slopes never decrease along the
frontier.  Points in the left half-plane (less effective than the
reference) are plotted but can never be on the frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import EstimationFailure

__all__ = [
    "EmptyFrontier",
    "PlanePoint",
    "Frontier",
    "efficient_frontier",
    "render_plane_svg",
    "X_AXIS_LABEL",
    "Y_AXIS_LABEL",
    "MIN_WIDTH",
    "MIN_HEIGHT",
]

X_AXIS_LABEL = "Incremental effectiveness (percentage points)"
Y_AXIS_LABEL = "Incremental cost ($)"

# The plane's margins in px (left, right, top, bottom), and the smallest SVG
# size that leaves a plot area inside them.
_MARGINS = (64, 16, 16, 48)
MIN_WIDTH, MIN_HEIGHT = _MARGINS[0] + _MARGINS[1] + 1, _MARGINS[2] + _MARGINS[3] + 1


class EmptyFrontier(EstimationFailure):
    """No regime is strictly more effective than the reference."""


@dataclass(frozen=True)
class PlanePoint:
    """One regime's position on the plane, with its ICER when defined.

    ``icer`` is NaN when the effect difference is numerically zero;
    ``reliable`` carries the coefficient-of-variation verdict so unreliable
    points stay visible but flagged.
    """

    regime_id: int
    rd_eff: float
    rd_cost: float
    icer: float
    reliable: bool

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rd_eff) and math.isfinite(self.rd_cost)):
            raise ValueError("plane coordinates must be finite")


@dataclass(frozen=True)
class Frontier:
    """Efficient frontier: vertices from the anchor up, segment slopes attached.

    ``vertices`` are (effect, cost) pairs starting at the anchor; ``slopes[k]``
    is the incremental cost-effectiveness ratio of the segment from
    ``vertices[k]`` to ``vertices[k + 1]``.  Vertex effects increase strictly
    and slopes never decrease, by construction.
    """

    regime_ids: tuple[int, ...]
    vertices: tuple[tuple[float, float], ...]
    slopes: tuple[float, ...]


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def efficient_frontier(points: Sequence[PlanePoint]) -> Frontier:
    """Lower convex envelope of the strictly-more-effective regimes.

    Strongly dominated candidates (another candidate is at least as effective
    for no more cost, with at least one strict inequality; exact coordinate
    ties keep the lower id) are removed first, in one sweep by decreasing
    effect, then cost, then id: a candidate is undominated exactly when it is
    cheaper than every candidate before it.  The rest are swept in effect
    order through a monotone chain that pops any corner failing strict
    convexity, which also drops collinear interior points.  Extended
    dominance is therefore handled by construction.  Raises
    :class:`EmptyFrontier` when no candidate lies right of the origin.
    """
    candidates = [p for p in points if p.rd_eff > 0.0]
    if not candidates:
        raise EmptyFrontier("no regime is strictly more effective than the reference")

    undominated: list[PlanePoint] = []
    for p in sorted(candidates, key=lambda p: (-p.rd_eff, p.rd_cost, p.regime_id)):
        if not undominated or p.rd_cost < undominated[-1].rd_cost:
            undominated.append(p)

    chain: list[tuple[float, float]] = [(0.0, 0.0)]
    chain_ids: list[int | None] = [None]
    for p in reversed(undominated):
        v = (p.rd_eff, p.rd_cost)
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], v) <= 0.0:
            chain.pop()
            chain_ids.pop()
        chain.append(v)
        chain_ids.append(p.regime_id)

    vertices = tuple(chain)
    slopes = tuple((b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(vertices, vertices[1:]))
    return Frontier(
        regime_ids=tuple(rid for rid in chain_ids if rid is not None),
        vertices=vertices,
        slopes=slopes,
    )


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round tick values covering [lo, hi], lo < hi."""
    raw = (hi - lo) / 4.0
    mag = 10.0 ** math.floor(math.log10(raw))
    norm = raw / mag
    if norm < 1.5:
        step = mag
    elif norm < 3.0:
        step = 2.0 * mag
    elif norm < 7.0:
        step = 5.0 * mag
    else:
        step = 10.0 * mag
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(float(t))
        t += step
    return ticks


def render_plane_svg(
    points: Sequence[PlanePoint],
    frontier: Frontier | None = None,
    width: int = 640,
    height: int = 480,
) -> str:
    """Cost-effectiveness plane as a self-contained SVG string.

    Every regime gets a numbered marker (hollow when its reliability flag is
    down); the frontier, when given, is drawn as a polyline from the anchor.
    Output is deterministic (fixed float formatting, no timestamps), so the
    same inputs render byte-identical files.  ``ValueError`` for a size below
    ``MIN_WIDTH`` x ``MIN_HEIGHT``, which leaves no plot area inside the
    margins, and for a plane whose padded span overflows a float.
    """
    if not points:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = _MARGINS
    if width < MIN_WIDTH or height < MIN_HEIGHT:
        raise ValueError(f"{width} x {height} px leaves no plot area inside the margins")
    xs = [p.rd_eff for p in points]
    ys = [p.rd_cost for p in points]
    if frontier is not None:
        xs.extend(v[0] for v in frontier.vertices)
        ys.extend(v[1] for v in frontier.vertices)
    x_lo, x_hi = min(min(xs), 0.0), max(max(xs), 0.0)
    y_lo, y_hi = min(min(ys), 0.0), max(max(ys), 0.0)
    x_pad = 0.08 * (x_hi - x_lo or 1.0)
    y_pad = 0.08 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
    if not math.isfinite(x_hi - x_lo) or not math.isfinite(y_hi - y_lo):
        raise ValueError("the plane's padded span overflows a float")

    def sx(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    def line(x1: float, y1: float, x2: float, y2: float, stroke: str) -> None:
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )

    def text(x, y: float, size: int, body, anchor: str = "", rotate: bool = False) -> None:
        """A text element; an ``x`` given as a string is written as it is."""
        x = x if isinstance(x, str) else f"{x:.2f}"
        anchor = f' text-anchor="{anchor}"' if anchor else ""
        turn = f' transform="rotate(-90 {x} {y:.2f})"' if rotate else ""
        parts.append(
            f'<text x="{x}" y="{y:.2f}" font-size="{size}"{anchor} '
            f'font-family="sans-serif"{turn}>{body}</text>'
        )

    # Zero lines split the plane into its four quadrants.
    line(sx(x_lo), sy(0), sx(x_hi), sy(0), "#999")
    line(sx(0), sy(y_lo), sx(0), sy(y_hi), "#999")
    for t in _ticks(x_lo, x_hi):
        line(sx(t), height - mb, sx(t), height - mb + 5, "black")
        text(sx(t), height - mb + 18, 11, f"{t:g}", "middle")
    for t in _ticks(y_lo, y_hi):
        line(ml - 5, sy(t), ml, sy(t), "black")
        text(ml - 8, sy(t) + 4, 11, f"{t:g}", "end")
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    text((ml + width - mr) / 2, height - 10, 13, X_AXIS_LABEL, "middle")
    text("14", (mt + height - mb) / 2, 13, Y_AXIS_LABEL, "middle", rotate=True)

    if frontier is not None and len(frontier.vertices) >= 2:
        chain = " ".join(
            f"{sx(v[0]):.2f},{sy(v[1]):.2f}" for v in frontier.vertices
        )
        parts.append(
            f'<polyline points="{chain}" fill="none" stroke="#1565c0" '
            'stroke-width="2"/>'
        )

    frontier_ids = set(frontier.regime_ids) if frontier is not None else set()
    for p in sorted(points, key=lambda q: q.regime_id):
        color = "#1565c0" if p.regime_id in frontier_ids else "#c62828"
        fill = color if p.reliable else "white"
        parts.append(
            f'<circle cx="{sx(p.rd_eff):.2f}" cy="{sy(p.rd_cost):.2f}" '
            f'r="4" fill="{fill}" stroke="{color}" stroke-width="1.5"/>'
        )
        text(sx(p.rd_eff) + 6, sy(p.rd_cost) - 6, 11, p.regime_id)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
