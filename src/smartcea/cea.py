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
]

X_AXIS_LABEL = "Incremental effectiveness (percentage points)"
Y_AXIS_LABEL = "Incremental cost ($)"


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
    ties keep the lower id) are removed first; the rest are swept in effect
    order through a monotone chain that pops any corner failing strict
    convexity, which also drops collinear interior points.  Extended
    dominance is therefore handled by construction.  Raises
    :class:`EmptyFrontier` when no candidate lies right of the origin.
    """
    candidates = [p for p in points if p.rd_eff > 0.0]
    if not candidates:
        raise EmptyFrontier("no regime is strictly more effective than the reference")

    undominated = [
        p
        for p in candidates
        if not any(
            q is not p
            and q.rd_eff >= p.rd_eff
            and q.rd_cost <= p.rd_cost
            and (
                q.rd_eff > p.rd_eff
                or q.rd_cost < p.rd_cost
                or q.regime_id < p.regime_id  # exact ties keep the lower id
            )
            for q in candidates
        )
    ]
    undominated.sort(key=lambda p: (p.rd_eff, p.rd_cost, p.regime_id))

    chain: list[tuple[float, float]] = [(0.0, 0.0)]
    chain_ids: list[int | None] = [None]
    for p in undominated:
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
    """About five round tick values covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
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
    same inputs render byte-identical files.  A size within the fixed margins
    (80 px wide, 64 px high) leaves no plot area and raises ``ValueError``.
    """
    if not points:
        raise ValueError("nothing to plot")
    ml, mr, mt, mb = 64, 16, 16, 48
    if width <= ml + mr or height <= mt + mb:
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

    def sx(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # Zero lines split the plane into its four quadrants.
    parts.append(
        f'<line x1="{sx(x_lo):.2f}" y1="{sy(0):.2f}" x2="{sx(x_hi):.2f}" y2="{sy(0):.2f}" '
        'stroke="#999" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{sx(0):.2f}" y1="{sy(y_lo):.2f}" x2="{sx(0):.2f}" y2="{sy(y_hi):.2f}" '
        'stroke="#999" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{height - mb:.2f}" x2="{sx(t):.2f}" '
            f'y2="{height - mb + 5:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{height - mb + 18:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{ml - 5:.2f}" y1="{sy(t):.2f}" x2="{ml:.2f}" y2="{sy(t):.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{sy(t) + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.2f}" y="{height - 10:.2f}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">'
        f"{X_AXIS_LABEL}</text>"
    )
    parts.append(
        f'<text x="14" y="{(mt + height - mb) / 2:.2f}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 14 {(mt + height - mb) / 2:.2f})">{Y_AXIS_LABEL}</text>'
    )

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
        parts.append(
            f'<text x="{sx(p.rd_eff) + 6:.2f}" y="{sy(p.rd_cost) - 6:.2f}" '
            f'font-size="11" font-family="sans-serif">{p.regime_id}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
