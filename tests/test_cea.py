"""Plane points, frontier geometry, and SVG rendering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartcea.cea import (
    MIN_HEIGHT,
    MIN_WIDTH,
    X_AXIS_LABEL,
    Y_AXIS_LABEL,
    EmptyFrontier,
    PlanePoint,
    efficient_frontier,
    render_plane_svg,
)

from oracles import brute_frontier, reference_efficient_frontier, reference_render_plane_svg


def _point(rid, eff, cost, reliable=True):
    ratio = cost / eff if eff != 0 else float("nan")
    return PlanePoint(
        regime_id=rid, rd_eff=eff, rd_cost=cost, icer=ratio, reliable=reliable
    )


def test_plane_point_requires_finite_coordinates():
    with pytest.raises(ValueError):
        PlanePoint(regime_id=1, rd_eff=float("nan"), rd_cost=1.0, icer=1.0, reliable=True)
    # An undefined ratio is representable; only the coordinates must be finite.
    PlanePoint(regime_id=1, rd_eff=1.0, rd_cost=0.0, icer=float("nan"), reliable=True)


def test_frontier_worked_example():
    points = [
        _point(1, 10.0, 2.0),
        _point(2, 20.0, 3.0),
        _point(3, 15.0, 8.0),   # dominated by 2
        _point(4, -5.0, 1.0),   # quadrant II: never on the frontier
        _point(5, 25.0, 9.0),
    ]
    frontier = efficient_frontier(points)
    assert frontier.regime_ids == (2, 5)
    assert frontier.vertices[0] == (0.0, 0.0)
    assert frontier.vertices[1] == (20.0, 3.0)
    assert frontier.slopes[0] == pytest.approx(3.0 / 20.0)
    assert frontier.slopes[1] == pytest.approx(6.0 / 5.0)
    assert list(frontier.slopes) == sorted(frontier.slopes)


def test_frontier_drops_collinear_interior_points():
    points = [_point(1, 10.0, 1.0), _point(2, 20.0, 2.0), _point(3, 30.0, 3.0)]
    frontier = efficient_frontier(points)
    assert frontier.regime_ids == (3,)


def test_frontier_exact_tie_keeps_lower_id():
    points = [_point(7, 10.0, 2.0), _point(3, 10.0, 2.0)]
    frontier = efficient_frontier(points)
    assert frontier.regime_ids == (3,)


def test_frontier_empty_when_nothing_beats_reference():
    with pytest.raises(EmptyFrontier):
        efficient_frontier([_point(1, -3.0, 1.0), _point(2, 0.0, -1.0)])


def test_frontier_matches_gift_wrapping_oracle():
    rng = np.random.default_rng(99)
    for trial_i in range(200):
        k = int(rng.integers(1, 9))
        points = [
            _point(
                rid + 1,
                float(rng.uniform(-10.0, 30.0)),
                float(rng.uniform(-5.0, 12.0)),
            )
            for rid in range(k)
        ]
        expected = brute_frontier(points)
        if not expected:
            with pytest.raises(EmptyFrontier):
                efficient_frontier(points)
            continue
        frontier = efficient_frontier(points)
        assert frontier.regime_ids == tuple(p.regime_id for p in expected), (
            trial_i,
            [(p.regime_id, p.rd_eff, p.rd_cost) for p in points],
        )
        assert all(
            b >= a - 1e-12 for a, b in zip(frontier.slopes, frontier.slopes[1:])
        )
        # Every vertex after the anchor is one of the inputs.
        coords = {(p.rd_eff, p.rd_cost) for p in points}
        assert all(v in coords for v in frontier.vertices[1:])


@st.composite
def _grid_points(draw):
    """Up to 8 points on a small integer grid, so that repeated points,
    equal effects and collinear triples are common; ids in random order."""
    coords = draw(
        st.lists(st.tuples(st.integers(-3, 6), st.integers(-3, 6)), min_size=1, max_size=8)
    )
    ids = draw(st.permutations(range(2, 2 + len(coords))))
    return [_point(rid, float(eff), float(cost)) for rid, (eff, cost) in zip(ids, coords)]


def _lower_hull_vertices(points):
    """Brute-force frontier: the points right of the origin that nothing
    dominates (a tie keeps the lower id), then each one that lies strictly
    below every chord of two others, the origin included, that spans its
    effect; the most effective one always ends the hull."""
    right = [p for p in points if p.rd_eff > 0.0]
    kept = [
        p for p in right
        if not any(
            q is not p and q.rd_eff >= p.rd_eff and q.rd_cost <= p.rd_cost
            and ((q.rd_eff, q.rd_cost) != (p.rd_eff, p.rd_cost) or q.regime_id < p.regime_id)
            for q in right
        )
    ]
    plane = [(0.0, 0.0)] + [(p.rd_eff, p.rd_cost) for p in kept]
    last = max(p.rd_eff for p in kept) if kept else None

    def below_every_chord(x, y):
        return all(
            (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0.0
            for ax, ay in plane for bx, by in plane if ax < x < bx
        )

    vertices = [p for p in kept if p.rd_eff == last or below_every_chord(p.rd_eff, p.rd_cost)]
    return sorted(vertices, key=lambda p: p.rd_eff)


@settings(max_examples=300, deadline=None)
@given(_grid_points())
def test_frontier_is_the_brute_force_lower_hull(points):
    expected = _lower_hull_vertices(points)
    if not expected:
        with pytest.raises(EmptyFrontier):
            efficient_frontier(points)
        return
    frontier = efficient_frontier(points)
    assert frontier.regime_ids == tuple(p.regime_id for p in expected)
    corners = [(0.0, 0.0)] + [(p.rd_eff, p.rd_cost) for p in expected]
    assert frontier.slopes == tuple(
        (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(corners, corners[1:])
    )


# Up to 8 points on a small integer grid with ids from 2 to 5, so that
# repeated points and repeated ids are both common.
_REPEATING_POINTS = st.lists(
    st.builds(
        _point, st.integers(2, 5), st.integers(-3, 6).map(float),
        st.integers(-3, 6).map(float), st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=500, deadline=None)
@given(_REPEATING_POINTS, st.sampled_from([(640, 480), (81, 65), (1000, 300)]))
def test_frontier_and_plane_match_the_pairwise_oracles(points, size):
    # The one-sweep dominance rule keeps the pairwise test's frontier, and the
    # element writers keep the hand-written SVG text, byte for byte.
    try:
        frontier = reference_efficient_frontier(points)
    except EmptyFrontier:
        with pytest.raises(EmptyFrontier):
            efficient_frontier(points)
        frontier = None
    else:
        assert efficient_frontier(points) == frontier
    for drawn in {frontier, None}:
        assert render_plane_svg(points, drawn, *size) == reference_render_plane_svg(
            points, drawn, *size
        )


def test_svg_is_deterministic_with_exact_labels():
    points = [_point(2, 20.0, 3.0), _point(3, -2.0, 1.0, reliable=False)]
    frontier = efficient_frontier(points)
    svg_a = render_plane_svg(points, frontier=frontier)
    svg_b = render_plane_svg(points, frontier=frontier)
    assert svg_a == svg_b
    assert X_AXIS_LABEL == "Incremental effectiveness (percentage points)"
    assert Y_AXIS_LABEL == "Incremental cost ($)"
    assert X_AXIS_LABEL in svg_a
    assert Y_AXIS_LABEL in svg_a
    assert svg_a.startswith("<svg")
    assert svg_a.endswith("\n")
    assert "polyline" in svg_a
    assert svg_a.count("<circle") == 2
    assert 'fill="white"' in svg_a  # unreliable marker is hollow


@pytest.mark.parametrize("width, height", [(80, 480), (640, 64), (10, 10)])
def test_svg_refuses_a_size_without_plot_area(width, height):
    # The margins take 64 + 16 px of the width and 16 + 48 px of the height.
    with pytest.raises(ValueError, match="no plot area"):
        render_plane_svg([_point(2, 20.0, 3.0)], width=width, height=height)


def test_svg_accepts_the_smallest_size_with_plot_area():
    svg = render_plane_svg([_point(2, 20.0, 3.0)], width=MIN_WIDTH, height=MIN_HEIGHT)
    assert f'width="{MIN_WIDTH}" height="{MIN_HEIGHT}"' in svg.splitlines()[0]


@pytest.mark.parametrize("costs", [(1e308, -1e308), (1.7e308,), (-1e308, 0.7e308)])
def test_svg_refuses_a_span_too_wide_for_a_float(costs):
    # Each padded span overflows to inf, which the tick rounding cannot take;
    # in the last both padded ends are finite but their distance is not.
    points = [_point(k + 2, 5.0, cost) for k, cost in enumerate(costs)]
    with pytest.raises(ValueError, match="the plane's padded span overflows a float"):
        render_plane_svg(points)


def test_svg_without_frontier_has_no_polyline():
    svg = render_plane_svg([_point(2, 20.0, 3.0)])
    assert "polyline" not in svg
    assert "<circle" in svg
