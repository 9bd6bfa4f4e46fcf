"""Plane points, frontier geometry, and SVG rendering."""

from __future__ import annotations

import numpy as np
import pytest

from smartcea.cea import (
    X_AXIS_LABEL,
    Y_AXIS_LABEL,
    EmptyFrontier,
    PlanePoint,
    efficient_frontier,
    render_plane_svg,
)


def _point(rid, eff, cost, reliable=True):
    ratio = cost / eff if eff != 0 else float("nan")
    return PlanePoint(
        regime_id=rid, rd_eff=eff, rd_cost=cost, icer=ratio, reliable=reliable
    )


def _dominated(p, others):
    for q in others:
        if q is p:
            continue
        if (
            (q.rd_eff > p.rd_eff and q.rd_cost <= p.rd_cost)
            or (q.rd_eff >= p.rd_eff and q.rd_cost < p.rd_cost)
            or (
                q.rd_eff == p.rd_eff
                and q.rd_cost == p.rd_cost
                and q.regime_id < p.regime_id
            )
        ):
            return True
    return False


def brute_frontier(points, anchor=(0.0, 0.0)):
    """Gift-wrapping reference: drop strongly dominated options, then
    repeatedly take the shallowest slope, breaking ties toward the farthest
    point (collinear interiors drop)."""
    chain = []
    cur = anchor
    candidates = [
        p for p in points if p.rd_eff > anchor[0] and not _dominated(p, points)
    ]
    while True:
        best = None
        best_slope = None
        for p in candidates:
            if p.rd_eff <= cur[0]:
                continue
            slope = (p.rd_cost - cur[1]) / (p.rd_eff - cur[0])
            if (
                best is None
                or slope < best_slope - 1e-12
                or (abs(slope - best_slope) <= 1e-12 and p.rd_eff > best.rd_eff)
                or (
                    abs(slope - best_slope) <= 1e-12
                    and p.rd_eff == best.rd_eff
                    and p.regime_id < best.regime_id
                )
            ):
                best, best_slope = p, slope
        if best is None:
            break
        chain.append(best)
        cur = (best.rd_eff, best.rd_cost)
    return chain


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


def test_frontier_segments_chain_vertices():
    points = [_point(1, 10.0, 2.0), _point(2, 20.0, 3.0), _point(5, 25.0, 9.0)]
    frontier = efficient_frontier(points)
    assert frontier.segments[0][0] == frontier.vertices[0]
    for (a, b), v_prev, v_next in zip(
        frontier.segments, frontier.vertices, frontier.vertices[1:]
    ):
        assert a == v_prev
        assert b == v_next


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


def test_svg_without_frontier_has_no_polyline():
    svg = render_plane_svg([_point(2, 20.0, 3.0)])
    assert "polyline" not in svg
    assert "<circle" in svg
