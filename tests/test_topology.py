import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamlink.topology import (
    NetworkScenario,
    Node,
    ScenarioError,
    build_scenario,
    detect_overlaps,
    path_gain,
)


def make_node(nid, x, y, r, p=1.0):
    return Node(id=nid, position=np.array([x, y]), range_radius=r, tx_power=p)


def reference_overlaps(nodes):
    """detect_overlaps as one norm per pair, in a loop: the reference for its array pass."""
    if len(nodes) < 1:
        raise ScenarioError("nodes", "need at least one node")
    pairs = []
    for a, c in itertools.combinations(nodes, 2):
        d = float(np.linalg.norm(a.position - c.position))
        if d == 0.0:
            raise ScenarioError(
                "nodes", f"nodes {a.id} and {c.id} are coincident; overlap geometry undefined"
            )
        if d < a.range_radius + c.range_radius:
            pairs.append((min(a.id, c.id), max(a.id, c.id)))
    return sorted(pairs)


def collinear(count):
    """6 m disks 10 m apart on the x axis: each neighbouring pair overlaps."""
    return [make_node(i, 10.0 * i, 0, 6) for i in range(count)]


class TestNode:
    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            make_node(0, 0, 0, 0.0)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            make_node(0, 0, 0, 1.0, p=-1.0)

    def test_rejects_bad_position_shape(self):
        with pytest.raises(ValueError):
            Node(id=0, position=np.zeros(3), range_radius=1.0)


class TestDetectOverlaps:
    def test_basic_overlap(self):
        nodes = [make_node(0, 0, 0, 6), make_node(1, 10, 0, 6)]
        assert detect_overlaps(nodes) == [(0, 1)]

    def test_too_far_apart(self):
        nodes = [make_node(0, 0, 0, 6), make_node(1, 13, 0, 6)]
        assert detect_overlaps(nodes) == []

    def test_tangency_is_not_overlap(self):
        # boundary convention: strict inequality
        nodes = [make_node(0, 0, 0, 6), make_node(1, 12, 0, 6)]
        assert detect_overlaps(nodes) == []

    def test_containment_counts(self):
        nodes = [make_node(0, 0, 0, 20), make_node(1, 5, 0, 2)]
        assert detect_overlaps(nodes) == [(0, 1)]

    def test_coincident_positions_error(self):
        nodes = [make_node(0, 1, 1, 6), make_node(1, 1, 1, 6)]
        with pytest.raises(ValueError):
            detect_overlaps(nodes)

    def test_matches_pairwise_reference(self):
        # integer positions and radii on a small grid give exact tangencies
        # (3-4-5 triangles among them), containment and coincident nodes
        rng = np.random.default_rng(11)
        seen = {"tangent": 0, "contained": 0, "coincident": 0}
        for trial in range(600):
            count = int(rng.integers(1, 12))
            ids = rng.permutation(100)[:count].tolist()
            if trial % 2:
                xy = rng.integers(0, 8, size=(count, 2)).astype(float)
                radii = rng.integers(1, 5, size=count).astype(float)
            else:
                xy = rng.uniform(-20, 20, size=(count, 2))
                radii = rng.uniform(0.5, 12, size=count)
            nodes = [make_node(i, x, y, r) for i, (x, y), r in zip(ids, xy, radii)]
            try:
                expected = reference_overlaps(nodes)
            except ScenarioError as e:
                with pytest.raises(ScenarioError) as got:
                    detect_overlaps(nodes)
                assert (got.value.field, str(got.value)) == (e.field, str(e))
                seen["coincident"] += 1
                continue
            assert detect_overlaps(nodes) == expected
            for a, c in itertools.combinations(nodes, 2):
                d = float(np.linalg.norm(a.position - c.position))
                seen["tangent"] += d == a.range_radius + c.range_radius
                seen["contained"] += d <= abs(a.range_radius - c.range_radius)
        assert min(seen.values()) > 10, seen

    def test_one_distance_decides_overlap_and_placement(self):
        # pairs whose norm(axis=1) distance and one-pair norm differ by an
        # ulp: disks whose radii sum to either one are tangent or overlap by
        # the one-pair norm, and placing their points raises nothing
        rng = np.random.default_rng(26)
        a_xy, c_xy = rng.uniform(0, 50, size=(2, 4000, 2)).round(3)
        by_axis = np.linalg.norm(c_xy - a_xy, axis=1)
        per_pair = np.array([np.linalg.norm(c - a) for a, c in zip(a_xy, c_xy)])
        split = np.flatnonzero((by_axis != per_pair) & (per_pair > 33) & (per_pair < 63))[:40]
        assert np.any(by_axis[split] < per_pair[split]) and np.any(by_axis[split] > per_pair[split])
        for k in split:
            for dist in (by_axis[k], per_pair[k]):
                r_a = float(dist) - 1.0  # exact for distances in [32, 64)
                assert r_a + 1.0 == dist
                nodes = [make_node(0, *a_xy[k], r_a), make_node(1, *c_xy[k], 1.0)]
                pairs = build_scenario(nodes).pairs
                assert pairs == detect_overlaps(nodes) == ([(0, 1)] if per_pair[k] < dist else [])

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        nodes = [
            make_node(i, *rng.uniform(-20, 20, size=2), rng.uniform(1, 10))
            for i in range(6)
        ]
        ref = detect_overlaps(nodes)
        assert detect_overlaps(nodes[::-1]) == ref
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        assert detect_overlaps(shuffled) == ref


def receive_points(a, c, own=None):
    """The two receive points build_scenario places for the pair of a and c."""
    (points,) = build_scenario([a, c], own_point_distance=own).points
    return points[0], points[1]


class TestInterferencePoints:
    def test_symmetric_case_midpoint(self):
        a, c = make_node(0, 0, 0, 6), make_node(1, 10, 0, 6)
        # equal radii, d=10: chord foot at x = 5, the segment midpoint
        p_a, p_c = receive_points(a, c)
        np.testing.assert_allclose(p_a, [5.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(p_c, [5.0, 0.0], atol=1e-12)

    def test_lens_interval(self):
        # |t| < 6 and |10 - t| < 6 along the axis: the lens is (4, 6), and a
        # point at t leaves its partner at 10 - t, so t must lie in (4, 6)
        a, c = make_node(0, 0, 0, 6), make_node(1, 10, 0, 6)
        for own in (4.0, 6.0):
            with pytest.raises(ScenarioError, match=r"must lie in \(4, 6\)"):
                receive_points(a, c, own)
        # containment ends the lens at the small disk, (3, 7), and a point at
        # t leaves its partner at 5 - t, outside it for every t
        a, c = make_node(0, 0, 0, 20), make_node(1, 5, 0, 2)
        for own in (3.5, 2.5, 1.5, 4.0):
            with pytest.raises(ScenarioError, match=r"pair \(0, 1\) inside its overlap at any distance"):
                receive_points(a, c, own)

    def test_asymmetric_chord_distance(self):
        # x = (d^2 + r_a^2 - r_c^2) / (2 d) = (100 + 64 - 36) / 20 = 6.4
        a, c = make_node(0, 0, 0, 8), make_node(1, 10, 0, 6)
        p_a, p_c = receive_points(a, c)
        np.testing.assert_allclose(p_a, [6.4, 0.0], atol=1e-12)
        np.testing.assert_allclose(p_c, [6.4, 0.0], atol=1e-12)

    def test_containment_clamps_into_small_disk(self):
        a, c = make_node(0, 0, 0, 20), make_node(1, 5, 0, 2)
        p_a, p_c = receive_points(a, c)
        for p in (p_a, p_c):
            assert np.linalg.norm(p - a.position) < a.range_radius
            assert np.linalg.norm(p - c.position) < c.range_radius
        with pytest.raises(ScenarioError, match=r"pair \(0, 1\)"):
            receive_points(a, c, 4.0)

    def test_nonoverlapping_has_no_region(self):
        a, c = make_node(0, 0, 0, 6), make_node(1, 13, 0, 6)
        sc = build_scenario([a, c])
        assert (sc.pairs, sc.points.shape, sc.measured_pair) == ([], (0, 2, 2), None)

    def test_offsets_shift_along_segment(self):
        a, c = make_node(0, 0, 0, 6), make_node(1, 10, 0, 6)
        p_a, p_c = receive_points(a, c, own=4.5)
        np.testing.assert_array_equal(p_a, [4.5, 0.0])
        np.testing.assert_array_equal(p_c, [5.5, 0.0])

    def test_distances_outside_lens_rejected(self):
        a, c = make_node(0, 0, 0, 6), make_node(1, 10, 0, 6)
        for own in (4.0, 6.0, 100.0):
            with pytest.raises(ScenarioError, match=f"got {own:g}$"):
                receive_points(a, c, own)

    def test_points_follow_node_ids_not_input_order(self):
        # a pair's first point belongs to the lower id wherever that node
        # sits in the list
        a, c = make_node(7, 10, 0, 6), make_node(3, 0, 0, 8)
        sc = build_scenario([a, c])
        assert sc.pairs == [(3, 7)]
        np.testing.assert_allclose(sc.points[0, 0], [6.4, 0.0], atol=1e-12)
        with pytest.raises(ScenarioError, match=r"pair \(3, 7\) inside its overlap, got 1$"):
            build_scenario([a, c], own_point_distance=1.0)

    @given(
        d=st.floats(min_value=0.1, max_value=30.0),
        r_a=st.floats(min_value=0.5, max_value=20.0),
        r_c=st.floats(min_value=0.5, max_value=20.0),
        own=st.floats(min_value=-50.0, max_value=50.0),
        angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=300, deadline=None)
    def test_points_inside_both_disks(self, d, r_a, r_c, own, angle):
        a = make_node(0, 0, 0, r_a)
        c = make_node(1, d * math.cos(angle), d * math.sin(angle), r_c)
        if not build_scenario([a, c]).pairs:
            return
        points = [receive_points(a, c)]
        try:
            placed = receive_points(a, c, own)
        except ScenarioError:
            pass
        else:
            dist = float(np.linalg.norm(c.position - a.position))
            direction = (c.position - a.position) / dist
            np.testing.assert_array_equal(placed[0], a.position + own * direction)
            np.testing.assert_array_equal(placed[1], a.position + (dist - own) * direction)
            points.append(placed)
        for p in (p for pair in points for p in pair):
            assert np.linalg.norm(p - a.position) < a.range_radius
            assert np.linalg.norm(p - c.position) < c.range_radius


class TestPathGain:
    def scenario(self, eta=3.0, d0=1.0):
        return NetworkScenario(
            nodes=[make_node(0, 0, 0, 6)],
            pairs=[],
            points=np.empty((0, 2, 2)),
            measured_node=0,
            measured_pair=None,
            path_loss_exponent=eta,
            reference_distance=d0,
        )

    def test_reference_distance_unity(self):
        assert path_gain(1.0, self.scenario()) == pytest.approx(1.0)

    def test_zero_exponent_unity(self):
        assert path_gain(123.0, self.scenario(eta=0.0)) == pytest.approx(1.0)

    def test_cubic_decay(self):
        assert path_gain(10.0, self.scenario(eta=3.0, d0=1.0)) == pytest.approx(1e-3)

    def test_below_reference_clamped(self):
        assert path_gain(0.25, self.scenario()) == pytest.approx(1.0)

    def test_zero_distance_unity(self):
        # a node's channel to a receive point on the node itself
        assert path_gain(0.0, self.scenario(eta=3.7, d0=2.0)) == 1.0

    def test_rejects_negative_and_nan_distance(self):
        for bad in (-1e-300, -2.0, math.nan, [1.0, math.nan], np.array([0.0, -1.0])):
            with pytest.raises(ValueError, match="distance must be >= 0"):
                path_gain(bad, self.scenario())

    def test_array_matches_scalar_calls(self):
        # Python's float power on every ratio: numpy's power differs from it
        # in the last bit on some, which would move the draws' amplitudes
        rng = np.random.default_rng(28)
        for eta, d0 in ((3.0, 1.0), (2.7, 0.5), (0.0, 2.0)):
            sc = self.scenario(eta=eta, d0=d0)
            d = np.concatenate([[0.0, d0, d0 / 3], rng.uniform(0, 50, 2000)])
            gains = path_gain(d, sc)
            assert isinstance(gains, np.ndarray) and gains.shape == d.shape
            np.testing.assert_array_equal(gains, [path_gain(float(x), sc) for x in d])
            assert all(type(path_gain(float(x), sc)) is float for x in d[:3])
        assert path_gain(np.empty(0), self.scenario()).shape == (0,)

    @given(
        d1=st.floats(min_value=0.01, max_value=100.0),
        d2=st.floats(min_value=0.01, max_value=100.0),
        eta=st.floats(min_value=0.0, max_value=6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonincreasing(self, d1, d2, eta):
        sc = self.scenario(eta=eta)
        lo, hi = min(d1, d2), max(d1, d2)
        assert path_gain(lo, sc) >= path_gain(hi, sc) - 1e-15


class TestBuildScenario:
    def test_overlaps_match_detection(self):
        nodes = [make_node(0, 0, 0, 6), make_node(1, 10, 0, 6), make_node(2, 40, 0, 6)]
        sc = build_scenario(nodes)
        assert sc.pairs == [(0, 1)]

    def test_own_point_distance_applied(self):
        # 7 m disks 10 m apart: the lens (3, 7) holds both points
        nodes = [make_node(0, 0, 0, 7), make_node(1, 10, 0, 7)]
        sc = build_scenario(nodes, own_point_distance=4.0)
        np.testing.assert_array_equal(sc.points, [[[4.0, 0.0], [6.0, 0.0]]])

    def test_duplicate_ids_rejected(self):
        nodes = [make_node(0, 0, 0, 6), make_node(0, 10, 0, 6)]
        with pytest.raises(ValueError):
            build_scenario(nodes)

    def test_default_measured_link(self):
        sc = build_scenario(collinear(3))
        assert sc.measured_node == 0
        assert sc.measured_pair == sc.pairs[0] == (0, 1)

    def test_explicit_pair_and_node(self):
        sc = build_scenario(collinear(3), measured_pair=(2, 1))
        assert (sc.measured_pair, sc.measured_node) == ((1, 2), 1)
        sc = build_scenario(collinear(3), measured_pair=(1, 2), measured_node=2)
        assert sc.measured_pair == sc.pairs[1]
        assert sc.measured_node == 2

    def test_single_node_default(self):
        sc = build_scenario([make_node(4, 0, 0, 6)])
        assert (sc.measured_node, sc.measured_pair) == (4, None)

    @pytest.mark.parametrize(
        "nodes, kwargs, field",
        [
            ([make_node(0, 1, 1, 6), make_node(1, 1, 1, 6)], {}, "nodes"),
            ([make_node(0, 0, 0, 6), make_node(0, 10, 0, 6)], {}, "nodes"),
            (collinear(2), {"own_point_distance": 6.5}, "own_point_distance"),
            (collinear(3), {"measured_pair": (0, 2)}, "measured_pair"),
            (collinear(3), {"measured_node": 2}, "measured_node"),
            ([make_node(0, 0, 0, 6)], {"measured_node": 4}, "measured_node"),
        ],
        ids=["coincident", "duplicate-ids", "lens", "pair-without-overlap", "node-outside-pair",
             "unknown-node-single-link"],
    )
    def test_failure_names_its_field(self, nodes, kwargs, field):
        with pytest.raises(ScenarioError) as info:
            build_scenario(nodes, **kwargs)
        assert info.value.field == field
