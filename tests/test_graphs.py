import math

import numpy as np
import pytest

from hetcover.graphs import (
    AllZeroGraphError,
    GraphKind,
    RelationGraph,
    build_capability_graph,
    build_communication_graph,
    build_relation_graphs,
    build_spatial_graph,
    load_matrix_csv,
    normalize_graph,
    save_matrix_csv,
)
from hetcover.system import Environment, Position, RobotSpec, RobotSystem, Wall, line_of_sight

from _oracles import capability_graph_oracle, communication_graph_oracle


def system_at(points, caps=None, env=None):
    env = env if env is not None else Environment(10.0, 10.0)
    universe = ("rgb", "depth", "audio", "thermal")
    if caps is None:
        caps = [frozenset({"rgb"})] * len(points)
    robots = tuple(
        RobotSpec(i, Position(float(x), float(y)), frozenset(c))
        for i, ((x, y), c) in enumerate(zip(points, caps))
    )
    return RobotSystem(robots, env, universe)


class TestRelationGraph:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            RelationGraph(GraphKind.SPATIAL, np.zeros((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RelationGraph(GraphKind.SPATIAL, np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            RelationGraph(GraphKind.SPATIAL, np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RelationGraph(GraphKind.SPATIAL, np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_adjacency_read_only(self):
        g = RelationGraph(GraphKind.SPATIAL, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5.0


class TestSpatialGraph:
    def test_two_robots(self):
        g = build_spatial_graph(system_at([(0, 0), (2, 0)]), epsilon=0.0)
        assert g.adjacency[0, 1] == 0.5
        assert g.kind is GraphKind.SPATIAL

    def test_unit_triangle(self):
        g = build_spatial_graph(system_at([(0, 0), (1, 0), (0, 1)]), epsilon=0.0)
        a = g.adjacency
        assert a[0, 1] == pytest.approx(1.0)
        assert a[0, 2] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_coincident_with_epsilon(self):
        g = build_spatial_graph(system_at([(1, 1), (1, 1)]), epsilon=0.01)
        assert g.adjacency[0, 1] == pytest.approx(100.0)

    def test_coincident_without_epsilon_rejected(self):
        with pytest.raises(ValueError):
            build_spatial_graph(system_at([(1, 1), (1, 1)]), epsilon=0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            build_spatial_graph(system_at([(0, 0), (2, 0)]), epsilon=-0.1)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -1.0])
    def test_bad_epsilon_named_with_its_value(self, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must be finite and non-negative, got %r$"
                           % epsilon):
            build_spatial_graph(system_at([(0, 0), (2, 0)]), epsilon=epsilon)

    def test_default_epsilon_is_relative_to_diagonal(self):
        system = system_at([(0, 0), (2, 0)])
        g = build_spatial_graph(system)
        eps = 1e-3 * system.environment.diagonal
        assert g.adjacency[0, 1] == pytest.approx(1.0 / (2.0 + eps))

    def test_monotone_in_distance(self):
        g = build_spatial_graph(system_at([(0, 0), (1, 0), (5, 0), (9, 9)]))
        a = g.adjacency
        assert a[0, 1] > a[0, 2] > a[0, 3]


class TestCommunicationGraph:
    def test_within_radius(self):
        g = build_communication_graph(system_at([(0, 0), (1, 0)]), radius=2.0)
        assert g.adjacency[0, 1] == 1.0
        assert g.kind is GraphKind.COMMUNICATION

    def test_out_of_range(self):
        g = build_communication_graph(system_at([(0, 0), (3, 0)]), radius=2.0)
        assert g.adjacency[0, 1] == 0.0

    def test_wall_blocks(self):
        env = Environment(10.0, 10.0, (Wall(Position(0.5, 0.0), Position(0.5, 10.0)),))
        g = build_communication_graph(system_at([(0, 1), (1, 1)], env=env), radius=2.0)
        assert g.adjacency[0, 1] == 0.0

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            build_communication_graph(system_at([(0, 0), (1, 0)]), radius=0.0)

    def test_matches_the_pair_loop_with_one_wall_test_per_graph(self, monkeypatch):
        # random fleets behind two walls, and lattice fleets whose robots sit on
        # the walls' lines; the walls are tested once per graph, for all pairs
        import hetcover.graphs as graphs

        calls = []

        def counted(a, b, env):
            calls.append(len(a))
            return line_of_sight(a, b, env)

        monkeypatch.setattr(graphs, "line_of_sight", counted)
        walls = (Wall(Position(5.0, 0.0), Position(5.0, 7.0)),
                 Wall(Position(2.0, 8.0), Position(9.0, 3.0)),
                 Wall(Position(1.0, 4.0), Position(4.0, 4.0)))
        rng = np.random.default_rng(0)
        fleets = [rng.uniform(0.0, 10.0, size=(n, 2)) for n in range(2, 22)]
        fleets += [rng.integers(0, 11, size=(n, 2)) for n in range(2, 42, 2)]
        for points in fleets:
            for env in (Environment(10.0, 10.0, walls[:2]), Environment(10.0, 10.0, walls)):
                system = system_at(points, env=env)
                calls.clear()
                got = build_communication_graph(system, radius=4.0).adjacency
                assert got.tobytes() == communication_graph_oracle(system, 4.0).tobytes()
                assert len(calls) == 1
        calls.clear()
        far_apart = system_at([(0, 0), (9, 9)], env=Environment(10.0, 10.0, walls))
        assert not build_communication_graph(far_apart, radius=1.0).adjacency.any()
        assert calls == [0]


class TestCapabilityGraph:
    def test_single_shared(self):
        system = system_at([(0, 0), (1, 0)],
                           caps=[{"rgb", "depth"}, {"depth", "audio"}])
        assert build_capability_graph(system).adjacency[0, 1] == 1.0

    def test_identical_singletons(self):
        system = system_at([(0, 0), (1, 0)], caps=[{"rgb"}, {"rgb"}])
        assert build_capability_graph(system).adjacency[0, 1] == 1.0

    def test_disjoint(self):
        system = system_at([(0, 0), (1, 0)], caps=[{"rgb"}, {"depth"}])
        assert build_capability_graph(system).adjacency[0, 1] == 0.0

    def test_matches_the_set_intersection_loop(self):
        universe = ("rgb", "depth", "audio", "thermal")
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 16))
            caps = []
            for _ in range(n):
                size = int(rng.integers(1, len(universe) + 1))
                caps.append(set(rng.choice(universe, size=size, replace=False).tolist()))
            system = system_at([(i % 10, i // 10) for i in range(n)], caps=caps)
            got = build_capability_graph(system).adjacency
            assert got.tobytes() == capability_graph_oracle(system).tobytes()


class TestBuilderInvariants:
    def test_symmetric_zero_diagonal_non_negative(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(6, 2))
        caps = [set(np.random.default_rng(i).choice(
            ["rgb", "depth", "audio"], size=1 + i % 3, replace=False)) for i in range(6)]
        system = system_at(pts, caps=caps)
        for g in (build_spatial_graph(system),
                  build_communication_graph(system, radius=4.0),
                  build_capability_graph(system)):
            a = g.adjacency
            assert np.array_equal(a, a.T)
            assert np.all(np.diagonal(a) == 0)
            assert np.all(a >= 0)

    def test_translation_invariance(self):
        pts = [(1, 1), (2, 3), (4, 2)]
        shifted = [(x + 3, y + 4) for x, y in pts]
        s1, s2 = system_at(pts), system_at(shifted)
        np.testing.assert_allclose(
            build_spatial_graph(s1, epsilon=0.01).adjacency,
            build_spatial_graph(s2, epsilon=0.01).adjacency)
        np.testing.assert_array_equal(
            build_communication_graph(s1, radius=2.5).adjacency,
            build_communication_graph(s2, radius=2.5).adjacency)


class TestNormalize:
    def test_scales_by_max(self):
        a = np.array([[0.0, 4.0, 1.0], [4.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        g = normalize_graph(RelationGraph(GraphKind.SPATIAL, a))
        np.testing.assert_allclose(g.adjacency, a / 4.0)
        assert g.adjacency.max() == 1.0

    def test_binary_graph_unchanged(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = normalize_graph(RelationGraph(GraphKind.COMMUNICATION, a))
        np.testing.assert_array_equal(g.adjacency, a)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroGraphError):
            normalize_graph(RelationGraph(GraphKind.SPATIAL, np.zeros((3, 3))))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 5, size=(4, 4))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 0.0)
        once = normalize_graph(RelationGraph(GraphKind.SPATIAL, a))
        twice = normalize_graph(once)
        np.testing.assert_array_equal(once.adjacency, twice.adjacency)

    def test_preserves_symmetry_and_diagonal(self):
        a = np.array([[0.0, 3.0], [3.0, 0.0]])
        g = normalize_graph(RelationGraph(GraphKind.SPATIAL, a))
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diagonal(g.adjacency) == 0)


def test_build_relation_graphs_order_and_normalization():
    system = system_at([(0, 0), (1, 0), (0, 1)],
                       caps=[{"rgb"}, {"rgb"}, {"depth"}])
    spatial, comm, cap = build_relation_graphs(system, comm_radius=5.0)
    assert spatial.kind is GraphKind.SPATIAL
    assert comm.kind is GraphKind.COMMUNICATION
    assert cap.kind is GraphKind.CAPABILITY
    for g in (spatial, comm, cap):
        assert g.adjacency.max() == 1.0


@pytest.mark.parametrize("comm_radius, spatial_epsilon", [(None, None), (3.0, 0.5)])
def test_build_relation_graphs_equals_the_normalized_public_builders(comm_radius,
                                                                      spatial_epsilon):
    # the triple shares one distance matrix between the two distance graphs;
    # each must keep the bytes its own builder gives
    rng = np.random.default_rng(11)
    env = Environment(10.0, 10.0, obstacles=(Wall(Position(5.0, 0.0), Position(5.0, 6.0)),))
    caps = [{c} for c in rng.choice(["rgb", "depth", "audio"], size=30)]
    system = system_at(rng.uniform(0.5, 9.5, size=(30, 2)).tolist(), caps=caps, env=env)
    want = [build_spatial_graph(system, spatial_epsilon),
            build_communication_graph(system, comm_radius), build_capability_graph(system)]
    got = build_relation_graphs(system, comm_radius, spatial_epsilon)
    for g, w in zip(got, want, strict=True):
        assert g.kind is w.kind
        assert g.adjacency.tobytes() == normalize_graph(w).adjacency.tobytes()


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 5)) * 1e3
        path = tmp_path / "m.csv"
        save_matrix_csv(m, path)
        np.testing.assert_array_equal(load_matrix_csv(path), m)

    def test_format(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(np.array([[1.0 / 3.0, 2.0], [3.0, 4.0]]), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        first = lines[0].split(",")
        assert len(first) == 2
        # 17 significant digits, comfortably past the 12 required
        assert "3.3333333333333331e-01" == first[0]

    def test_single_row(self, tmp_path):
        path = tmp_path / "v.csv"
        save_matrix_csv(np.array([[1.0, 2.0]]), path)
        assert load_matrix_csv(path).shape == (1, 2)
