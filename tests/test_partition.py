import json
import math

import numpy as np
import pytest

from hetcover.graphs import build_relation_graphs
from hetcover.partition import (
    TeamAssignment,
    fiedler_cut,
    fiedler_vector,
    minor_laplacian,
    partition,
    save_assignment,
)
from hetcover.simulation import Method, SimConfig, prepare_fleet
from hetcover.solver import SolverConfig, solve

from _oracles import best_partition_by_mass, second_eigenpair_oracle
from _planted import blocks_recovered, planted_system

P2_LAPLACIAN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def two_block_matrix():
    """5x5 row-stochastic matrix: tight blocks {0,1} and {2,3,4}, weak coupling."""
    c = 0.02
    Z = np.full((5, 5), c)
    Z[:2, :2] = (1 - 3 * c) / 2
    Z[2:, 2:] = (1 - 2 * c) / 3
    return Z


def connected_component(Z, indices, start):
    """The indices reachable from start over positive entries of Z within indices."""
    component, frontier = {start}, [start]
    while frontier:
        i = frontier.pop()
        for j in indices:
            if j not in component and Z[i, j] + Z[j, i] > 0:
                component.add(j)
                frontier.append(j)
    return component


class TestMinorLaplacian:
    def test_bistochastic_full_set_is_identity_minus_z(self):
        Z = np.array([[0.6, 0.4], [0.4, 0.6]])
        got = minor_laplacian(Z, range(2))
        assert np.abs(got - (np.eye(2) - Z)).max() < 1e-12

    def test_path_of_two(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(minor_laplacian(W, range(2)), P2_LAPLACIAN)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(0)
        Z = rng.random((6, 6))
        Z = Z + Z.T  # partition admits only a symmetric Z
        for idx in (range(6), [0, 2, 5], [1, 3]):
            L = minor_laplacian(Z, idx)
            assert np.abs(L.sum(axis=1)).max() < 1e-12
            assert np.abs(L - L.T).max() < 1e-12

    def test_submatrix_uses_its_own_degrees(self):
        Z = np.array([
            [0.5, 0.3, 0.2],
            [0.3, 0.5, 0.2],
            [0.2, 0.2, 0.6],
        ])
        got = minor_laplacian(Z, [0, 1])
        # degrees come from the 2x2 minor (0.5 + 0.3), not the full rows,
        # so the diagonal is 0.8 - 0.5 and the rows still sum to zero
        want = np.array([[0.3, -0.3], [-0.3, 0.3]])
        assert np.abs(got - want).max() < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            minor_laplacian(np.eye(3), [])


class TestFiedlerVector:
    def test_path_of_two_by_hand(self):
        v = fiedler_vector(P2_LAPLACIAN)
        want = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert np.abs(v - want).max() < 1e-12

    def test_disconnected_components_get_distinct_constants(self):
        L = np.block([
            [P2_LAPLACIAN, np.zeros((2, 2))],
            [np.zeros((2, 2)), P2_LAPLACIAN],
        ])
        v = fiedler_vector(L)
        # second eigenvalue is 0, so the vector is constant on each component
        assert float(v @ L @ v) < 1e-12
        assert abs(v[0] - v[1]) < 1e-8
        assert abs(v[2] - v[3]) < 1e-8
        assert abs(v[0] - v[2]) > 1e-3

    def test_path_of_three_matches_eigen_oracle(self):
        L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        v = fiedler_vector(L)
        assert np.abs(np.abs(v) - np.array([0.707107, 0.0, 0.707107])).max() < 1e-6
        assert v[0] > 0 > v[2]
        lam, v_oracle, gap = second_eigenpair_oracle(L)
        assert gap > 1e-6
        assert lam == pytest.approx(1.0, abs=1e-8)
        if v_oracle[np.nonzero(np.abs(v_oracle) > 1e-12)[0][0]] < 0:
            v_oracle = -v_oracle
        assert np.abs(v - v_oracle).max() < 1e-6

    def test_unit_norm_and_orthogonal_to_ones(self):
        rng = np.random.default_rng(4)
        W = rng.random((6, 6))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 0.0)
        L = np.diag(W.sum(axis=1)) - W
        v = fiedler_vector(L)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert abs(v.sum()) < 1e-8

    def test_sign_convention_first_nonzero_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            W = rng.random((5, 5))
            W = 0.5 * (W + W.T)
            np.fill_diagonal(W, 0.0)
            v = fiedler_vector(np.diag(W.sum(axis=1)) - W)
            first = v[np.nonzero(np.abs(v) > 1e-12)[0][0]]
            assert first > 0

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError):
            fiedler_vector(np.zeros((1, 1)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            fiedler_vector(np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_nonzero_row_sums_rejected(self):
        with pytest.raises(ValueError):
            fiedler_vector(np.eye(3))


class TestFiedlerCut:
    def test_block_diagonal_splits_into_blocks(self):
        Z = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        a, b = fiedler_cut(Z, range(4))
        assert {frozenset(a), frozenset(b)} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_two_three_split_cuts_small_block_off(self):
        Z = two_block_matrix()
        a, b = fiedler_cut(Z, range(5))
        assert {frozenset(a), frozenset(b)} == {frozenset({0, 1}), frozenset({2, 3, 4})}

    def test_degenerate_flat_minor_still_splits(self):
        # identity Z has an all-zero minor Laplacian: every robot is its own
        # component, so the smallest index is split off
        a, b = fiedler_cut(np.eye(4), {1, 2, 3})
        assert (a, b) == ({1}, {2, 3})

    def test_three_blocks_split_off_the_smallest_index_component(self):
        # blocks {0, 3}, {1, 4} and {2, 5}: the minor's zero eigenvalue is
        # threefold, and the cut takes the block of index 0, then of index 1
        Z = np.zeros((6, 6))
        for block, weight in (([0, 3], 0.5), ([1, 4], 0.25), ([2, 5], 0.125)):
            Z[np.ix_(block, block)] = weight
        assert fiedler_cut(Z, range(6)) == ({0, 3}, {1, 2, 4, 5})
        assert fiedler_cut(Z, {1, 2, 4, 5}) == ({1, 4}, {2, 5})
        assert partition(Z, 3)[0].teams == ({0, 3}, {1, 4}, {2, 5})

    def test_bridge_below_eigensolver_resolution_counts_as_absent(self):
        Z = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 1e-300, 0.0],
            [0.0, 1e-300, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        assert fiedler_cut(Z, range(4)) == ({0, 1}, {2, 3})

    @pytest.mark.parametrize("kind", ["sparse", "zero-padded", "all-zero", "identity"])
    def test_any_minor_gets_two_sides_and_keeps_components_whole(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            if kind == "sparse":
                Z = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
            elif kind == "zero-padded":
                Z = np.zeros((n, n))
                k = int(rng.integers(1, n + 1))
                Z[:k, :k] = rng.random((k, k))
            else:
                Z = np.zeros((n, n)) if kind == "all-zero" else np.eye(n)
            Z = Z + Z.T  # partition admits only a symmetric Z
            idx = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
            a, b = fiedler_cut(Z, idx)
            assert a and b and not a & b and a | b == set(idx)
            component = connected_component(Z, idx, idx[0])
            if component != set(idx):
                assert a == component

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            fiedler_cut(np.eye(3), {1})


def test_capability_heavy_teams_survive_tiny_noise():
    # these weights make the fused Z nearly block diagonal by capability, so
    # the Fiedler eigenvalue is degenerate; teams must follow the blocks, not
    # the basis LAPACK picks from a 1e-10 relative perturbation
    solver = SolverConfig(alphas=(0.1, 0.2, 0.7))
    rng = np.random.default_rng(0)
    moved = []
    for seed in range(5):
        config = SimConfig(n_robots=20, n_capabilities=3, seed=seed, solver=solver)
        Z = prepare_fleet(config, (Method.FULL,)).fused[Method.FULL]
        for r in range(2, 11):
            teams = partition(Z, r)[0].teams
            for _ in range(10):
                noise = rng.standard_normal(Z.shape)
                noisy = Z * (1.0 + 1e-10 * (noise + noise.T) / 2)
                if partition(noisy, r)[0].teams != teams:
                    moved.append((seed, r))
    assert moved == []


class TestPartition:
    def test_single_team(self):
        asgn, = partition(np.eye(4) * 0 + 0.25, 1)
        assert asgn.r == 1
        assert asgn.teams == (frozenset({0, 1, 2, 3}),)
        assert asgn.team_of == (0, 0, 0, 0)

    def test_all_singletons(self):
        rng = np.random.default_rng(2)
        Z = rng.random((5, 5))
        Z = 0.5 * (Z + Z.T)
        asgn, = partition(Z, 5)
        assert asgn.r == 5
        assert all(len(t) == 1 for t in asgn.teams)
        assert asgn.team_of == (0, 1, 2, 3, 4)

    def test_two_three_split_then_largest_group_recut(self):
        Z = two_block_matrix()
        two, = partition(Z, 2)
        assert set(two.teams) == {frozenset({0, 1}), frozenset({2, 3, 4})}
        three, = partition(Z, 3)
        # the third cut lands on the bigger group, leaving {0,1} intact
        assert frozenset({0, 1}) in three.teams
        rest = [t for t in three.teams if t != frozenset({0, 1})]
        assert set().union(*rest) == {2, 3, 4}

    def test_exact_blocks_recovered(self):
        sizes = (3, 2, 2)
        Z = np.zeros((7, 7))
        start = 0
        blocks = []
        for s in sizes:
            Z[start:start + s, start:start + s] = 1.0 / s
            blocks.append(frozenset(range(start, start + s)))
            start += s
        asgn, = partition(Z, 3)
        assert set(asgn.teams) == set(blocks)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_three_blocks_match_exhaustive_search(self, seed):
        system, blocks = planted_system((4, 3, 3), seed=seed)
        graphs = build_relation_graphs(system, comm_radius=0.4 * math.hypot(1.0, 1.0))
        result = solve(graphs, SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3)))
        assert result.converged
        asgn, = partition(result.Z, 3)
        assert blocks_recovered(asgn, blocks)
        assert frozenset(asgn.teams) == best_partition_by_mass(result.Z, 3)

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
    def test_output_is_disjoint_exhaustive_cover(self, r):
        rng = np.random.default_rng(r)
        Z = rng.random((8, 8))
        Z = 0.5 * (Z + Z.T)
        asgn, = partition(Z, r)
        assert asgn.r == r
        assert len(asgn.teams) == r
        members = sorted(i for t in asgn.teams for i in t)
        assert members == list(range(8))
        assert all(t for t in asgn.teams)

    def test_asymmetric_z_rejected_within_rounding_of_its_largest_entry(self):
        Z = np.array([[0.5, 0.5, 0.0], [0.1, 0.5, 0.4], [0.0, 0.4, 0.6]])
        with pytest.raises(ValueError, match=r"^Z must be symmetric, but max \|Z - Z\^T\| is 0.4"):
            partition(Z, 2)
        # the bound is 1e-12 of the largest entry 0.6: 4e-13 passes, 7e-13 does not
        Z[1, 0] = 0.5 + 4e-13
        partition(Z, 2)
        Z[1, 0] = 0.5 + 7e-13
        with pytest.raises(ValueError, match="symmetric"):
            partition(Z, 2)

    def test_permutation_equivariance_up_to_numbering(self):
        Z = two_block_matrix()
        Z = 0.5 * (Z + Z.T)
        p = np.array([3, 0, 4, 1, 2])
        P = np.eye(5)[p]
        base, = partition(Z, 2)
        permuted, = partition(P @ Z @ P.T, 2)
        relabeled = {frozenset(int(np.nonzero(p == i)[0][0]) for i in t) for t in base.teams}
        assert set(permuted.teams) == relabeled

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        Z = rng.random((7, 7))
        Z = 0.5 * (Z + Z.T)
        first, = partition(Z, 3)
        second, = partition(Z, 3)
        assert first.teams == second.teams
        assert first.team_of == second.team_of

    def test_team_numbering_follows_smallest_member(self):
        Z = two_block_matrix()
        asgn, = partition(Z, 2)
        assert min(asgn.teams[0]) < min(asgn.teams[1])
        assert asgn.team_of[0] == 0

    def test_r_out_of_range_rejected(self):
        Z = np.eye(3)
        with pytest.raises(ValueError):
            partition(Z, 0)
        with pytest.raises(ValueError):
            partition(Z, 4)

    def test_bool_r_rejected(self):
        with pytest.raises(ValueError, match="r must be an integer"):
            partition(np.eye(3), True)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            partition(np.zeros((2, 3)), 1)


class TestPartitionResume:
    """partition(Z, *regions) reads every r off one cut sequence, each r's cuts
    continuing from the teams at the r below it."""

    def planted(self):
        system, _ = planted_system((4, 3, 3), seed=0)
        graphs = build_relation_graphs(system, comm_radius=0.4 * math.hypot(1.0, 1.0))
        return solve(graphs, SolverConfig(alphas=(1 / 3, 1 / 3, 1 / 3))).Z

    def fleet(self):
        config = SimConfig(n_robots=12, n_capabilities=3, seed=4)
        return prepare_fleet(config, (Method.FULL,)).fused[Method.FULL]

    def disconnected(self):
        # blocks {0, 3, 6}, {1, 4, 7, 9} and {2, 5, 8}, each a weighted path:
        # the first cuts follow components, the later ones Fiedler signs
        Z = np.zeros((10, 10))
        rng = np.random.default_rng(3)
        for block in ([0, 3, 6], [1, 4, 7, 9], [2, 5, 8]):
            for i, j in zip(block, block[1:]):
                Z[i, j] = Z[j, i] = rng.uniform(0.1, 1.0)
        assert partition(Z, 2)[0].teams == ({0, 3, 6}, {1, 2, 4, 5, 7, 8, 9})
        return Z

    @pytest.mark.parametrize("kind", ["planted", "fleet", "disconnected"])
    def test_cuts_continue_from_any_smaller_team_count(self, kind):
        Z = getattr(self, kind)()
        regions = range(1, len(Z) + 1)
        assert partition(Z, *regions) == [partition(Z, r)[0] for r in regions]

    def test_levels_in_the_order_given_with_duplicates_kept(self):
        three, two, again = partition(two_block_matrix(), 3, 2, 3)
        assert two.teams == ({0, 1}, {2, 3, 4})
        assert three.r == 3 and frozenset({0, 1}) in three.teams
        assert again == three

    def test_every_r_checked_before_any_cut(self, monkeypatch):
        import hetcover.partition as P

        # r = 2 alone would cut once
        calls = []
        monkeypatch.setattr(P, "fiedler_cut", lambda Z, indices: calls.append(indices)
                            or fiedler_cut(Z, indices))
        with pytest.raises(ValueError, match=r"r must be an integer in 1\.\.5, got 0"):
            partition(two_block_matrix(), 2, 0)
        assert calls == []

    def test_no_team_count_gives_no_teams(self):
        assert partition(two_block_matrix()) == []


class TestTeamAssignment:
    def test_from_teams_orders_by_smallest_member(self):
        asgn = TeamAssignment.from_teams([{2, 3}, {0, 1}], 4)
        assert asgn.teams == (frozenset({0, 1}), frozenset({2, 3}))
        assert asgn.team_of == (0, 0, 1, 1)
        assert asgn.r == 2

    def test_overlapping_teams_rejected(self):
        with pytest.raises(ValueError):
            TeamAssignment.from_teams([{0, 1}, {1, 2}], 3)

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            TeamAssignment.from_teams([{0}, {2}], 3)

    def test_empty_team_rejected(self):
        with pytest.raises(ValueError):
            TeamAssignment.from_teams([{0, 1}, set()], 2)

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TeamAssignment.from_teams([{0, 5}], 2)


class TestAssignmentSerialization:
    def test_round_trip(self, tmp_path):
        asgn = TeamAssignment.from_teams([{0, 2}, {1}, {3, 4}], 5)
        path = tmp_path / "assignment.json"
        save_assignment(asgn, path)
        team_of = json.loads(path.read_text())["team_of"]
        teams = [{i for i, t in enumerate(team_of) if t == team} for team in set(team_of)]
        assert TeamAssignment.from_teams(teams, len(team_of)) == asgn

    def test_document_shape(self, tmp_path):
        asgn = TeamAssignment.from_teams([{0, 1}, {2}], 3)
        path = tmp_path / "assignment.json"
        save_assignment(asgn, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"r", "team_of"}
        assert doc["r"] == 2
        assert doc["team_of"] == [0, 0, 1]
