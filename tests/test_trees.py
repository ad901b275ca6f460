import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from treebsm.genseq import compile_bell_pair, logical_bell_tableau
from treebsm.trees import (
    MAX_VERTICES,
    BranchingVector,
    ChannelParams,
    TreeTooLargeError,
    as_branching_vector,
    photon_count,
)

from builders import encode_logical, graph_state_tableau


class TestBranchingVector:
    def test_parse_and_str_roundtrip(self):
        vec = BranchingVector.parse("15,15,2")
        assert vec.branches == (15, 15, 2)
        assert str(vec) == "15,15,2"

    @pytest.mark.parametrize("bad", ["", "0", "2,-1", "2,,3", "a,b"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            BranchingVector.parse(bad)

    def test_counts_must_be_integral(self):
        # A fractional count is refused, never truncated; numpy integers pass.
        with pytest.raises(ValueError):
            as_branching_vector((2.7, 2))
        with pytest.raises(ValueError):
            BranchingVector.of(2.9)
        vec = as_branching_vector(np.array([3, 2]))
        assert vec == BranchingVector.of(3, 2)
        assert all(type(x) is int for x in vec)

    def test_depth_and_indexing(self):
        vec = BranchingVector.of(3, 2)
        assert vec.depth == 2
        assert vec[0] == 3 and vec[1] == 2


class TestPhotonCount:
    @pytest.mark.parametrize(
        "b,expected",
        [("2,2", 7), ("15,15,2", 691), ("74,15", 1185), ("1", 2)],
    )
    def test_reference_counts(self, b, expected):
        assert photon_count(b) == expected

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4))
    def test_monotone_in_each_branch(self, branches):
        base = photon_count(branches)
        for k in range(len(branches)):
            bumped = list(branches)
            bumped[k] += 1
            assert photon_count(bumped) > base


class TestBuildTree:
    """The tree a branching vector describes, read through its vertex queries."""

    def test_three_vertex_star(self):
        vec = BranchingVector.parse("2")
        assert vec.check_vertices() == 3
        assert vec.children(0) == range(1, 3)
        assert [vec._locate(v)[0] for v in range(3)] == [0, 1, 1]

    def test_fig_shape_3_2(self):
        vec = BranchingVector.parse("3,2")
        assert vec.check_vertices() == 10
        assert [len(vec.level_vertices(k)) for k in range(3)] == [1, 3, 6]
        # children of first level-1 vertex are contiguous
        assert list(vec.children(1)) == [4, 5]
        assert vec.neighbors(9) == [3]

    def test_levels_of_2_2(self):
        vec = BranchingVector.parse("2,2")
        assert vec.check_vertices() == 7
        assert [len(vec.level_vertices(k)) for k in range(3)] == [1, 2, 4]

    def test_neighbor_sets(self):
        vec = BranchingVector.parse("2,2")
        assert vec.neighbors(0) == [1, 2]
        assert vec.neighbors(1) == [0, 3, 4]
        assert vec.neighbors(3) == [1]

    def test_max_vertices(self):
        assert BranchingVector.of(MAX_VERTICES - 1).check_vertices() == MAX_VERTICES
        for b in ("100,100,100", str(MAX_VERTICES)):
            with pytest.raises(TreeTooLargeError, match=f"cap of {MAX_VERTICES}"):
                BranchingVector.parse(b).check_vertices()

    def test_recount_matches_photon_count(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.integers(1, 5)
            vec = BranchingVector(tuple(int(x) for x in rng.integers(1, 11, size=d)))
            assert vec.check_vertices() == photon_count(vec)
            # Each level's vertices are exactly the vector's level range.
            levels = np.array([vec._locate(v)[0] for v in range(photon_count(vec))])
            for k in range(d + 1):
                got = np.flatnonzero(levels == k)
                assert got.tolist() == list(vec.level_vertices(k))
            assert photon_count(vec) == vec.level_vertices(d).stop


class TestVertexQueries:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @example([1])
    @example([7])
    @example([1, 1, 1])
    @example([3, 1, 2])
    def test_children_partition_the_next_level(self, branches):
        vec = BranchingVector(tuple(branches))
        for k in range(vec.depth):
            below = [c for v in vec.level_vertices(k) for c in vec.children(v)]
            assert below == list(vec.level_vertices(k + 1))
        for v in vec.level_vertices(vec.depth):
            assert vec.children(v) == range(0)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @example([1])
    @example([2, 1, 1])
    def test_neighbors_are_parent_then_children(self, branches):
        vec = BranchingVector(tuple(branches))
        assert vec.neighbors(0) == list(vec.children(0))
        for v in range(photon_count(vec)):
            for c in vec.children(v):
                assert vec.neighbors(c)[0] == v
                assert vec.neighbors(c)[1:] == list(vec.children(c))

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @example([1])
    @example([1, 4, 1])
    def test_level_of_agrees_with_level_vertices(self, branches):
        # _locate is the lookup children and neighbors read.
        vec = BranchingVector(tuple(branches))
        for k in range(vec.depth + 1):
            assert all(vec._locate(v)[0] == k for v in vec.level_vertices(k))

    @pytest.mark.parametrize("v", [-1, 7, 100])
    def test_vertex_outside_the_tree(self, v):
        with pytest.raises(IndexError, match="outside 0..6"):
            BranchingVector.of(2, 2).children(v)

    @pytest.mark.parametrize("build", [
        compile_bell_pair, logical_bell_tableau, graph_state_tableau, encode_logical,
    ])
    def test_huge_tree_refused_before_allocating(self, build):
        # 1,010,101 vertices: refused before any per-vertex work.
        tracemalloc.start()
        try:
            with pytest.raises(TreeTooLargeError, match="1010101 vertices"):
                build("100,100,100")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestChannelParams:
    def test_derived_rates(self):
        p = ChannelParams(eta=0.9, eps=0.01)
        assert p.eps_d == pytest.approx(0.015)
        assert p.eps_bsm == pytest.approx(0.0297)
        assert p.err_dzz == pytest.approx(0.0198)
        assert p.err_dxx == pytest.approx(0.0297)

    @pytest.mark.parametrize("eps", [0.0, 1e-5, 1e-3, 0.05, 0.3])
    def test_bsm_rate_identity(self, eps):
        p = ChannelParams(eta=1.0, eps=eps)
        assert p.eps_bsm == pytest.approx(
            2 * p.eps_d - (4.0 / 3.0) * p.eps_d**2, abs=1e-12
        )

    def test_error_ordering(self):
        for eps in (0.0, 0.01, 0.3, 2 / 3):
            p = ChannelParams(eta=0.5, eps=eps)
            assert 0.0 <= p.err_dzz <= p.err_dxx <= 1.0

    @pytest.mark.parametrize("eta,eps", [(-0.1, 0.0), (1.1, 0.0), (0.5, -1e-9), (0.5, 2.0)])
    def test_rejects_out_of_range(self, eta, eps):
        with pytest.raises(ValueError):
            ChannelParams(eta=eta, eps=eps)

    @pytest.mark.parametrize("eps", [0.7, 0.8, 0.9, 1.0])
    def test_eps_beyond_a_channel_is_refused(self, eps):
        # eps_d = 3 eps / 2 is a probability, so eps stops at 2/3.
        assert ChannelParams(eta=0.5, eps=2 / 3).eps_d == 1.0
        with pytest.raises(ValueError, match=f"eps must be at most 2/3.*got {eps}"):
            ChannelParams(eta=0.5, eps=eps)
        with pytest.raises(ValueError, match=f"eps must be at most 2/3.*got {eps}"):
            ChannelParams(eta=np.full(3, 0.5), eps=np.array([0.1, eps, 2 / 3]))

