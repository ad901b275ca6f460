import numpy as np
import pytest
from hypothesis import given, strategies as st

from treebsm.trees import (
    BranchingVector,
    ChannelParams,
    TreeTooLargeError,
    as_branching_vector,
    build_tree,
    photon_count,
)


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
    def test_three_vertex_star(self):
        t = build_tree("2")
        assert t.n_vertices == 3
        assert t.children[0] == [1, 2]
        assert t.level == [0, 1, 1]

    def test_fig_shape_3_2(self):
        t = build_tree("3,2")
        assert t.n_vertices == 10
        assert [len(t.branching.level_vertices(k)) for k in range(3)] == [1, 3, 6]
        # children of first level-1 vertex are contiguous
        assert t.children[1] == [4, 5]
        assert t.parent[9] == 3

    def test_levels_of_2_2(self):
        t = build_tree("2,2")
        assert t.n_vertices == 7
        assert [len(t.branching.level_vertices(k)) for k in range(3)] == [1, 2, 4]

    def test_neighbor_sets(self):
        t = build_tree("2,2")
        assert t.neighbors(0) == [1, 2]
        assert t.neighbors(1) == [0, 3, 4]
        assert t.neighbors(3) == [1]

    def test_vertex_cap(self):
        with pytest.raises(TreeTooLargeError):
            build_tree("100,100,100", vertex_cap=10**5)

    def test_recount_matches_photon_count(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.integers(1, 5)
            b = [int(x) for x in rng.integers(1, 11, size=d)]
            tree = build_tree(b)
            assert tree.n_vertices == photon_count(b)
            # Each level of the materialized tree is exactly the vector's level range.
            levels = np.array(tree.level)
            for k in range(d + 1):
                got = np.flatnonzero(levels == k)
                assert got.tolist() == list(tree.branching.level_vertices(k))
            assert photon_count(b) == tree.branching.level_vertices(d).stop


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
        for eps in (0.0, 0.01, 0.3, 1.0):
            p = ChannelParams(eta=0.5, eps=eps)
            assert 0.0 <= p.err_dzz <= p.err_dxx <= 1.0

    @pytest.mark.parametrize("eta,eps", [(-0.1, 0.0), (1.1, 0.0), (0.5, -1e-9), (0.5, 2.0)])
    def test_rejects_out_of_range(self, eta, eps):
        with pytest.raises(ValueError):
            ChannelParams(eta=eta, eps=eps)

