"""The batched exact engine against the scalar oracle, block by block and within its memory bounds.

``reference_exact.reference_logical_bsm`` is the engine as it was before
the batch axis: one shape at one point, one level at a time, with a vote
sum over every possible number of successful chains.  The batched walk
must agree with it to 1e-12 on every default-bounds shape and give the
same search fronts; each row of a batch must equal its batch of one, bit
for bit; and neither a long batch nor a wide node may hold more than a
few MB.
"""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from treebsm import analytic
from treebsm.analytic import MAX_CHAINS, BsmRates, Protocol, logical_bsm, logical_bsm_batch
from treebsm.cli import main
from treebsm.search import SearchBounds, enumerate_trees, pareto_front
from treebsm.trees import BranchingVector, ChannelParams, photon_count

from reference_exact import FIELDS, reference_logical_bsm, vote_error_mix
from test_golden_exact import POINTS

TOL = 1e-12
PROTOCOLS = [Protocol.STATIC, Protocol.DYNAMIC]
DEFAULT_SHAPES = tuple(enumerate_trees(SearchBounds()))
# Shapes of depth 1 to 5 with unit branches and increasing profiles, so a
# batch of them pads shallow rows with zero branch counts.
LOOSE_SHAPES = tuple(enumerate_trees(SearchBounds(
    max_depth=5, max_branch=30, max_photons=400, min_branch=1, min_depth=1, monotone=False)))


@lru_cache(maxsize=None)
def _oracle(shape: BranchingVector, eta: float, eps: float, protocol: Protocol) -> dict:
    return reference_logical_bsm(shape, ChannelParams(eta=eta, eps=eps), protocol)


def _worst(shapes, eta, eps, protocol) -> float:
    got = logical_bsm_batch(shapes, eta, eps, protocol)
    return max(
        abs(float(getattr(got, f)[i]) - _oracle(vec, eta, eps, protocol)[f])
        for i, vec in enumerate(shapes) for f in FIELDS
    )


class TestOracle:
    def test_default_bounds_size(self):
        assert len(DEFAULT_SHAPES) == 6294

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_every_default_shape_at_the_reference_point(self, protocol):
        assert _worst(DEFAULT_SHAPES, *POINTS[0], protocol) <= TOL

    @pytest.mark.parametrize("point", POINTS[1:], ids=str)
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_sampled_shapes_at_the_other_points(self, point, protocol):
        rng = np.random.default_rng(41)
        picks = [DEFAULT_SHAPES[i] for i in rng.choice(len(DEFAULT_SHAPES), 300, replace=False)]
        picks += [LOOSE_SHAPES[i] for i in rng.choice(len(LOOSE_SHAPES), 200, replace=False)]
        assert {v.depth for v in picks} == {1, 2, 3, 4, 5}
        assert _worst(picks, *point, protocol) <= TOL


def _oracle_front(bounds: SearchBounds, params: ChannelParams, protocol: Protocol):
    """``pareto_front``'s scan, over oracle values."""
    scored = sorted(
        (photon_count(v), v.branches, _oracle(v, params.eta, params.eps, protocol))
        for v in enumerate_trees(bounds)
    )
    front, best_pr, best_err = [], -1.0, math.inf
    for n, b, res in scored:
        improves_pr = res["pr_complete"] > best_pr
        improves_err = params.eps > 0.0 and res["err_complete"] < best_err
        if improves_pr or improves_err:
            front.append((b, n, improves_pr, improves_err))
            best_pr = max(best_pr, res["pr_complete"])
            best_err = min(best_err, res["err_complete"])
    return front


@pytest.mark.parametrize("point,bounds", [
    ((0.95, 1e-5), SearchBounds()),
    ((0.8, 1e-3), SearchBounds(max_photons=700)),
    ((0.6, 0.0), SearchBounds(max_photons=700)),
    ((0.9, 1e-4), SearchBounds(max_photons=700)),
], ids=["0.95-1e-5-default", "0.8-1e-3-700", "0.6-0-700", "0.9-1e-4-700"])
@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
def test_front_matches_the_oracle_front(point, bounds, protocol):
    params = ChannelParams(*point)
    got = [(e.b.branches, e.n_photons, e.improves_success, e.improves_error)
           for e in pareto_front(bounds, params, protocol)]
    assert got == _oracle_front(bounds, params, protocol)


class TestBlocks:
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_each_row_equals_its_batch_of_one(self, protocol, monkeypatch):
        rng = np.random.default_rng(5)
        wide = [BranchingVector.of(2, 2), BranchingVector.of(1100, 2), BranchingVector.of(2, 1100)]
        shapes = [LOOSE_SHAPES[i] for i in rng.choice(len(LOOSE_SHAPES), 240)]
        for i in rng.choice(len(shapes), 24, replace=False):
            shapes[i] = wide[i % 3]
        eta = rng.uniform(0.5, 1.0, len(shapes))
        eps = rng.uniform(0.0, 0.05, len(shapes))
        steps = []  # the key counts of the blocks of each step of the walk
        real = analytic._blocks
        monkeypatch.setattr(analytic, "_blocks",
                            lambda width: steps.append([len(b) for b in real(width)]) or real(width))
        got = logical_bsm_batch(shapes, eta, eps, protocol)
        monkeypatch.undo()

        # The wide rows split the steps that hold them into blocks.
        split = [blocks for blocks in steps if len(blocks) > 1]
        assert sum(map(len, split)) > 3 and len({n for blocks in split for n in blocks}) > 1
        for i, vec in enumerate(shapes):
            one = logical_bsm(vec, ChannelParams(eta=eta[i], eps=eps[i]), protocol)
            assert tuple(float(r[i]) for r in got) == one, str(vec)

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_rows_wider_than_the_table_equal_their_batch_of_one(self, protocol):
        # (20000,) and (40000, 2) take blocks of their own and compute their
        # log-factorials chunk by chunk; eps up to 2/3 widens the vote-tail
        # windows that the narrow rows share.
        rng = np.random.default_rng(17)
        wide = [BranchingVector.of(20000), BranchingVector.of(40000, 2)]
        shapes = [LOOSE_SHAPES[i] for i in rng.choice(len(LOOSE_SHAPES), 176)] + wide * 2
        shapes = [shapes[i] for i in rng.permutation(len(shapes))]
        eta = rng.uniform(0.5, 1.0, len(shapes))
        eps = rng.uniform(0.0, 2 / 3, len(shapes))
        got = logical_bsm_batch(shapes, eta, eps, protocol)
        for i, vec in enumerate(shapes):
            one = logical_bsm(vec, ChannelParams(eta=eta[i], eps=eps[i]), protocol)
            assert tuple(float(r[i]) for r in got) == one, str(vec)

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_one_shape_is_its_batch_row_as_floats(self, protocol):
        params = ChannelParams(eta=0.9, eps=1e-3)
        one = logical_bsm("15,15,2", params, protocol)
        rows = logical_bsm_batch(["15,15,2"], params.eta, params.eps, protocol)
        assert isinstance(one, BsmRates) and {type(r) for r in one} == {float}
        assert one == tuple(float(r[0]) for r in rows)

    def test_long_batch_holds_a_few_mb(self):
        rng = np.random.default_rng(9)
        small = [BranchingVector.parse(s) for s in ("2", "3,2", "2,2", "4,2,1", "5,3", "3,3,3")]
        shapes = [small[i] for i in rng.integers(0, len(small), 10**5)]
        for k in range(0, len(shapes), 5000):
            shapes[k] = BranchingVector.of(1100, 2) if k % 10000 else BranchingVector.of(2, 1100)
        eta = rng.uniform(0.5, 1.0, len(shapes))
        eps = rng.uniform(0.0, 1e-3, len(shapes))
        tracemalloc.start()
        try:
            got = logical_bsm_batch(shapes, eta, eps, Protocol.DYNAMIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(a.nbytes for a in got) < 4e6


class TestSharing:
    """Each distinct (suffix, eta, eps) of a batch reaches the recovery rule once per walk."""

    @staticmethod
    def _rows_per_walk(monkeypatch, shapes, eta, eps, protocol):
        """The rates of a batch, and how many rows it hands ``_chain_step`` per walk."""
        rows = []
        real = analytic._chain_step
        monkeypatch.setattr(analytic, "_chain_step",
                            lambda n_chains, *rest: rows.append(len(n_chains)) or real(n_chains, *rest))
        got = logical_bsm_batch(shapes, eta, eps, protocol)
        monkeypatch.undo()
        # The adaptive rules walk the single-qubit Z-parity beside the pair Z-parity.
        walks = 2 if protocol is Protocol.DYNAMIC else 1
        assert sum(rows) % walks == 0
        return np.array(got), sum(rows) // walks

    @staticmethod
    def _keys(rows) -> set:
        """Every (suffix, eta, eps) of suffix length 1 or more, whole shapes included."""
        return {(vec.branches[k:], eta, eps) for vec, eta, eps in rows for k in range(vec.depth)}

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_default_search_evaluates_each_suffix_once(self, protocol, monkeypatch):
        # 6294 rows take several chunks of sorted rows; none splits a suffix.
        _, per_walk = self._rows_per_walk(monkeypatch, DEFAULT_SHAPES, 0.95, 1e-5, protocol)
        assert per_walk == len(self._keys((vec, 0.95, 1e-5) for vec in DEFAULT_SHAPES)) == 6337

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_repeated_rows_are_evaluated_once_and_share_their_bits(self, protocol, monkeypatch):
        rng = np.random.default_rng(23)
        points = [(0.9, 1e-3), (0.7, 0.02), (0.9, 0.0)]
        rows = [(LOOSE_SHAPES[i], *points[k % 3])
                for k, i in enumerate(rng.choice(len(LOOSE_SHAPES), 40, replace=False))]
        picks = rng.integers(0, len(rows), 300)
        shapes, eta, eps = zip(*(rows[i] for i in picks))
        got, per_walk = self._rows_per_walk(monkeypatch, shapes, eta, eps, protocol)
        assert per_walk == len(self._keys(rows[i] for i in set(picks))) < len(picks)
        for i in set(picks):
            same = got[:, picks == i]
            assert all(column.tobytes() == same[:, 0].tobytes() for column in same.T)


def test_a_point_outside_the_unit_interval_is_refused():
    with pytest.raises(ValueError, match="eta must be in \\[0, 1\\], got 1.5"):
        logical_bsm_batch(["2,2"] * 3, [0.5, 1.5, 0.7], 0.0, Protocol.STATIC)
    with pytest.raises(ValueError, match="eps must be in \\[0, 1\\], got nan"):
        logical_bsm_batch(["2,2", "3"], 0.9, [0.0, float("nan")], Protocol.DYNAMIC)


def test_eps_beyond_a_channel_is_refused():
    # The depolarizing strength 3 eps / 2 reaches 1 at eps = 2/3.
    with pytest.raises(ValueError, match="eps must be at most 2/3.*got 0.8"):
        logical_bsm_batch(["2,2"] * 3, 0.9, [0.1, 0.8, 0.0], Protocol.DYNAMIC)
    with pytest.raises(ValueError, match="eps must be at most 2/3.*got 0.9"):
        logical_bsm("2,2", ChannelParams(eta=0.9, eps=0.9), Protocol.STATIC)


class TestShapeTable:
    """A ``(rows, depth)`` table of shapes, zero-padded at the leaf end, is a batch too."""

    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
    def test_table_rows_give_the_bits_of_the_shapes(self, protocol):
        shapes = LOOSE_SHAPES[::7]
        table = np.zeros((len(shapes), 5), dtype=np.int64)
        for row, vec in zip(table, shapes):
            row[:vec.depth] = vec.branches
        got, want = (np.array(logical_bsm_batch(s, 0.9, 1e-3, protocol)) for s in (table, shapes))
        assert got.tobytes() == want.tobytes()
        assert analytic._branch_array(table).tobytes() == analytic._branch_array(shapes).tobytes()

    @pytest.mark.parametrize("table", [
        np.array([[2, 0, 2]]), np.array([[0, 0]]), np.array([[2, 2], [0, 0]]), np.array([[3, -1]]),
        np.zeros((1, 0), dtype=int),
    ], ids=["zero-before-a-count", "empty-row", "empty-second-row", "negative", "no-levels"])
    def test_rows_that_are_no_shape_are_refused(self, table):
        with pytest.raises(ValueError, match="branch counts >= 1, then only zeros as padding"):
            logical_bsm_batch(table, 0.9, 1e-3, Protocol.STATIC)

    @pytest.mark.parametrize("table", [np.array([[2.0, 2.0]]), np.array([2, 2]),
                                       np.array([[True, True]])], ids=["float", "1-D", "bool"])
    def test_a_table_of_other_than_integers_in_two_dimensions_is_refused(self, table):
        with pytest.raises(ValueError, match="2-D integer array"):
            logical_bsm_batch(table, 0.9, 1e-3, Protocol.STATIC)

    def test_cap_holds_for_a_table(self):
        with pytest.raises(ValueError, match=f"branch count {MAX_CHAINS + 1} is above the cap"):
            logical_bsm_batch(np.array([[2, 0], [MAX_CHAINS + 1, 2]]), 0.9, 1e-3, Protocol.STATIC)

    def test_empty_table_is_an_empty_batch(self):
        rates = logical_bsm_batch(np.zeros((0, 0), dtype=np.int64), 0.9, 1e-3, Protocol.DYNAMIC)
        assert all(len(r) == 0 for r in rates)


class TestChainCap:
    def test_cap_is_refused_before_anything_is_allocated(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"cap of {MAX_CHAINS}"):
                logical_bsm((10**9, 2), ChannelParams(eta=0.9, eps=1e-3), Protocol.STATIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_sweep_over_the_cap_exits_1(self, tmp_path, capsys):
        out = tmp_path / "huge.csv"
        assert main(["sweep", "--protocol", "static", "--b", "1000000000,2",
                     "--output", str(out)]) == 1
        assert f"cap of {MAX_CHAINS}" in capsys.readouterr().err
        assert not out.exists()

    def test_widest_node_at_the_cap_holds_a_few_mb(self):
        tracemalloc.start()
        try:
            res = logical_bsm((MAX_CHAINS, 2), ChannelParams(eta=0.9, eps=1e-3), Protocol.STATIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= res.err_complete <= 0.75
        assert peak < 4e6

    @pytest.mark.parametrize("p,e", [(0.3, 0.49), (1e-4, 0.3), (0.999, 0.45), (1.0, 0.4999)])
    def test_vote_sum_in_column_chunks_matches_the_full_sum(self, p, e):
        n = 3 * analytic._BLOCK + 7  # one row takes four column chunks
        got = analytic._vote_error_mix(np.array([n]), np.array([p]), np.array([e]))[0]
        assert abs(got - vote_error_mix(n, p, e)) <= TOL

    @pytest.mark.parametrize("p,e", [(0.3, 0.49), (1e-4, 0.3), (0.999, 0.45), (1.0, 0.4999)])
    def test_wide_row_is_the_same_bits_beside_narrower_rows(self, p, e):
        # Alone the row takes chunks of _BLOCK columns; beside 9 rows, of _BLOCK // 10.
        n = np.array([3 * analytic._BLOCK + 7] + [2, 3, 7, 10, 64, 100, 999, 4000, 20000])
        alone = analytic._vote_error_mix(n[:1], np.array([p]), np.array([e]))[0]
        shared = analytic._vote_error_mix(n, np.full(len(n), p), np.full(len(n), e))[0]
        assert shared == alone
