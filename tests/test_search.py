import time
import tracemalloc

import numpy as np
import pytest

from treebsm import search
from treebsm.analytic import Protocol, logical_bsm
from treebsm.cli import main
from treebsm.search import (
    CSV_HEADER,
    MAX_TABLE_CELLS,
    SearchBounds,
    enumerate_trees,
    evaluate_all,
    front_to_csv,
    pareto_front,
)
from treebsm.trees import ChannelParams, photon_count

from builders import smallest_error_correcting
from reference_search import reference_enumerate_trees

LOOSE = dict(min_branch=1, min_depth=1, monotone=False)


class TestEnumerate:
    def test_depth_one(self):
        got = list(enumerate_trees(SearchBounds(1, 3, 10, **LOOSE)))
        assert [t.branches for t in got] == [(1,), (2,), (3,)]

    def test_depth_two_with_photon_cap(self):
        got = list(enumerate_trees(SearchBounds(2, 2, 7, **LOOSE)))
        assert [t.branches for t in got] == [
            (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)
        ]

    def test_count_matches_independent_counter(self):
        bounds = SearchBounds(3, 15, 691, **LOOSE)

        def count(prefix_product, depth_left, budget):
            total = 0
            for nxt in range(1, 16):
                cost = prefix_product * nxt
                if cost > budget:
                    break
                total += 1
                if depth_left > 1:
                    total += count(cost, depth_left - 1, budget - cost)
            return total

        assert len(list(enumerate_trees(bounds))) == count(1, 3, 690)

    def test_default_bounds_shape(self):
        got = list(enumerate_trees(SearchBounds()))
        assert all(t.depth >= 2 for t in got)
        assert all(min(t.branches) >= 2 for t in got)
        assert all(
            all(a >= b for a, b in zip(t.branches, t.branches[1:])) for t in got
        )
        assert all(photon_count(t) <= 2000 for t in got)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            SearchBounds(max_depth=0)
        with pytest.raises(ValueError):
            SearchBounds(min_branch=5, max_branch=4)


class TestFront:
    def test_milestone_entries_at_reference_point(self):
        params = ChannelParams(eta=0.95, eps=1e-5)
        dyn = pareto_front(SearchBounds(max_depth=3, max_branch=20, max_photons=700),
                           params, Protocol.DYNAMIC)
        ec = [e for e in dyn if e.error_correcting]
        assert ec and ec[0].n_photons == 691 and ec[0].b.branches == (15, 15, 2)

        stat = pareto_front(SearchBounds(max_depth=3, max_branch=80, max_photons=1300),
                            params, Protocol.STATIC)
        ec = [e for e in stat if e.error_correcting]
        assert ec and ec[0].n_photons == 1185 and ec[0].b.branches == (74, 15)

    def test_smallest_tree_beats_physical_pairs(self):
        params = ChannelParams(eta=0.95, eps=1e-5)
        front = pareto_front(SearchBounds(max_photons=100), params, Protocol.DYNAMIC)
        first = front[0]
        assert first.n_photons == 7 and first.b.branches == (2, 2)
        assert first.beats_physical and not first.loss_tolerant

    def test_flags_recompute_from_engine(self):
        params = ChannelParams(eta=0.9, eps=1e-4)
        front = pareto_front(SearchBounds(max_photons=150), params, Protocol.STATIC)
        for e in front:
            res = logical_bsm(e.b, params, Protocol.STATIC)
            assert e.pr_complete == res.pr_complete
            assert e.err_complete == res.err_complete
            assert e.loss_tolerant == (res.pr_complete > params.eta**2)
            assert e.error_correcting == (res.err_complete < params.eps_bsm)

    def test_front_is_mutually_non_dominated(self):
        params = ChannelParams(eta=0.9, eps=1e-4)
        front = pareto_front(SearchBounds(max_photons=200), params, Protocol.DYNAMIC)
        for i, a in enumerate(front):
            for b in front[i + 1:]:
                # the later (larger) entry must beat a in some axis
                assert b.pr_complete > a.pr_complete or b.err_complete < a.err_complete

    def test_success_improvers_are_monotone(self):
        params = ChannelParams(eta=0.9, eps=1e-4)
        front = pareto_front(SearchBounds(max_photons=300), params, Protocol.DYNAMIC)
        prs = [e.pr_complete for e in front if e.improves_success]
        assert all(a < b for a, b in zip(prs, prs[1:]))

    def test_lossless_error_front_is_success_staircase(self):
        params = ChannelParams(eta=0.85, eps=0.0)
        front = pareto_front(SearchBounds(max_photons=200), params, Protocol.STATIC)
        prs = [e.pr_complete for e in front]
        assert prs == sorted(prs)
        assert all(e.improves_success for e in front)

    def test_empty_front_possible_only_with_empty_bounds(self):
        params = ChannelParams(eta=0.5, eps=0.0)
        front = pareto_front(SearchBounds(max_photons=7), params, Protocol.STATIC)
        assert [e.b.branches for e in front] == [(2, 2)]

    @pytest.mark.parametrize("protocol", [Protocol.STATIC, Protocol.DYNAMIC], ids=lambda p: p.value)
    def test_bounds_with_no_shape_give_an_empty_front(self, protocol):
        params = ChannelParams(eta=0.9, eps=1e-4)
        assert pareto_front(SearchBounds(max_photons=6), params, protocol) == []

    def test_cli_writes_the_header_alone_for_an_empty_search(self, tmp_path):
        out = tmp_path / "front.csv"
        assert main(["search", "--protocol", "static", "--eta", "0.9", "--max-n", "6",
                     "--output", str(out)]) == 0
        assert out.read_text().splitlines() == [",".join(CSV_HEADER)]

    def test_one_engine_batch_and_entries_only_for_the_front(self, monkeypatch):
        batches, entries = [], []
        real_batch, real_entry = search.logical_bsm_batch, search.ParetoEntry

        def counting_batch(*args, **kwargs):
            batches.append(args[0])
            return real_batch(*args, **kwargs)

        def counting_entry(*args, **kwargs):
            entries.append(args[0])
            return real_entry(*args, **kwargs)

        monkeypatch.setattr(search, "logical_bsm_batch", counting_batch)
        monkeypatch.setattr(search, "ParetoEntry", counting_entry)
        bounds, params = SearchBounds(max_photons=300), ChannelParams(eta=0.9, eps=1e-4)
        front = pareto_front(bounds, params, Protocol.DYNAMIC)
        assert len(batches) == 1 and len(batches[0]) == len(list(enumerate_trees(bounds)))
        assert len(entries) == len(front) < len(batches[0])


class TestHelpers:
    def test_smallest_error_correcting_none_below_threshold(self):
        params = ChannelParams(eta=0.95, eps=1e-5)
        assert smallest_error_correcting(
            SearchBounds(max_photons=100), params, Protocol.STATIC
        ) is None

    def test_csv_schema(self):
        params = ChannelParams(eta=0.95, eps=1e-5)
        front = pareto_front(SearchBounds(max_photons=20), params, Protocol.DYNAMIC)
        text = front_to_csv(front)
        header = text.splitlines()[0]
        assert header == (
            "b,n,protocol,eta,eps,pr_complete,err_complete,"
            "loss_tolerant,error_correcting"
        )
        first = text.splitlines()[1]
        assert first.startswith('"2,2",7,dynamic,')

    def test_evaluate_all_sorted_by_photon_count(self):
        params = ChannelParams(eta=0.9, eps=0.0)
        table, _ = evaluate_all(SearchBounds(max_photons=60), params, Protocol.STATIC)
        ns = [photon_count(search._vector(row)) for row in table.tolist()]
        assert ns == sorted(ns)


ORACLE_BOUNDS = {
    "default": SearchBounds(),
    "loose": SearchBounds(**LOOSE),
    "increasing-min-depth-3": SearchBounds(monotone=False, min_depth=3),
    "n-7": SearchBounds(max_photons=7),
    "n-60": SearchBounds(max_photons=60),
    "n-700": SearchBounds(max_photons=700),
    # The recursion holds one frame per level, so its chains stay short.
    "unit-chain": SearchBounds(max_depth=1000, max_branch=1, max_photons=400, min_branch=1),
}


class TestTable:
    """The shape table against the recursive enumerator it replaced."""

    @pytest.mark.parametrize("bounds", ORACLE_BOUNDS.values(), ids=ORACLE_BOUNDS.keys())
    def test_table_rows_are_the_sorted_recursion(self, bounds):
        reference = list(reference_enumerate_trees(bounds))
        assert list(enumerate_trees(bounds)) == reference
        want = sorted(reference, key=lambda b: (photon_count(b), b.branches))
        table, rates = evaluate_all(bounds, ChannelParams(eta=0.9, eps=0.0), Protocol.STATIC)
        assert table.shape == (len(want), max(b.depth for b in want))
        assert len(rates.pr_complete) == len(want)
        assert [tuple(row) for row in table.tolist()] == [
            b.branches + (0,) * (table.shape[1] - b.depth) for b in want]

    def test_photon_counts_are_the_rows(self):
        table, photons = search._shape_table(SearchBounds(**LOOSE, max_photons=500))
        assert photons.tolist() == [photon_count(search._vector(row)) for row in table.tolist()]

    def test_table_is_as_wide_as_its_deepest_shape(self):
        for max_depth in (9, 99999):
            table, _ = search._shape_table(SearchBounds(max_depth=max_depth))
            assert table.shape == (6946, 9)
        table, _ = search._shape_table(SearchBounds(max_photons=6))
        assert table.shape == (0, 0)

    def test_unit_chains_reach_the_photon_bound_without_recursion(self):
        table, photons = search._shape_table(SearchBounds(max_depth=5000, max_branch=1, min_branch=1))
        assert table.shape == (1998, 1999)
        assert (table == np.tri(1998, 1999, 1, dtype=int)).all()
        assert photons.tolist() == list(range(3, 2001))

    def test_cells_are_capped_before_the_level_is_allocated(self):
        # Depth 4 adds 80**4 shapes, 1.3 GB of cells; depth 3 holds 12 MB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"cap of {MAX_TABLE_CELLS} cells"):
                search._shape_table(SearchBounds(max_photons=10**9, **LOOSE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert 6294 * 4 < 1998 * 1999 < MAX_TABLE_CELLS // 4

    def test_bounds_beyond_int64_do_not_overflow(self):
        # The depth and branch bounds hold the photon count to 6**4 + ... + 1.
        table, photons = search._shape_table(SearchBounds(max_branch=6, max_photons=10**30))
        reach = photon_count((6, 6, 6, 6))
        assert photons.max() == reach
        assert table.tolist() == search._shape_table(SearchBounds(max_branch=6, max_photons=reach))[0].tolist()
        with pytest.raises(ValueError, match="above the cap of 2\\*\\*62"):
            search._shape_table(SearchBounds(max_depth=70, min_branch=2, max_branch=2,
                                             max_photons=10**30))
        with pytest.raises(ValueError, match="above the cap of 2\\*\\*62"):
            search._shape_table(SearchBounds(min_branch=10**20, max_branch=10**21,
                                             max_photons=10**30))


class TestCliBounds:
    @pytest.mark.parametrize("max_n", ["1000000000", str(10**30)])
    def test_impossible_bounds_exit_1_with_an_error_line(self, max_n, tmp_path, capsys):
        out = tmp_path / "front.csv"
        assert main(["search", "--protocol", "static", "--eta", "0.9", "--max-n", max_n,
                     "--min-branch", "1", "--no-monotone", "--output", str(out)]) == 1
        assert f"cap of {MAX_TABLE_CELLS} cells" in capsys.readouterr().err
        assert not out.exists()

    def test_unit_chains_to_depth_5000_exit_0(self, tmp_path):
        out = tmp_path / "front.csv"
        assert main(["search", "--protocol", "static", "--eta", "0.9", "--max-depth", "5000",
                     "--min-branch", "1", "--max-branch", "1", "--output", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith('"1,1",3,static,')

    def test_depth_bound_past_every_shape_costs_nothing(self, tmp_path):
        texts, times = [], []
        for max_depth in ("9", "99999"):
            out = tmp_path / f"front-{max_depth}.csv"
            start = time.perf_counter()
            assert main(["search", "--protocol", "dynamic", "--eta", "0.95", "--eps", "1e-5",
                         "--max-depth", max_depth, "--output", str(out)]) == 0
            times.append(time.perf_counter() - start)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert times[1] < 3 * times[0] + 1.0
