import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from treebsm import montecarlo
from treebsm.analytic import (
    Protocol,
    dynamic_logical_bsm,
    static_logical_bsm,
)
from treebsm.montecarlo import (
    MAX_CHUNK_BYTES,
    SampleConfig,
    UnsupportedConfigurationError,
    World,
    _faults,
    _pair_flips,
    _planes,
    _raw_index,
    _sample_chunk,
    _seek,
    chunk_bytes,
    draw_world,
    eval_dynamic,
    eval_loss_only,
    eval_static,
    exhaustive_dynamic,
    exhaustive_static,
    run,
    sample_bsm_error_rates,
    z_score,
)
from treebsm.trees import BranchingVector, ChannelParams, photon_count

from reference_sampler import reference_dynamic_sample


def all_trees_up_to(n_max):
    out = []

    def rec(prefix):
        if prefix:
            out.append(tuple(prefix))
        for nxt in range(1, n_max):
            cand = prefix + [nxt]
            if photon_count(cand) <= n_max:
                rec(cand)

    rec([])
    return out


class TestExhaustiveAgainstAnalytic:
    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
    def test_static_small_trees(self, eta):
        params = ChannelParams(eta=eta)
        for b in all_trees_up_to(8):
            exact = exhaustive_static(b, params)
            closed = static_logical_bsm(b, params).pr_complete
            assert exact == pytest.approx(closed, abs=1e-10), b

    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
    def test_dynamic_small_trees(self, eta):
        params = ChannelParams(eta=eta)
        for b in [(2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)]:
            exact = exhaustive_dynamic(b, params)
            closed = dynamic_logical_bsm(b, params).pr_complete
            assert exact == pytest.approx(closed, abs=1e-10), b

    def test_static_midsize_tree(self):
        params = ChannelParams(eta=0.55)
        b = (2, 2, 1)  # 11 photons per tree
        assert exhaustive_static(b, params) == pytest.approx(
            static_logical_bsm(b, params).pr_complete, abs=1e-10
        )

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            exhaustive_static((15, 15, 2), ChannelParams(eta=0.9))


class TestVectorizedAgainstReference:
    @pytest.mark.parametrize(
        "b,eta,eps,seed",
        [((2, 2), 0.7, 0.05, 5), ((3, 2, 2), 0.8, 0.02, 6), ((4, 2, 1), 0.6, 0.03, 9),
         # Without loss about 300 first-level pairs vote: more than a byte counts.
         ((600,), 1.0, 0.3, 12)],
    )
    def test_dynamic_flags_match(self, b, eta, eps, seed):
        vec = BranchingVector(b)
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        world = draw_world(vec, ChannelParams(eta=eta, eps=eps), 250, rng)
        success, zz_err, xx_err = eval_dynamic(vec, world)
        for i in range(250):
            assert (
                bool(success[i]), bool(zz_err[i]), bool(xx_err[i])
            ) == reference_dynamic_sample(vec, world, i)

    @pytest.mark.parametrize("b", [(2, 2), (3, 2, 2), (4, 2, 1)])
    def test_leaf_tie_planes_are_never_read(self, b):
        # A leaf has no chains below it, so no vote at level d can tie.
        vec = BranchingVector(b)
        rng = np.random.Generator(np.random.Philox(key=[7, 0]))
        world = draw_world(vec, ChannelParams(eta=0.7, eps=0.05), 200, rng)
        want = [eval_static(vec, world), eval_dynamic(vec, world)]
        for ties in (world.tie_pair, world.tie_side_a, world.tie_side_b):
            ties[vec.depth] = None
        for before, after in zip(want, [eval_static(vec, world), eval_dynamic(vec, world)]):
            for w, g in zip(before, after):
                np.testing.assert_array_equal(g, w)
        for i in range(200):
            reference_dynamic_sample(vec, world, i)

    def test_root_tie_is_level_zero_of_the_pair_ties(self):
        # The logical X-parity's tie-break is the pair tie plane of the
        # virtual root: one row; the single-qubit sides have no level 0.
        world = draw_world(BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05), 50,
                           np.random.Generator(np.random.Philox(key=[7, 0])))
        assert world.tie_pair[0].shape == (1, 50)
        assert world.tie_side_a[0] is None and world.tie_side_b[0] is None

    def test_basis_audit_never_trips(self):
        # The reference evaluator raises if any photon is wanted in two
        # bases; exercising it across many worlds keeps that tripwire armed.
        vec = BranchingVector((2, 2, 2))
        world = draw_world(
            vec, ChannelParams(eta=0.5, eps=0.1), 100,
            np.random.Generator(np.random.Philox(key=[3, 0])),
        )
        for i in range(100):
            reference_dynamic_sample(vec, world, i)


class TestNodeMajorLayout:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_planes_are_contiguous_nodes_by_samples(self, eps):
        vec = BranchingVector((3, 2, 2))
        world = draw_world(vec, ChannelParams(eta=0.7, eps=eps), 37,
                           np.random.Generator(np.random.Philox(key=[5, 0])))
        drawn = 0
        for name in (f.name for f in fields(World)):
            planes = getattr(world, name)
            if planes is None:
                assert eps == 0.0 and name.startswith(("fault", "tie"))
                continue
            for k in range(1, vec.depth + 1):
                assert planes[k].shape == (len(vec.level_vertices(k)), 37), (name, k)
                assert planes[k].flags.c_contiguous, (name, k)
                drawn += 1
        assert drawn == (8 if eps else 3) * vec.depth

    def test_planes_are_transposed_draws_of_the_same_stream(self):
        # Same stream, new layout: each plane is one (n, s_k) fill of uniforms,
        # thresholded, in the documented order, stored as its transpose.  n is
        # above and not a multiple of the draw's block of samples.
        vec, params, n = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05), 1100
        world = draw_world(vec, params, n, np.random.Generator(np.random.Philox(key=[9, 0])))
        rng = np.random.Generator(np.random.Philox(key=[9, 0]))
        decoders = [("det_a", lambda u: u < params.eta), ("det_b", lambda u: u < params.eta),
                    ("coin", lambda u: u < 0.5),
                    ("fault_a", lambda u: _faults(u, params.eps_d)),
                    ("fault_b", lambda u: _faults(u, params.eps_d)),
                    ("tie_pair", lambda u: u < 0.5), ("tie_side_a", lambda u: u < 0.5),
                    ("tie_side_b", lambda u: u < 0.5)]
        for name, decode in decoders:
            for k in range(1, vec.depth + 1):
                want = decode(rng.random((n, len(vec.level_vertices(k))))).T
                np.testing.assert_array_equal(getattr(world, name)[k], want, err_msg=f"{name}[{k}]")
        np.testing.assert_array_equal(world.tie_pair[0], (rng.random((n, 1)) < 0.5).T)


class TestSampling:
    def test_reproducible_counters(self):
        cfg = SampleConfig(b=(2, 2), eta=0.8, eps=1e-3, protocol=Protocol.DYNAMIC,
                           n_samples=20000, seed=123, n_workers=3)
        a, b = run(cfg), run(cfg)
        assert (a.n_success, a.n_zz_error, a.n_xx_error) == (
            b.n_success, b.n_zz_error, b.n_xx_error
        )

    def test_worker_split_covers_all_samples(self):
        cfg = SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=10007, seed=1, n_workers=4)
        assert run(cfg).n_samples == 10007

    def test_static_known_value(self):
        cfg = SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=10**5, seed=42)
        est = run(cfg)
        assert abs(z_score(est.success, 0.492075, est.n_samples)) <= 3

    def test_no_loss_every_sample_is_exact(self):
        for b in ((2,), (3, 2)):
            cfg = SampleConfig(b=b, eta=1.0, eps=0.0, protocol=Protocol.DYNAMIC,
                               n_samples=4096, seed=3)
            est = run(cfg)
            assert est.success == pytest.approx(1 - 2.0 ** -b[0], abs=0.03)

    def test_dynamic_beats_static_at_low_eta(self):
        kw = dict(b=(2, 2), eta=0.55, eps=0.0, n_samples=10**5, seed=77)
        st = run(SampleConfig(protocol=Protocol.STATIC, **kw))
        dy = run(SampleConfig(protocol=Protocol.DYNAMIC, **kw))
        sigma = (st.success_stderr**2 + dy.success_stderr**2) ** 0.5
        assert dy.success - st.success > 3 * sigma


class TestLossOnly:
    def test_rejects_errors(self):
        cfg = SampleConfig(b=(2, 2), eta=0.8, eps=0.01, protocol=Protocol.LOSS_ONLY,
                           n_samples=10, seed=0)
        with pytest.raises(UnsupportedConfigurationError):
            run(cfg)

    def test_no_loss_closed_form(self):
        cfg = SampleConfig(b=(2, 2), eta=1.0, eps=0.0, protocol=Protocol.LOSS_ONLY,
                           n_samples=4096, seed=5)
        est = run(cfg)
        assert est.success == pytest.approx(0.75, abs=0.03)

    def test_between_static_and_dynamic(self):
        kw = dict(b=(3, 2), eta=0.7, eps=0.0, n_samples=10**5, seed=11)
        st = run(SampleConfig(protocol=Protocol.STATIC, **kw))
        lo = run(SampleConfig(protocol=Protocol.LOSS_ONLY, **kw))
        dy = run(SampleConfig(protocol=Protocol.DYNAMIC, **kw))
        slack = 3 * (2.0 / kw["n_samples"] ** 0.5)
        assert lo.success >= st.success - slack
        assert dy.success >= lo.success - slack


class TestFaultModel:
    def test_parity_flip_case_list(self):
        # Same letters on both photons compensate; X against Y also leaves
        # the Z parity intact, while either parity corrupts the X readout.
        cases = {
            (0, 0): (False, False),
            (1, 1): (False, False),  # X with X'
            (2, 2): (False, False),  # Y with Y'
            (3, 3): (False, False),  # Z with Z'
            (1, 2): (False, True),   # X with Y': Z parity safe, X readout hit
            (2, 1): (False, True),
            (1, 0): (True, True),    # single X
            (3, 0): (False, True),   # single Z: X readout only
            (1, 3): (True, True),    # X with Z'
        }
        for (fa, fb), (zz_want, xx_want) in cases.items():
            zz, xx = _pair_flips(np.array([fa], np.uint8), np.array([fb], np.uint8))
            assert (bool(zz[0]), bool(xx[0])) == (zz_want, xx_want), (fa, fb)

    def test_two_photon_rates(self):
        rates = sample_bsm_error_rates(0.01, 10**6, seed=7)
        assert abs(z_score(rates["zz_flip_rate"], 0.0198, rates["n"])) <= 3
        assert abs(z_score(rates["xx_error_rate"], 0.0297, rates["n"])) <= 3


class TestEstimate:
    def test_composed_error_and_json(self):
        cfg = SampleConfig(b=(2, 2), eta=0.9, eps=1e-2, protocol=Protocol.STATIC,
                           n_samples=20000, seed=9)
        est = run(cfg)
        ezz, exx = est.zz_error_rate, est.xx_error_rate
        assert est.error_rate == pytest.approx(ezz + (1 - ezz) * exx)
        blob = est.to_dict()
        assert blob["counters"]["n"] == 20000
        assert blob["config"]["b"] == "2,2"
        assert 0 < blob["success"] < 1
        assert blob["wall_time_s"] >= 0
        assert blob["world_bytes"] == est.world_bytes > 0
        assert blob["samples_per_s"] == pytest.approx(20000 / blob["wall_time_s"])

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_stage_times_are_worker_seconds(self, n_workers):
        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=1e-3, protocol=Protocol.DYNAMIC,
                           n_samples=20000, seed=3, n_workers=n_workers)
        est = run(cfg)
        assert est.draw_s >= 0 and est.eval_s >= 0
        # Each worker draws and evaluates inside the run's wall time.
        assert est.draw_s + est.eval_s <= est.wall_time_s * n_workers + 1e-3
        blob = est.to_dict()
        assert (blob["draw_s"], blob["eval_s"]) == (est.draw_s, est.eval_s)

    def test_z_score_handles_empty_tail(self):
        # No observed successes against a tiny reference is no surprise.
        assert abs(z_score(0.0, 1.4e-7, 10**5)) < 0.2

    def test_sensitivity_to_engine_mismatch(self):
        # Pairing the sampled adaptive protocol with the static closed form
        # must be flagged loudly.
        est = run(SampleConfig(b=(15, 15, 2), eta=0.6, eps=0.0,
                               protocol=Protocol.DYNAMIC, n_samples=20000, seed=2))
        wrong_ref = static_logical_bsm((15, 15, 2), ChannelParams(eta=0.6)).pr_complete
        assert abs(z_score(est.success, wrong_ref, est.n_samples)) > 3


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the thread pool for one that records its size and maps on the calling thread."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    return sizes


class TestConcurrency:
    @pytest.mark.parametrize("n_workers", [2, 5])
    def test_counters_equal_a_serial_loop_over_streams(self, n_workers):
        # 20003 samples give two workers two chunks each, and five workers
        # more workers than this machine is likely to have CPUs.
        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=0.02, protocol=Protocol.DYNAMIC,
                           n_samples=20003, seed=31, n_workers=n_workers)
        vec = BranchingVector(cfg.b)
        want = np.zeros(4, dtype=np.int64)
        base, rem = divmod(cfg.n_samples, n_workers)
        for w in range(n_workers):
            rng = np.random.Generator(np.random.Philox(key=[cfg.seed, w]))
            left = base + (1 if w < rem else 0)
            while left:
                n = min(8192, left)
                success, zz, xx = eval_dynamic(vec, draw_world(vec, cfg.params, n, rng))
                want += [success.sum(), zz.sum(), xx.sum(), (zz | xx).sum()]
                left -= n
        est = run(cfg)
        got = [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error]
        assert got == want.tolist()

    def test_pool_is_never_larger_than_the_cpu_count(self, pool_sizes):
        cfg = SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=6400, seed=4, n_workers=64)
        est = run(cfg)
        assert len(pool_sizes) == 1
        assert 1 <= pool_sizes[0] <= min(64, os.cpu_count())
        assert est.n_samples == 6400 and 0 < est.n_success < 6400

    def test_one_worker_runs_without_a_pool(self, pool_sizes):
        run(SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                         n_samples=100, seed=4))
        assert pool_sizes == []

    def test_worker_arenas_are_released_after_the_pool(self, monkeypatch):
        # The trim must follow the pool's shutdown, when no worker allocates.
        events = []

        class Pool(montecarlo.ThreadPoolExecutor):
            def __exit__(self, *exc):
                events.append("pool closed")
                return super().__exit__(*exc)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(montecarlo, "_malloc_trim", lambda pad: events.append(f"trim {pad}"))
        cfg = SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=100, seed=4, n_workers=2)
        run(cfg)
        assert events == ["pool closed", "trim 0"]
        run(replace(cfg, n_workers=1))
        assert events == ["pool closed", "trim 0"]


@pytest.fixture
def small_windows(monkeypatch):
    """Let chunks of small trees split into windows; returns the window count of each chunk drawn."""
    counts = []
    window_count = montecarlo._window_count

    def spy(*args):
        counts.append(window_count(*args))
        return counts[-1]

    monkeypatch.setattr(montecarlo, "_MIN_WINDOW", 1)
    monkeypatch.setattr(montecarlo, "_window_count", spy)
    return counts


class TestWindowedDraw:
    @pytest.mark.parametrize("pre", range(6))
    def test_positioning_matches_the_raw_stream(self, pre):
        want = np.random.Philox(key=[8, 1]).random_raw(pre + 50)
        rng = np.random.Generator(np.random.Philox(key=[8, 1]))
        rng.random(pre)
        assert _raw_index(rng.bit_generator) == pre
        for k in range(41):
            bits = np.random.Philox(key=[8, 1])
            _seek(bits, _raw_index(rng.bit_generator) + k)
            got = bits.random_raw(9)
            np.testing.assert_array_equal(got, want[pre + k:pre + k + 9], err_msg=f"k={k}")
            _seek(bits, pre)  # backwards too
            assert _raw_index(bits) == pre and bits.random_raw() == want[pre]
            _seek(bits, 4 * 2**256 + pre + k)  # the counter wraps
            assert bits.random_raw() == want[pre + k]

    @pytest.mark.parametrize("windows", [2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_windowed_world_equals_the_serial_world(self, small_windows, windows, eps):
        vec, params, n = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=eps), 1100
        rngs = [np.random.Generator(np.random.Philox(key=[9, 0])) for _ in range(2)]
        for rng in rngs:
            rng.random(7)
        serial = draw_world(vec, params, n, rngs[0])
        with ThreadPoolExecutor(max_workers=windows - 1) as pool:
            split = draw_world(vec, params, n, rngs[1], windows, pool)
        assert small_windows == [1, windows]
        for name in (f.name for f in fields(World)):
            want, got = getattr(serial, name), getattr(split, name)
            if want is None:
                assert got is None and eps == 0.0
                continue
            for k, (w, g) in enumerate(zip(want, got)):
                if w is None:
                    assert g is None
                else:
                    assert g.flags.c_contiguous
                    np.testing.assert_array_equal(g, w, err_msg=f"{name}[{k}]")
        plain = np.random.Generator(np.random.Philox(key=[9, 0]))
        plain.random(7 + n * sum(width for *_, width in _planes(vec, eps > 0.0)))
        want = plain.random(9)
        for rng in rngs:  # both end where a plain draw of the chunk's uniforms does
            np.testing.assert_array_equal(rng.random(9), want)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_counters_do_not_depend_on_windows(self, small_windows, monkeypatch, cpus, n_workers):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=0.02, protocol=Protocol.DYNAMIC,
                           n_samples=20003, seed=31, n_workers=n_workers)
        vec = BranchingVector(cfg.b)
        want = np.zeros(4, dtype=np.int64)
        base, rem = divmod(cfg.n_samples, n_workers)
        for w in range(n_workers):
            rng = np.random.Generator(np.random.Philox(key=[cfg.seed, w]))
            left = base + (1 if w < rem else 0)
            while left:
                n = min(8192, left)
                success, zz, xx = eval_dynamic(vec, draw_world(vec, cfg.params, n, rng))
                want += [success.sum(), zz.sum(), xx.sum(), (zz | xx).sum()]
                left -= n
        small_windows.clear()
        est = run(cfg)
        assert (max(small_windows) > 1) == (cpus // min(n_workers, cpus) > 1)
        got = [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error]
        assert got == want.tolist()

    def test_window_arenas_are_released_after_the_pool(self, small_windows, monkeypatch):
        events = []

        class Pool(montecarlo.ThreadPoolExecutor):
            def __exit__(self, *exc):
                events.append("pool closed")
                return super().__exit__(*exc)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_malloc_trim", lambda pad: events.append(f"trim {pad}"))
        run(SampleConfig(b=(3, 2), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                         n_samples=100, seed=4))
        assert small_windows[-1] == 2 and events == ["pool closed", "trim 0"]

    def test_windows_add_no_memory(self):
        vec, params = BranchingVector((15, 15, 2)), ChannelParams(eta=0.8, eps=1e-3)
        peaks = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            for windows in (1, 2):
                rng = np.random.Generator(np.random.Philox(key=[1, 0]))
                tracemalloc.start()
                try:
                    _sample_chunk(vec, params, 8192, rng, eval_dynamic, windows, pool)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1e6


class TestMemoryBudget:
    def test_one_chunk_of_the_reference_tree(self):
        vec = BranchingVector((15, 15, 2))
        rng = np.random.Generator(np.random.Philox(key=[1, 0]))
        tracemalloc.start()
        try:
            world = draw_world(vec, ChannelParams(eta=0.8, eps=1e-3), 8192, rng)
            eval_dynamic(vec, world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert world.nbytes <= 46e6
        assert peak <= 130e6
        # The size estimate is the world plus a float64 buffer for the widest level.
        assert chunk_bytes(vec, 8192, True) == world.nbytes + 8 * 8192 * 450


class TestSizeCap:
    TOWER = (120, 120, 24, 11, 8, 4, 1)

    def test_tower_is_refused_before_anything_is_drawn(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a world was drawn")

        monkeypatch.setattr(montecarlo, "draw_world", no_draw)
        cfg = SampleConfig(b=self.TOWER, eta=0.9, eps=1e-3, protocol=Protocol.STATIC,
                           n_samples=10**5, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedConfigurationError, match="GB"):
                run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_reference_shapes_fit(self):
        for b in ((15, 15, 2), (74, 15)):
            assert chunk_bytes(BranchingVector(b), 8192, True) < MAX_CHUNK_BYTES
