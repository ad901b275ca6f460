import os
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from treebsm import cli, montecarlo
from treebsm.analytic import (
    Protocol,
    dynamic_logical_bsm,
    static_logical_bsm,
)
from treebsm.montecarlo import (
    MAX_CHUNK_BYTES,
    STREAM_VERSION,
    SampleConfig,
    UnsupportedConfigurationError,
    World,
    _faults,
    _pair_flips,
    _planes,
    _sample_window,
    _seek,
    _windows,
    chunk_bytes,
    draw_world,
    eval_dynamic,
    eval_loss_only,
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

    def test_enumeration_cap_needs_no_power(self):
        # 3^(10^9) is never formed: the refusal is immediate and small.
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="1001001000 pairs is too many for enumeration"):
                exhaustive_static((1000, 1000, 1000), ChannelParams(eta=0.9))
            seconds = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seconds < 1 and peak < 1e6


class TestVectorizedAgainstReference:
    @pytest.mark.parametrize(
        "b,eta,eps,seed",
        [((2, 2), 0.7, 0.05, 5), ((3, 2, 2), 0.8, 0.02, 6), ((4, 2, 1), 0.6, 0.03, 9),
         # Without loss about 300 first-level pairs vote: more than a byte counts.
         ((600,), 1.0, 0.3, 12)],
    )
    def test_dynamic_flags_match(self, b, eta, eps, seed):
        vec = BranchingVector(b)
        world = draw_world(vec, ChannelParams(eta=eta, eps=eps), 250, [seed, 0])
        success, zz_err, xx_err = eval_dynamic(vec, world)
        for i in range(250):
            assert (
                bool(success[i]), bool(zz_err[i]), bool(xx_err[i])
            ) == reference_dynamic_sample(vec, world, i)

    def test_root_tie_is_level_zero_of_the_pair_ties(self):
        # The logical X-parity's tie-break is the pair tie plane of the
        # virtual root: one row; the single-qubit sides have no level 0.
        world = draw_world(BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05), 50, [7, 0])
        assert world.tie_pair[0].shape == (1, 50)
        assert world.tie_side_a[0] is None and world.tie_side_b[0] is None

    def test_basis_audit_never_trips(self):
        # The reference evaluator raises if any photon is wanted in two
        # bases; exercising it across many worlds keeps that tripwire armed.
        vec = BranchingVector((2, 2, 2))
        world = draw_world(vec, ChannelParams(eta=0.5, eps=0.1), 100, [3, 0])
        for i in range(100):
            reference_dynamic_sample(vec, world, i)


def _unread(protocol, d, eps):
    """The (field, level) planes a protocol never reads, written out by hand."""
    if protocol is Protocol.LOSS_ONLY:  # pairs below level 1 are measured photon by photon
        return {("coin", k) for k in range(2, d + 1)}
    if eps == 0.0:  # no faults, no ties
        return set()
    leaves = {(field, d) for field in ("tie_pair", "tie_side_a", "tie_side_b")}
    if protocol is Protocol.DYNAMIC:
        return leaves
    return leaves | {(field, k) for field in ("tie_side_a", "tie_side_b") for k in range(1, d)}


READ_CASES = [(p, b, eps) for p in Protocol for b in ((2, 2), (3, 2, 2), (4, 2, 1))
              for eps in ((0.0,) if p is Protocol.LOSS_ONLY else (0.0, 0.05))]


class TestReadSets:
    @pytest.mark.parametrize("protocol,b,eps", READ_CASES,
                             ids=[f"{p.value}-{','.join(map(str, b))}-{eps}" for p, b, eps in READ_CASES])
    def test_unread_planes_are_not_drawn(self, protocol, b, eps):
        # A run draws only the planes its evaluator reads; a skipped plane
        # moves no other plane in the stream, and the flags do not change.
        # A window's planes and flags are columns lo:hi of the whole chunk's.
        # An odd n starts the planes of odd width off Philox's blocks of four
        # raws.
        vec, params = BranchingVector(b), ChannelParams(eta=0.7, eps=eps)
        reads, evaluator = montecarlo._READS[protocol], montecarlo._EVALUATORS[protocol]
        unread = _unread(protocol, vec.depth, eps)
        for n, key in ((300, [7, 0]), (301, [7, 1]), (303, [7, 8195])):
            whole = draw_world(vec, params, n, key)
            want = evaluator(vec, whole)
            for lo, hi in ((0, n), (0, 1), (1, 150), (150, n - 1), (n - 1, n)):
                world = draw_world(vec, params, n, key, reads, lo, hi)
                for field, k, _ in _planes(vec, eps > 0.0):
                    plane = getattr(world, field)[k]
                    where = f"{field}[{k}], n={n}, window={lo}:{hi}"
                    assert (plane is None) == ((field, k) in unread), where
                    if plane is not None:
                        np.testing.assert_array_equal(plane, getattr(whole, field)[k][:, lo:hi],
                                                      err_msg=where)
                for w, g in zip(want, evaluator(vec, world)):
                    np.testing.assert_array_equal(g, w[lo:hi])
        if protocol is Protocol.DYNAMIC and eps > 0.0:  # the reference needs faults
            world = draw_world(vec, params, n, [7, 8195], reads)
            success, zz_err, xx_err = evaluator(vec, world)
            for i in range(n):
                assert (bool(success[i]), bool(zz_err[i]), bool(xx_err[i])) \
                    == reference_dynamic_sample(vec, world, i)


class TestNodeMajorLayout:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_planes_are_contiguous_nodes_by_samples(self, eps):
        vec = BranchingVector((3, 2, 2))
        world = draw_world(vec, ChannelParams(eta=0.7, eps=eps), 37, [5, 0])
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
        # Each plane is one (n, s_k) fill of uniforms, thresholded, in the
        # documented order, stored as its transpose; a chunk starts where a
        # plain generator of its key starts at counter STREAM_VERSION * 2^192.
        # A (3, 2) world with faults has planes of 3 and 6 columns, so with
        # n = 1101 they start at raw 0, 3303, 9909, ...: 0, 3, 1, ... mod 4,
        # every offset into Philox's blocks of four raws.  n is above and not
        # a multiple of the draw's block of samples.
        vec, params = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05)
        assert STREAM_VERSION == 2
        decoders = [("det_a", lambda u: u < params.eta), ("det_b", lambda u: u < params.eta),
                    ("coin", lambda u: u < 0.5),
                    ("fault_a", lambda u: _faults(u, params.eps_d)),
                    ("fault_b", lambda u: _faults(u, params.eps_d)),
                    ("tie_pair", lambda u: u < 0.5), ("tie_side_a", lambda u: u < 0.5),
                    ("tie_side_b", lambda u: u < 0.5)]
        for n, key in ((1100, [9, 0]), (1101, [9, 8195])):
            world = draw_world(vec, params, n, key)
            rng = np.random.Generator(np.random.Philox(key=key, counter=2 << 192))
            for name, decode in decoders:
                for k in range(1, vec.depth + 1):
                    want = decode(rng.random((n, len(vec.level_vertices(k))))).T
                    np.testing.assert_array_equal(getattr(world, name)[k], want,
                                                  err_msg=f"{name}[{k}], n={n}")
            np.testing.assert_array_equal(world.tie_pair[0], (rng.random((n, 1)) < 0.5).T)


class TestSampling:
    def test_reproducible_counters(self):
        cfg = SampleConfig(b=(2, 2), eta=0.8, eps=1e-3, protocol=Protocol.DYNAMIC,
                           n_samples=20000, seed=123)
        a, b = run(cfg), run(cfg)
        assert (a.n_success, a.n_zz_error, a.n_xx_error) == (
            b.n_success, b.n_zz_error, b.n_xx_error
        )

    def test_worker_split_covers_all_samples(self):
        # 10007 samples are one whole chunk and a partial one; every sample is
        # drawn once, and the worker count the configuration carries moves no
        # counter.
        cfg = SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=10007, seed=1, n_workers=4)
        est, one = run(cfg), run(replace(cfg, n_workers=1))
        assert est.n_samples == one.n_samples == 10007
        assert (est.n_success, est.n_zz_error, est.n_xx_error) == (
            one.n_success, one.n_zz_error, one.n_xx_error
        )

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


@pytest.mark.parametrize("eps", [0.8, 0.9])
def test_eps_beyond_a_channel_is_refused(eps):
    # Above 2/3 the per-photon fault rate 3 eps / 2 would exceed 1.
    with pytest.raises(ValueError, match=f"eps must be at most 2/3.*got {eps}"):
        SampleConfig(b=(2,), eta=0.9, eps=eps, protocol=Protocol.STATIC, n_samples=10, seed=1)
    with pytest.raises(ValueError, match=f"eps must be at most 2/3.*got {eps}"):
        sample_bsm_error_rates(eps, 1000, 1)


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
        assert blob["stream_version"] == STREAM_VERSION == 2
        assert "n_workers" not in blob["config"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_stage_times_are_worker_seconds(self, monkeypatch, cpus):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=1e-3, protocol=Protocol.DYNAMIC,
                           n_samples=20000, seed=3)
        est = run(cfg)
        assert est.draw_s >= 0 and est.eval_s >= 0
        # Each pool thread, one per usable CPU, draws and evaluates inside
        # the run's wall time.
        assert est.draw_s + est.eval_s <= est.wall_time_s * cpus + 1e-3
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


def serial_counters(cfg: SampleConfig) -> list[int]:
    """Dynamic-protocol run counters from a serial loop that draws chunk c whole from
    stream ``[seed, c]``."""
    vec = BranchingVector(cfg.b)
    want = np.zeros(4, dtype=np.int64)
    for c, first in enumerate(range(0, cfg.n_samples, montecarlo._CHUNK)):
        n = min(montecarlo._CHUNK, cfg.n_samples - first)
        success, zz, xx = eval_dynamic(vec, draw_world(vec, cfg.params, n, [cfg.seed, c]))
        want += [success.sum(), zz.sum(), xx.sum(), (zz | xx).sum()]
    return want.tolist()


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
    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
    def test_counters_equal_a_serial_loop_over_streams(self, n_workers):
        # 20003 samples are two whole chunks and a partial one.  The counters
        # are those of one stream per chunk, whatever worker count the
        # configuration still carries.
        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=0.02, protocol=Protocol.DYNAMIC,
                           n_samples=20003, seed=31, n_workers=n_workers)
        est = run(cfg)
        got = [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error]
        assert got == serial_counters(cfg)

    def test_pool_is_never_larger_than_the_cpu_count(self, pool_sizes):
        cfg = SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=6400, seed=4)
        est = run(cfg)
        assert len(pool_sizes) == 1
        assert 1 <= pool_sizes[0] <= os.cpu_count()
        assert est.n_samples == 6400 and 0 < est.n_success < 6400

    def test_one_worker_run_maps_on_the_one_pool(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
        run(SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                         n_samples=100, seed=4))
        assert pool_sizes == [3]

    def test_worker_arenas_are_released_after_the_pool(self, monkeypatch):
        # Every run closes its pool, then trims: the trim must follow the
        # pool's shutdown, when no thread allocates.
        events = []

        class Pool(montecarlo.ThreadPoolExecutor):
            def __exit__(self, *exc):
                events.append("pool closed")
                return super().__exit__(*exc)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(montecarlo, "_malloc_trim", lambda pad: events.append(f"trim {pad}"))
        cfg = SampleConfig(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=100, seed=4)
        run(cfg)
        assert events == ["pool closed", "trim 0"]
        run(replace(cfg, seed=5))
        assert events == ["pool closed", "trim 0"] * 2


class TestChunkTasks:
    def test_counters_do_not_depend_on_chunk_order(self, monkeypatch):
        # Every window is drawn from its own position in its chunk's stream,
        # so running the tasks backwards changes no counter.  50003 samples
        # are six whole chunks and one of 851 samples, and a (3, 2) dynamic
        # sample draws 55 uniforms, so each chunk is one window.
        order = []

        class ReversePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)[::-1]
                order.extend(items)
                return [fn(item) for item in items]

        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=0.02, protocol=Protocol.DYNAMIC,
                           n_samples=50003, seed=31)
        want = run(cfg)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", ReversePool)
        got = run(cfg)
        tasks = [(c, 8192, 0, 8192) for c in range(6)] + [(6, 851, 0, 851)]
        assert order == tasks[::-1]
        for est in (want, got):
            assert [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error] \
                == serial_counters(cfg)


class TestWorkerCap:
    def test_huge_worker_count_is_refused_before_anything_runs(self, monkeypatch, capsys):
        # validate has no worker count: any --workers is a usage error.
        def no_run(cfg):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(cli, "run_mc", no_run)
        for workers in ("2", "1000000000"):
            tracemalloc.start()
            try:
                with pytest.raises(SystemExit) as exc:
                    cli.main(["validate", "--protocol", "static", "--b", "2", "--eta", "0.9",
                              "--workers", workers])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert exc.value.code == 1 and f"--workers {workers}" in capsys.readouterr().err
            assert peak < 1e6


class TestSeed:
    def test_seed_outside_64_bits_is_refused(self):
        kw = dict(b=(2,), eta=0.9, eps=0.0, protocol=Protocol.STATIC, n_samples=10)
        assert SampleConfig(seed=2**64 - 1, **kw).seed == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be in 0 to 2\^64 - 1"):
                SampleConfig(seed=bad, **kw)

    @pytest.mark.parametrize("seed", [2**63 + 1, 2**64 - 1])
    def test_high_seeds_are_their_own_keys(self, seed):
        # numpy reads a key list holding a word of 2^63 or more through
        # float64, which turns 2^63 + 1 into 2^63 and warns at 2^64 - 1.
        vec, params = BranchingVector((2,)), ChannelParams(eta=0.5)
        bits = np.random.Philox(key=np.array([seed, 0], np.uint64), counter=2 << 192)
        want = np.random.Generator(bits).random((64, 2)).T < 0.5
        np.testing.assert_array_equal(draw_world(vec, params, 64, [seed, 0]).det_a[1], want)

    def test_bsm_error_rates_take_every_64_bit_seed(self):
        rates = [sample_bsm_error_rates(0.3, 1000, seed) for seed in (2**63, 2**63 + 1)]
        assert rates[0] != rates[1]
        with pytest.raises(ValueError, match=r"seed must be in 0 to 2\^64 - 1"):
            sample_bsm_error_rates(0.3, 1000, 2**64)


class TestWindowedDraw:
    @pytest.mark.parametrize("pre", range(6))
    def test_positioning_matches_the_raw_stream(self, pre):
        want = np.random.Philox(key=[8, 1], counter=2 << 192).random_raw(pre + 50)
        bits = np.random.Philox(key=[8, 1])
        for k in range(41):
            _seek(bits, pre + k)
            got = bits.random_raw(9)
            np.testing.assert_array_equal(got, want[pre + k:pre + k + 9], err_msg=f"k={k}")
            _seek(bits, pre)  # backwards too
            assert bits.random_raw() == want[pre]
            _seek(bits, 4 * 2**256 + pre + k)  # the counter wraps
            assert bits.random_raw() == want[pre + k]

    @pytest.mark.parametrize("n", [1, 2, 1100, 8192])
    @pytest.mark.parametrize("per_sample", [1, 18, 4171, 3 * 10**6])
    def test_windows_are_the_fewest_that_fit(self, n, per_sample):
        windows = _windows(n, per_sample)
        assert windows[0][0] == 0 and windows[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(windows, windows[1:]))
        sizes = [hi - lo for lo, hi in windows]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
        assert all(size == 1 or size * per_sample <= montecarlo._WINDOW for size in sizes)
        if len(windows) > 1:  # one window fewer, the largest would not fit
            largest = -(-n // (len(windows) - 1))
            assert largest > 1 and largest * per_sample > montecarlo._WINDOW

    @pytest.mark.parametrize("windows", [2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_windowed_world_equals_the_serial_world(self, windows, eps):
        vec, params, n = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=eps), 1100
        serial = draw_world(vec, params, n, [9, 7])
        for j in range(windows):
            lo, hi = j * n // windows, (j + 1) * n // windows
            split = draw_world(vec, params, n, [9, 7], None, lo, hi)
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
                        np.testing.assert_array_equal(g, w[:, lo:hi], err_msg=f"{name}[{k}]")

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_counters_do_not_depend_on_windows(self, monkeypatch, cpus, n_workers):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        # Whole chunks, two and a part; and windows of one sample each, on
        # chunks of 400 samples, two and a part again, since each window
        # costs about a millisecond.
        for window, chunk, n_samples in ((2**40, 8192, 20003), (1, 400, 1003)):
            monkeypatch.setattr(montecarlo, "_WINDOW", window)
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            cfg = SampleConfig(b=(3, 2), eta=0.8, eps=0.02, protocol=Protocol.DYNAMIC,
                               n_samples=n_samples, seed=31, n_workers=n_workers)
            est = run(cfg)
            got = [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error]
            assert got == serial_counters(cfg), window

    def test_windows_add_no_memory(self):
        # Drawing a chunk window by window holds no more than drawing it whole.
        vec, params = BranchingVector((15, 15, 2)), ChannelParams(eta=0.8, eps=1e-3)
        reads = montecarlo._READS[Protocol.DYNAMIC]
        windows = _windows(8192, sum(montecarlo._drawn_widths(vec, True, reads)))
        assert len(windows) > 1
        peaks = []
        for cuts in ([(0, 8192)], windows):
            tracemalloc.start()
            try:
                for lo, hi in cuts:
                    _sample_window(vec, params, 8192, [1, 0], eval_dynamic, reads, lo, hi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestMemoryBudget:
    def test_one_chunk_of_the_reference_tree(self):
        vec = BranchingVector((15, 15, 2))
        tracemalloc.start()
        try:
            world = draw_world(vec, ChannelParams(eta=0.8, eps=1e-3), 8192, [1, 0])
            eval_dynamic(vec, world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert world.nbytes <= 46e6
        assert peak <= 130e6
        # The size estimate is the world plus a float64 buffer for the widest level.
        assert chunk_bytes(vec, 8192, True) == world.nbytes + 8 * 8192 * 450

    def test_a_chunk_holds_only_the_planes_its_protocol_reads(self):
        # Of the 5521 uniforms a (15,15,2) sample with faults owns, the
        # adaptive rules read 4171: all but the three leaf tie planes.
        vec, params = BranchingVector((15, 15, 2)), ChannelParams(eta=0.8, eps=1e-3)
        reads = montecarlo._READS[Protocol.DYNAMIC]
        _, nbytes, _ = _sample_window(vec, params, 8192, [1, 0], eval_dynamic, reads, 0, 8192)
        assert nbytes == 4171 * 8192
        assert chunk_bytes(vec, 8192, True, reads) == nbytes + 8 * 8192 * 450

    def test_a_two_worker_run_holds_windows_not_chunks(self, monkeypatch):
        # Each of two threads holds one window's world and buffer at a time,
        # about 3.7 MB, where an 8192-sample chunk would hold 63.7 MB.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        cfg = SampleConfig(b=(15, 15, 2), eta=0.8, eps=1e-3, protocol=Protocol.DYNAMIC,
                           n_samples=16384, seed=1)
        tracemalloc.start()
        try:
            run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    @pytest.mark.parametrize("protocol,eps,per_sample", [
        (Protocol.STATIC, 1e-3, 3691), (Protocol.DYNAMIC, 1e-3, 4171),
        (Protocol.STATIC, 0.0, 2070), (Protocol.DYNAMIC, 0.0, 2070), (Protocol.LOSS_ONLY, 0.0, 1395)])
    def test_run_sizes_and_reports_the_drawn_world(self, protocol, eps, per_sample):
        vec = BranchingVector((15, 15, 2))
        reads = montecarlo._READS[protocol]
        assert chunk_bytes(vec, 8192, eps > 0.0, reads) == 8192 * (per_sample + 8 * 450)
        est = run(SampleConfig(b=vec.branches, eta=0.8, eps=eps, protocol=protocol,
                               n_samples=300, seed=3))
        assert est.world_bytes == 300 * per_sample


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
