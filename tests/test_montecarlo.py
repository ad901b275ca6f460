import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from treebsm import cli, montecarlo
from treebsm.analytic import Protocol, logical_bsm
from treebsm.montecarlo import (
    MAX_WINDOW_BYTES,
    MIN_EPS,
    STREAM_VERSION,
    SampleConfig,
    UnsupportedConfigurationError,
    _fault_third,
    _flips,
    _lane,
    _pair_flips,
    _planes,
    _sample_window,
    _windows,
    draw_world,
    eval_dynamic,
    eval_loss_only,
    exhaustive_dynamic,
    exhaustive_static,
    run,
    window_bytes,
    z_score,
)
from treebsm.trees import EPS_MAX, BranchingVector, ChannelParams, photon_count

from builders import PLANE_FIELDS, unpack, unpack_flags, unpack_world
from reference_sampler import code_flips, faults, reference_dynamic_sample, sample_bsm_error_rates


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
            closed = logical_bsm(b, params, Protocol.STATIC).pr_complete
            assert exact == pytest.approx(closed, abs=1e-10), b

    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.0])
    def test_dynamic_small_trees(self, eta):
        params = ChannelParams(eta=eta)
        for b in [(2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)]:
            exact = exhaustive_dynamic(b, params)
            closed = logical_bsm(b, params, Protocol.DYNAMIC).pr_complete
            assert exact == pytest.approx(closed, abs=1e-10), b

    def test_static_midsize_tree(self):
        params = ChannelParams(eta=0.55)
        b = (2, 2, 1)  # 11 photons per tree
        assert exhaustive_static(b, params) == pytest.approx(
            logical_bsm(b, params, Protocol.STATIC).pr_complete, abs=1e-10
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
        world = draw_world(vec, ChannelParams(eta=eta, eps=eps), seed, 0, 250)
        success, zz_err, xx_err = unpack_flags(eval_dynamic(vec, world), world)
        bools = unpack_world(world)
        for i in range(250):
            assert (
                bool(success[i]), bool(zz_err[i]), bool(xx_err[i])
            ) == reference_dynamic_sample(vec, bools, i)

    def test_root_tie_is_level_zero_of_the_pair_ties(self):
        # The logical X-parity's tie-break is the pair tie plane of the
        # virtual root: one row; the single-qubit sides have no level 0.
        world = draw_world(BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05), 7, 0, 50)
        assert world.tie_pair[0].shape == (1, 7)  # 50 samples, packed into 7 bytes
        assert world.tie_side_a[0] is None and world.tie_side_b[0] is None

    def test_basis_audit_never_trips(self):
        # The reference evaluator raises if any photon is wanted in two
        # bases; exercising it across many worlds keeps that tripwire armed.
        vec = BranchingVector((2, 2, 2))
        world = unpack_world(draw_world(vec, ChannelParams(eta=0.5, eps=0.1), 3, 0, 100))
        for i in range(100):
            reference_dynamic_sample(vec, world, i)


def bool_majority_wrong(votes, wrong, tie):
    """The vote rule on bool (nodes, b, samples) arrays: more wrong than right, or as
    many with some vote cast and the tie bit set."""
    n_wrong = (votes & wrong).sum(axis=1)
    n_right = (votes & ~wrong).sum(axis=1)
    return (n_wrong > n_right) | ((n_wrong == n_right) & votes.any(axis=1) & tie)


def packed_majority_wrong(votes, wrong, tie):
    """``montecarlo._majority_wrong`` on the packed forms of bool arrays, unpacked."""
    n = votes.shape[-1]
    v, w, t = (np.packbits(a, axis=-1, bitorder="little") for a in (votes, wrong, tie))
    return unpack(montecarlo._majority_wrong(v, w, np.bitwise_or.reduce(v, axis=1), t), n)


class TestBitSlicedVotes:
    @pytest.mark.parametrize("b", range(1, 11))
    def test_every_pattern_up_to_ten_votes(self, b):
        # Every vote, error and tie pattern of b chains is one sample: 2^(2b+1)
        # of them, dealt over three nodes in rows that end mid-byte, the last
        # filled up with the first patterns again.
        cut = -(-2 ** (2 * b + 1) // 3)
        pattern = np.arange(3 * cut).reshape(3, 1, cut) % 2 ** (2 * b + 1)
        bits = (pattern >> np.arange(2 * b + 1)[:, None]) & 1 == 1  # (3, 2b + 1, cut)
        votes, wrong, tie = bits[:, :b], bits[:, b:2 * b], bits[:, 2 * b]
        np.testing.assert_array_equal(packed_majority_wrong(votes, wrong, tie),
                                      bool_majority_wrong(votes, wrong, tie))

    @pytest.mark.parametrize("b", [15, 16, 31, 600])
    def test_random_patterns_of_many_votes(self, b):
        # Dense votes with half of them wrong tie often at even b; at b = 600
        # the counts pass 255 and need nine bits or more.  Rows of 1001
        # samples end mid-byte.
        rng = np.random.default_rng(b)
        shape = (3, b, 1001)
        for p_vote, p_wrong in ((1.0, 0.5), (0.9, 0.5), (0.5, 0.3), (0.05, 0.5)):
            votes, wrong = rng.random(shape) < p_vote, rng.random(shape) < p_wrong
            tie = rng.random((3, 1001)) < 0.5
            want = bool_majority_wrong(votes, wrong, tie)
            np.testing.assert_array_equal(packed_majority_wrong(votes, wrong, tie), want,
                                          err_msg=f"b={b}, votes {p_vote}, wrong {p_wrong}")
            if p_vote == 1.0 and b % 2 == 0:
                assert ((votes & wrong).sum(axis=1) == b // 2).any()  # ties do occur
        counts = montecarlo._count(np.packbits(votes, axis=-1, bitorder="little"))
        assert len(counts) == b.bit_length()
        total = sum(unpack(plane, 1001).astype(int) << j for j, plane in enumerate(counts))
        np.testing.assert_array_equal(total, votes.sum(axis=1))


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


def stored(field):
    """The world fields a plane of ``_planes`` is stored as: a fault plane as its two flips."""
    return montecarlo._STORED.get(field, (field,))


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
            whole = chunk_world(vec, params, key, 0, n)
            want, whole = unpack_flags(evaluator(vec, whole), whole), unpack_world(whole)
            for lo, hi in ((0, n), (0, 1), (1, 150), (150, n - 1), (n - 1, n)):
                world = chunk_world(vec, params, key, lo, hi, reads)
                got, world = unpack_flags(evaluator(vec, world), world), unpack_world(world)
                for field, k, _ in _planes(vec, eps > 0.0):
                    for name in stored(field):
                        plane = getattr(world, name)[k]
                        where = f"{name}[{k}], n={n}, window={lo}:{hi}"
                        assert (plane is None) == ((field, k) in unread), where
                        if plane is not None:
                            np.testing.assert_array_equal(plane, getattr(whole, name)[k][:, lo:hi],
                                                          err_msg=where)
                for w, g in zip(want, got):
                    np.testing.assert_array_equal(g, w[lo:hi])
        if protocol is Protocol.DYNAMIC and eps > 0.0:  # the reference needs faults
            world = chunk_world(vec, params, [7, 8195], 0, n, reads)
            success, zz_err, xx_err = unpack_flags(evaluator(vec, world), world)
            world = unpack_world(world)
            for i in range(n):
                assert (bool(success[i]), bool(zz_err[i]), bool(xx_err[i])) \
                    == reference_dynamic_sample(vec, world, i)


class TestNodeMajorLayout:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_planes_are_contiguous_nodes_by_samples(self, eps):
        # 37 samples are 5 bytes a row, the last with 3 samples and 5 padding bits.
        vec = BranchingVector((3, 2, 2))
        world = draw_world(vec, ChannelParams(eta=0.7, eps=eps), 5, 0, 37)
        assert world.n_samples == 37
        drawn = 0
        for name in PLANE_FIELDS:
            planes = getattr(world, name)
            if planes is None:
                assert eps == 0.0 and name.startswith(("z_flip", "x_flip", "tie"))
                continue
            for k in range(1, vec.depth + 1):
                assert planes[k].shape == (len(vec.level_vertices(k)), 5), (name, k)
                assert planes[k].dtype == np.uint8 and planes[k].flags.c_contiguous, (name, k)
                drawn += 1
        assert drawn == (10 if eps else 3) * vec.depth

    def test_every_plane_is_its_own_lane(self):
        # Plane p of _planes is rebuilt from an independent Philox generator
        # started at counter (0, 0, p, 3), its cells taken from the raws with
        # shifts and masks and decoded here.  A (3, 2) world with faults has
        # planes of 1, 3 and 6 columns, so with n = 1101 the 32-bit planes end
        # mid-raw and the bit planes mid-raw and mid-block (Philox's block of
        # four raws).  The draw's own blocks are test_blocks_do_not_move_a_plane's.
        vec, params = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05)
        assert STREAM_VERSION == 3
        third = int(1.5 * 0.05 * 2**32) // 3
        decoders = {"det": lambda w: [w < int(0.7 * 2**32)],
                    "fault": lambda w: code_flips(np.where(w < 3 * third, 1 + w // third, 0)),
                    "coin": lambda c: [c == 1], "tie": lambda c: [c == 1]}
        for n, key in ((1100, [9, 0]), (1101, [9, 8195])):
            world = unpack_world(chunk_world(vec, params, key, 0, n))
            for p, (field, k, width) in enumerate(_planes(vec, True)):
                cell_bits = 32 if field.startswith(("det", "fault")) else 1
                cells = lane_cells(key, p, 0, n * width, cell_bits).reshape(n, width)
                for name, want in zip(stored(field), decoders[field.split("_")[0]](cells),
                                      strict=True):
                    np.testing.assert_array_equal(getattr(world, name)[k], want.T,
                                                  err_msg=f"{name}[{k}], n={n}")


def lane_cells(key, p, first, count, cell_bits):
    """Cells ``first .. first + count - 1`` of lane ``p`` of ``key``, from a fresh
    generator at counter (0, 0, p, STREAM_VERSION), by shifts and masks."""
    t = np.arange(first, first + count, dtype=np.uint64)
    per_raw = np.uint64(64 // cell_bits)
    bits = np.random.Philox(key=np.array(key, np.uint64), counter=[0, 0, p, STREAM_VERSION])
    raws = bits.random_raw(int(t[-1] // per_raw) + 1)
    mask = np.uint64(2**cell_bits - 1)
    return (raws[t // per_raw] >> (t % per_raw) * np.uint64(cell_bits)) & mask


class TestStreamV3:
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_eta_0_and_1_are_exact(self, eta):
        # At eta 1 the threshold is 2^32, above every word: no photon is lost.
        world = unpack_world(draw_world(BranchingVector((40, 40)), ChannelParams(eta=eta), 2, 0, 500))
        for plane in world.det_a[1:] + world.det_b[1:]:
            assert plane.all() if eta == 1.0 else not plane.any()

    def test_at_eps_max_one_word_in_2_to_32_is_unfaulted(self):
        third = _fault_third(ChannelParams(eta=1.0, eps=EPS_MAX))
        assert 3 * third >= 2**32 - 1
        words = np.array([0, third - 1, third, 2 * third, 2**32 - 2, 2**32 - 1], np.uint32)
        assert faults(words, third).tolist() == [1, 1, 2, 3, 3, 0]
        world = unpack_world(draw_world(BranchingVector((50, 20)),
                                        ChannelParams(eta=1.0, eps=EPS_MAX), 3, 0, 1000))
        for side in "ab":
            for z, x in zip(getattr(world, f"z_flip_{side}")[1:], getattr(world, f"x_flip_{side}")[1:]):
                assert (z | x).all() and (x & ~z).any()  # every photon faulted, some with Z

    @pytest.mark.parametrize("eps", [MIN_EPS, 1e-3, 0.05, EPS_MAX])
    def test_flips_match_the_codes_at_every_boundary(self, eps):
        # The flip planes are the reference codes' letters on the last and
        # first word of each code, and at the top of the 32-bit range.
        third = _fault_third(ChannelParams(eta=1.0, eps=eps))
        words = np.array([0, third - 1, third, 2 * third - 1, 2 * third, 3 * third - 1,
                          3 * third, 2**32 - 1], np.uint32)
        codes = faults(words, third)
        if eps < EPS_MAX:
            assert codes.tolist() == [1, 1, 2, 2, 3, 3, 0, 0]
        for got, want in zip(_flips(words, third), code_flips(codes), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_marginal_rates_are_within_5_sigma(self):
        # 10^6 cells per plane: loss at eta 0.7, the first-level coins, and the
        # three Pauli codes at eps 0.1 (eps_d 0.15, each letter 0.05).
        vec, n = BranchingVector((1000,)), 1000
        params = ChannelParams(eta=0.7, eps=0.1)
        world = unpack_world(chunk_world(vec, params, [11, 4], 0, n))
        third = _fault_third(params)
        cases = [(world.det_a[1], int(0.7 * 2**32) / 2**32), (world.coin[1], 0.5)]
        z, x = world.z_flip_b[1], world.x_flip_b[1]
        cases += [(letter, third / 2**32) for letter in (z & ~x, z & x, x & ~z)]  # X, Y, Z
        for flags, p in cases:
            assert flags.size >= 10**6
            assert abs(z_score(flags.mean(), p, flags.size)) <= 5, p

    def test_neighbouring_planes_share_no_lane(self):
        # det_a and det_b at one level, and the coins of adjacent levels, draw
        # from distinct lanes: at eta 1/2 each pair disagrees on half its
        # cells, where a shared lane would make it agree everywhere.
        vec, n = BranchingVector((30, 30)), 400
        world = unpack_world(chunk_world(vec, ChannelParams(eta=0.5, eps=0.05), [5, 2], 0, n))
        pairs = [(world.det_a[k], world.det_b[k]) for k in (1, 2)]
        pairs += [(world.coin[1], world.coin[2][:30]), (world.coin[1], world.coin[2][::30])]
        for a, b in pairs:
            assert abs(z_score((a != b).mean(), 0.5, a.size)) <= 5

    @pytest.mark.parametrize("protocol", [Protocol.STATIC, Protocol.DYNAMIC])
    def test_success_does_not_depend_on_eps(self, protocol):
        # Loss and coin lanes come before the fault lanes, so faults move no
        # success: the counters at eps 0 and 1e-3 count the same worlds.
        kw = dict(b=(3, 2, 2), eta=0.8, protocol=protocol, n_samples=20003, seed=17)
        clean, faulty = run(SampleConfig(eps=0.0, **kw)), run(SampleConfig(eps=1e-3, **kw))
        assert clean.n_success == faulty.n_success
        assert faulty.n_zz_error + faulty.n_xx_error > 0

    def test_eps_too_small_to_draw_is_refused(self):
        kw = dict(b=(2, 2), eta=0.9, protocol=Protocol.STATIC, n_samples=100, seed=1)
        assert run(SampleConfig(eps=MIN_EPS, **kw)).n_samples == 100
        for eps in (1e-10, MIN_EPS * (1 - 2**-40)):
            with pytest.raises(UnsupportedConfigurationError, match=r"below 4\.657e-10 \(2\^-31\)"):
                run(SampleConfig(eps=eps, **kw))
            with pytest.raises(UnsupportedConfigurationError, match="4.657e-10"):
                sample_bsm_error_rates(eps, 100, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_bsm_error_rates_need_a_sample(self, n):
        with pytest.raises(ValueError, match="need at least one sample"):
            sample_bsm_error_rates(1e-3, n, 1)
        assert sample_bsm_error_rates(1e-3, 1, 1)["n"] == 1


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
            zz, xx = _pair_flips(*code_flips(np.array([fa])), *code_flips(np.array([fb])))
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
        assert blob["stream_version"] == STREAM_VERSION == 3
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
        wrong_ref = logical_bsm((15, 15, 2), ChannelParams(eta=0.6), Protocol.STATIC).pr_complete
        assert abs(z_score(est.success, wrong_ref, est.n_samples)) > 3


def chunk_world(vec, params, key, lo, hi, reads=None):
    """Samples ``lo .. hi - 1`` of chunk c of the run drawn with seed s, for ``key`` (s, c)."""
    seed, c = key
    start = c * montecarlo._CHUNK
    return draw_world(vec, params, seed, start + lo, start + hi, reads)


def serial_counters(cfg: SampleConfig) -> list[int]:
    """Dynamic-protocol run counters from a serial loop that draws chunk c whole from
    stream ``[seed, c]``."""
    vec = BranchingVector(cfg.b)
    want = np.zeros(4, dtype=np.int64)
    for c, first in enumerate(range(0, cfg.n_samples, montecarlo._CHUNK)):
        n = min(montecarlo._CHUNK, cfg.n_samples - first)
        world = draw_world(vec, cfg.params, cfg.seed, first, first + n)
        success, zz, xx = unpack_flags(eval_dynamic(vec, world), world)
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
        # Every window is drawn from its own positions in its chunks' streams,
        # so running the tasks backwards changes no counter.  50003 samples
        # are six whole chunks and one of 851 samples, and a (3, 2) dynamic
        # sample draws 55 cells, so the run is two windows of 2^21 // 55 =
        # 38130 samples at most, each spanning chunk boundaries.
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
        assert order == [(25001, 50003), (0, 25001)]
        for est in (want, got):
            assert [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error] \
                == serial_counters(cfg)

    @pytest.mark.parametrize("b,eps,protocol,n_samples,windows", [
        # 18 cells a sample: 2^21 // 18 = 116508 samples a window at most,
        # where one-chunk windows would be 123.
        ((2, 2), 0.0, Protocol.STATIC, 10**6, 9),
        ((2, 2), 0.0, Protocol.LOSS_ONLY, 10**6, 7),
        # 4171 cells a sample: 502 samples a window at most.
        ((15, 15, 2), 1e-3, Protocol.DYNAMIC, 16384, 33)])
    def test_a_run_evaluates_the_fewest_windows(self, monkeypatch, b, eps, protocol,
                                                n_samples, windows):
        evaluate, sizes = montecarlo._EVALUATORS[protocol], []

        def counting(vec, world):
            sizes.append(world.n_samples)
            return evaluate(vec, world)

        monkeypatch.setitem(montecarlo._EVALUATORS, protocol, counting)
        run(SampleConfig(b=b, eta=0.8, eps=eps, protocol=protocol, n_samples=n_samples, seed=1))
        assert len(sizes) == windows and sum(sizes) == n_samples
        assert max(sizes) - min(sizes) <= 1


def dirty_padding(world):
    """The world with every padding bit set: bits past ``n_samples`` of each plane's last byte."""
    used = world.n_samples % 8
    for name in PLANE_FIELDS:
        for plane in getattr(world, name) or []:
            if plane is not None and used:
                plane[..., -1] |= np.uint8(0xFF << used & 0xFF)
    return world


class TestPadding:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 8191, 8193])
    def test_padding_bits_never_count(self, monkeypatch, n):
        # Windows of at most 1001 samples (a (3, 2) dynamic sample draws 55
        # cells): one of n samples up to 1001, else 9 of 910 or 911; every
        # plane of every window is drawn with its padding bits set, which the
        # evaluation reads and the tally must drop.
        draw = montecarlo.draw_world
        monkeypatch.setattr(montecarlo, "draw_world", lambda *args: dirty_padding(draw(*args)))
        monkeypatch.setattr(montecarlo, "_WINDOW", 55 * 1001)
        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=0.02, protocol=Protocol.DYNAMIC,
                           n_samples=n, seed=31)
        sizes = [hi - lo for lo, hi in _windows(n, 55)]
        assert sizes == [n] if n <= 1001 else len(sizes) == 9 and set(sizes) <= {910, 911}
        est = run(cfg)
        assert [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error] \
            == serial_counters(cfg)

    def test_dirty_padding_moves_no_flag(self):
        # The flags of the samples are those of a world with clean padding.
        vec, params = BranchingVector((3, 2, 2)), ChannelParams(eta=0.8, eps=0.05)
        for lo, hi in ((0, 1), (3, 12), (5, 1006)):
            clean = draw_world(vec, params, 7, lo, hi)
            want = unpack_flags(eval_dynamic(vec, clean), clean)
            dirty = dirty_padding(draw_world(vec, params, 7, lo, hi))
            for w, g in zip(want, unpack_flags(eval_dynamic(vec, dirty), dirty)):
                np.testing.assert_array_equal(g, w)


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
        want = lane_cells([seed, 0], 0, 0, 128, 32).reshape(64, 2).T < 2**31
        np.testing.assert_array_equal(unpack(draw_world(vec, params, seed, 0, 64).det_a[1], 64), want)

    def test_bsm_error_rates_take_every_64_bit_seed(self):
        rates = [sample_bsm_error_rates(0.3, 1000, seed) for seed in (2**63, 2**63 + 1)]
        assert rates[0] != rates[1]
        with pytest.raises(ValueError, match=r"seed must be in 0 to 2\^64 - 1"):
            sample_bsm_error_rates(0.3, 1000, 2**64)


class TestConfigInputs:
    """A configuration run() could not use is refused when it is made."""

    KW = dict(b=(2, 2), eta=0.8, eps=0.0, protocol=Protocol.STATIC, n_samples=1000, seed=1)

    @pytest.mark.parametrize("bad", [1e4, 1000.0, "1000"])
    def test_sample_count_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            SampleConfig(**{**self.KW, "n_samples": bad})
        assert SampleConfig(**{**self.KW, "n_samples": np.int64(1000)}).n_samples == 1000

    @pytest.mark.parametrize("bad", [1.7, 1.0])
    def test_seed_is_never_truncated(self, bad):
        # Seed 1.7 once ran as seed 1.
        with pytest.raises(ValueError, match="seed must be an integer"):
            SampleConfig(**{**self.KW, "seed": bad})

    def test_protocol_is_a_protocol_or_its_value(self):
        cfg = SampleConfig(**{**self.KW, "protocol": "static"})
        assert cfg.protocol is Protocol.STATIC
        assert run(cfg).n_success == run(SampleConfig(**self.KW)).n_success
        with pytest.raises(ValueError, match="is not a valid Protocol"):
            SampleConfig(**{**self.KW, "protocol": "dynamic-ish"})


class TestWindowedDraw:
    @pytest.mark.parametrize("pre", range(6))
    def test_positioning_matches_the_raw_stream(self, pre):
        # A lane is set straight to any cell: 32-bit cells at every offset
        # into a raw and into Philox's blocks of four raws, bit cells at
        # offsets that are no multiple of 64, crossing raws and blocks, and
        # back again; one generator serves every lane.
        key = np.array([8, 1], np.uint64)
        bits = np.random.Philox(key=key)
        for cell_bits, step in ((32, 1), (1, 61)):
            want = lane_cells(key, 5, 0, pre + 41 * step + 300, cell_bits)
            for k in range(41):
                first = pre + k * step
                for count in (1, 9, 300):
                    got = _lane(bits, key, 5, first, count, cell_bits)
                    np.testing.assert_array_equal(got, want[first:first + count],
                                                  err_msg=f"{cell_bits}-bit, first={first}")
                assert _lane(bits, key, 5, pre, 1, cell_bits)[0] == want[pre]  # backwards
                assert _lane(bits, key, 6, pre, 1, cell_bits)[0] == lane_cells(key, 6, pre, 1, cell_bits)

    @pytest.mark.parametrize("lo", [1, 7, 21, 367])
    def test_windows_start_mid_raw(self, lo):
        # The width-3 32-bit planes of a (3, 2) world start the window at an
        # odd cell, and every bit plane at a cell that is no multiple of 64.
        vec, params, n = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05), 1100
        assert (lo * 3) % 2 == 1 and all(lo * w % 64 for w in (1, 3, 6))
        whole = unpack_world(chunk_world(vec, params, [4, 2], 0, n))
        window = unpack_world(chunk_world(vec, params, [4, 2], lo, lo + 100))
        for field, k, _ in _planes(vec, True):
            for name in stored(field):
                np.testing.assert_array_equal(getattr(window, name)[k],
                                              getattr(whole, name)[k][:, lo:lo + 100],
                                              err_msg=f"{name}[{k}]")

    @pytest.mark.parametrize("n", [1, 2, 1100, 8192, 10**6 + 3])
    @pytest.mark.parametrize("per_sample", [1, 18, 4171, 3 * 10**6])
    def test_windows_are_the_fewest_that_fit(self, n, per_sample):
        windows = list(_windows(n, per_sample))
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
        serial = unpack_world(chunk_world(vec, params, [9, 7], 0, n))
        for j in range(windows):
            lo, hi = j * n // windows, (j + 1) * n // windows
            packed = chunk_world(vec, params, [9, 7], lo, hi)
            assert all(p.flags.c_contiguous for name in PLANE_FIELDS
                       for p in getattr(packed, name) or [] if p is not None)
            split = unpack_world(packed)
            for name in PLANE_FIELDS:
                want, got = getattr(serial, name), getattr(split, name)
                if want is None:
                    assert got is None and eps == 0.0
                    continue
                for k, (w, g) in enumerate(zip(want, got)):
                    if w is None:
                        assert g is None
                    else:
                        np.testing.assert_array_equal(g, w[:, lo:hi], err_msg=f"{name}[{k}]")

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("chunk,lo,hi", [(8192, 7825, 8292), (50, 67, 326)])
    def test_a_window_across_chunks_is_the_chunks_side_by_side(self, monkeypatch, eps,
                                                                chunk, lo, hi):
        # The window starts mid-raw in its first chunk, as in
        # test_windows_start_mid_raw, and ends inside its last: two chunks
        # of 8192 samples, or six of 50.
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        vec, params = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=eps)
        assert (lo % chunk * 3) % 2 == 1 and all(lo % chunk * w % 64 for w in (1, 3, 6))
        window = draw_world(vec, params, 4, lo, hi)
        chunks = [unpack_world(chunk_world(vec, params, [4, c], 0, chunk))
                  for c in range(lo // chunk, -(-hi // chunk))]
        start = lo // chunk * chunk
        for name in PLANE_FIELDS:
            got = getattr(window, name)
            if got is None:
                assert eps == 0.0 and name.startswith(("z_flip", "x_flip", "tie"))
                continue
            for k, g in enumerate(got):
                if g is None:
                    assert getattr(chunks[0], name)[k] is None
                    continue
                whole = np.concatenate([getattr(w, name)[k] for w in chunks], axis=1)
                assert g.flags.c_contiguous
                np.testing.assert_array_equal(unpack(g, hi - lo), whole[:, lo - start:hi - start],
                                              err_msg=f"{name}[{k}]")

    @pytest.mark.parametrize("block", [1, 7, 640])
    def test_blocks_do_not_move_a_plane(self, monkeypatch, block):
        # Blocks of one sample, of 7 cells (one or two samples a plane, cut
        # mid-raw), and of 640 cells, across a chunk boundary: the world is
        # the one drawn in blocks of 2^18 cells.
        vec, params = BranchingVector((3, 2)), ChannelParams(eta=0.7, eps=0.05)
        want = draw_world(vec, params, 4, 7825, 8292)
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        got = draw_world(vec, params, 4, 7825, 8292)
        for field, k, _ in _planes(vec, True):
            for name in stored(field):
                np.testing.assert_array_equal(getattr(got, name)[k], getattr(want, name)[k],
                                              err_msg=f"{name}[{k}]")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_windows_across_chunks_give_the_serial_counters(self, monkeypatch, cpus):
        # Windows of at most 3001 samples (a (3, 2) dynamic sample draws 55
        # cells): 7 of about 2858, the third and sixth across a chunk boundary.
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(montecarlo, "_WINDOW", 55 * 3001)
        cfg = SampleConfig(b=(3, 2), eta=0.8, eps=0.02, protocol=Protocol.DYNAMIC,
                           n_samples=20003, seed=31)
        windows = list(_windows(cfg.n_samples, 55))
        assert len(windows) == 7
        assert [lo // 8192 != (hi - 1) // 8192 for lo, hi in windows].count(True) == 2
        est = run(cfg)
        got = [est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error]
        assert got == serial_counters(cfg)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_counters_do_not_depend_on_windows(self, monkeypatch, cpus, n_workers):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        # Whole chunks, two and a part, in one window just as large as the
        # run (the size check refuses a window cap of terabytes); and windows
        # of one sample each, on chunks of 400 samples, two and a part again,
        # since each window costs about a millisecond.
        reads = montecarlo._READS[Protocol.DYNAMIC]
        per_sample = sum(montecarlo._drawn_widths(BranchingVector((3, 2)), True, reads))
        for window, chunk, n_samples in ((20003 * per_sample, 8192, 20003), (1, 400, 1003)):
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
        windows = list(_windows(8192, sum(montecarlo._drawn_widths(vec, True, reads))))
        assert len(windows) > 1
        peaks = []
        for cuts in ([(0, 8192)], windows):
            tracemalloc.start()
            try:
                for lo, hi in cuts:
                    _sample_window(vec, params, 1, lo, hi, eval_dynamic, reads)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestMemoryBudget:
    def test_one_chunk_of_the_reference_tree(self):
        vec = BranchingVector((15, 15, 2))
        tracemalloc.start()
        try:
            world = draw_world(vec, ChannelParams(eta=0.8, eps=1e-3), 1, 0, 8192)
            eval_dynamic(vec, world)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert world.nbytes <= 46e6
        assert peak <= 130e6
        # A full window is 379 samples (48 bytes a row) of the 5521 cells a
        # sample with faults owns, 6901 stored since a fault is two flips.  The
        # estimate counts its world three times, a byte per sample of the
        # widest stored plane (a 450-wide leaf fault plane, 900 flips) and 10
        # per cell of a block, here one leaf plane of the whole window.
        assert window_bytes(vec, True) == 3 * 6901 * 48 + 900 * 379 + 10 * 450 * 379

    def test_a_chunk_holds_only_the_planes_its_protocol_reads(self):
        # Of the 5521 cells a (15,15,2) sample with faults owns, the
        # adaptive rules read 4171: all but the three leaf tie planes.
        vec, params = BranchingVector((15, 15, 2)), ChannelParams(eta=0.8, eps=1e-3)
        reads = montecarlo._READS[Protocol.DYNAMIC]
        # 8192 samples are 1024 bytes a row; the 1380 fault cells are stored
        # twice; a full window is 502 samples, 63 bytes a row.
        _, nbytes, _ = _sample_window(vec, params, 1, 0, 8192, eval_dynamic, reads)
        assert nbytes == (4171 + 1380) * 1024
        assert window_bytes(vec, True, reads) == 3 * 5551 * 63 + 900 * 502 + 10 * 450 * 502

    def test_the_leaves_hold_no_vote_flag_planes(self, monkeypatch):
        # A (2,2) adaptive window of 111,111 samples at eps 0 (one ninth of
        # N = 10^6) draws a 0.25 MB packed world and peaks at 0.86 MB.  As a
        # 2.0 MB bool world it peaked at 5.6 MB, and a zero flag plane per
        # leaf level of both sides and the pair raised that to 6.9 MB.
        vec, params = BranchingVector((2, 2)), ChannelParams(eta=0.8, eps=0.0)
        reads = montecarlo._READS[Protocol.DYNAMIC]
        _sample_window(vec, params, 1, 0, 1000, eval_dynamic, reads)  # first-call imports
        tracemalloc.start()
        try:
            _sample_window(vec, params, 1, 0, 111111, eval_dynamic, reads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6.2e6
        # Packed leaf planes would be an eighth of that rise, within the bound,
        # so every walk's first level is checked to be a scalar, not a plane.
        walks, recover = [], montecarlo._recover

        def spy(vec, level, ties, top=0, bottom=None):
            walk = recover(vec, level, ties, top, bottom)
            walks.append((vec.depth if bottom is None else bottom, top, walk))
            return walk

        monkeypatch.setattr(montecarlo, "_recover", spy)
        vec = BranchingVector((3, 2, 2))
        for evaluate in (montecarlo.eval_static, eval_dynamic, eval_loss_only):
            for eps in (0.0, 1e-3):
                walks.clear()
                evaluate(vec, draw_world(vec, ChannelParams(eta=0.8, eps=eps), 1, 0, 100))
                assert len(walks) == (1 if evaluate is montecarlo.eval_static else 3)
                for leaf, top, walk in walks:
                    assert np.ndim(walk.ind[leaf]) == np.ndim(walk.err_ind[leaf]) == 0, (
                        evaluate.__name__, eps, leaf)
                    assert np.ndim(walk.ind[top]) == 2  # the levels above hold planes

    def test_a_two_worker_run_holds_windows_not_chunks(self, monkeypatch):
        # Each of two threads holds one window's world and buffers at a time:
        # the run peaks at 5.9 MB, where an 8192-sample chunk of bool planes
        # would hold 48.9 MB.
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

    # Drawn and stored cells per sample (the 1380 fault cells are stored
    # twice), and the largest block: a leaf plane of the whole window or of
    # 582 samples, or 1165 samples of a 225-wide plane.
    @pytest.mark.parametrize("protocol,eps,per_sample,stored,block", [
        (Protocol.STATIC, 1e-3, 3691, 5071, 450 * 568), (Protocol.DYNAMIC, 1e-3, 4171, 5551, 450 * 502),
        (Protocol.STATIC, 0.0, 2070, 2070, 450 * 582), (Protocol.DYNAMIC, 0.0, 2070, 2070, 450 * 582),
        (Protocol.LOSS_ONLY, 0.0, 1395, 1395, 225 * 1165)])
    def test_run_sizes_and_reports_the_drawn_world(self, protocol, eps, per_sample, stored, block):
        vec = BranchingVector((15, 15, 2))
        reads = montecarlo._READS[protocol]
        n = 2**21 // per_sample   # samples of a full window
        widest = 900 if eps else 450   # the widest stored plane: a leaf fault is two
        assert window_bytes(vec, eps > 0.0, reads) == 3 * stored * -(-n // 8) + widest * n + 10 * block
        est = run(SampleConfig(b=vec.branches, eta=0.8, eps=eps, protocol=protocol,
                               n_samples=300, seed=3))
        assert est.world_bytes == 38 * stored   # 300 samples are 38 bytes a row


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

    def test_a_small_run_draws_through_draw_world(self, monkeypatch):
        # The guard above patches draw_world: it holds only while a run draws
        # through that name.
        calls, draw = [], montecarlo.draw_world

        def counting(*args):
            calls.append(args[3:5])
            return draw(*args)

        monkeypatch.setattr(montecarlo, "draw_world", counting)
        run(SampleConfig(b=(2, 2), eta=0.9, eps=1e-3, protocol=Protocol.STATIC,
                         n_samples=100, seed=1))
        assert calls == [(0, 100)]

    def test_reference_shapes_fit(self):
        for b in ((15, 15, 2), (74, 15)):
            assert window_bytes(BranchingVector(b), True) < MAX_WINDOW_BYTES

    @pytest.mark.parametrize("n_samples", [1, 10**9])
    def test_the_cap_reads_a_window_not_the_run(self, n_samples, monkeypatch):
        # (60,60,20) at eps 0 draws 9-sample windows of 2.04 M cells; an
        # 8192-sample chunk, which no run holds, was once sized at 4.22 GB and
        # refused.
        class Drawn(Exception):
            pass

        def no_draw(*args):
            raise Drawn

        monkeypatch.setattr(montecarlo, "draw_world", no_draw)
        cfg = SampleConfig(b=(60, 60, 20), eta=0.9, eps=0.0, protocol=Protocol.STATIC,
                           n_samples=n_samples, seed=1)
        with pytest.raises(Drawn):   # past the size check, at the first draw
            run(cfg)
        vec = BranchingVector(cfg.b)
        assert window_bytes(vec, False, montecarlo._READS[Protocol.STATIC]) < 0.01 * MAX_WINDOW_BYTES

    @pytest.mark.parametrize("b,eps,protocol", [
        ((1,), 1e-3, Protocol.DYNAMIC), ((2, 2), 0.0, Protocol.LOSS_ONLY),
        ((15, 15, 2), 1e-3, Protocol.STATIC), ((60, 60, 20), 0.0, Protocol.STATIC),
        ((2000, 300), 0.0, Protocol.DYNAMIC)])
    def test_estimate_bounds_the_traced_peak_of_a_window(self, b, eps, protocol):
        # A full window; (2000,300) is one sample whose leaf planes are one
        # block each, wider than _BLOCK.
        vec, reads = BranchingVector(b), montecarlo._READS[protocol]
        per_sample = sum(montecarlo._drawn_widths(vec, eps > 0.0, reads))
        hi = max(1, montecarlo._WINDOW // per_sample)
        params, evaluator = ChannelParams(eta=0.8, eps=eps), montecarlo._EVALUATORS[protocol]
        _sample_window(vec, params, 1, 0, 10, evaluator, reads)  # first-call imports
        tracemalloc.start()
        try:
            _sample_window(vec, params, 1, 0, hi, evaluator, reads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= window_bytes(vec, eps > 0.0, reads) <= 3 * peak, b
