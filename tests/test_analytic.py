import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from treebsm.analytic import (
    Protocol,
    UnreachableTargetError,
    ConfigurationError,
    _vote_error_mix,
    _vote_tail,
    find_threshold,
    logical_bsm,
    logical_bsm_batch,
    parity_error,
)
from treebsm.analytic import _complete_bsm_closed
from treebsm import families
from treebsm.cli import main
from treebsm.search import SearchBounds, evaluate_all, pareto_front
from treebsm.trees import BranchingVector, ChannelParams, photon_count

from builders import level_stats
from reference_exact import complete_bsm_sum


# Parametrizes a test over the two exact protocols, with ids that name each
# protocol's logical BSM.
PROTOCOLS = pytest.mark.parametrize(
    "protocol", [Protocol.STATIC, Protocol.DYNAMIC], ids=lambda p: f"{p.value}_logical_bsm")


def _random_trees(rng, count, max_depth=4, max_branch=6):
    out = []
    for _ in range(count):
        d = int(rng.integers(1, max_depth + 1))
        out.append(tuple(int(x) for x in rng.integers(1, max_branch + 1, size=d)))
    return out


# ---------------------------------------------------------------------------
# Elementary combinators
# ---------------------------------------------------------------------------

class TestVoteError:
    def test_three_way_vote(self):
        assert _vote_tail(3, 0.1) == pytest.approx(0.028, abs=1e-12)

    def test_even_votes_drop_one(self):
        for e in (0.0, 0.05, 0.3, 0.5):
            assert _vote_tail(2, e) == pytest.approx(_vote_tail(1, e), abs=1e-12)
            assert _vote_tail(4, e) == pytest.approx(_vote_tail(3, e), abs=1e-12)

    def test_single_vote_is_raw_error(self):
        assert _vote_tail(1, 0.23) == pytest.approx(0.23)

    def test_matches_binomial_tail(self):
        # The vote-tail kernel must agree with the explicit tail sum.
        import math
        for m, e in [(5, 0.2), (7, 0.01), (9, 0.45)]:
            k0 = (m + 1) // 2
            tail = sum(
                math.comb(m, i) * e**i * (1 - e) ** (m - i) for i in range(k0, m + 1)
            )
            assert _vote_tail(m, e) == pytest.approx(tail, abs=1e-12)


def _exact_vote_mix(n, p, e):
    """The vote mix as an exact rational: binomial weights of m >= 1 successful
    chains times the majority-vote tail, over the weights' own sum.

    Floats are dyadic rationals, so every term is an integer over a power of
    two and the sums are formed in exact integer arithmetic."""
    num_p, den_p = float(p).as_integer_ratio()
    num_e, den_e = float(e).as_integer_ratio()

    def tail(m):  # P(majority of m' votes wrong) * den_e**n, m' = m rounded down to odd
        m -= 1 - m % 2
        hits = sum(comb(m, j) * num_e**j * (den_e - num_e) ** (m - j)
                   for j in range((m + 1) // 2, m + 1))
        return hits * den_e ** (n - m)

    w = [comb(n, m) * num_p**m * (den_p - num_p) ** (n - m) for m in range(1, n + 1)]
    return Fraction(sum(wm * tail(m) for m, wm in enumerate(w, start=1)), sum(w) * den_e**n)


def _mix(n, p, e):
    """The batched vote mix on one row."""
    return float(_vote_error_mix(np.array([n]), np.array([p]), np.array([e]))[0])


class TestVoteErrorMix:
    @pytest.mark.parametrize("n,p,e", [
        (1, 0.5, 0.2), (2, 0.3, 0.1), (64, 0.5, 0.01), (100, 1e-3, 0.25),
        (127, 1.2e-17, 0.496), (130, 1e-20, 0.5), (130, 1e-20, 0.0),
        (130, 1.0, 0.3), (130, 0.37, 0.4999), (129, 0.999, 0.45),
    ])
    def test_matches_exact_binomial_sum(self, n, p, e):
        assert abs(_mix(n, p, e) - float(_exact_vote_mix(n, p, e))) <= 1e-12

    def test_random_points_match_exact_sum(self):
        rng = np.random.default_rng(29)
        for _ in range(12):
            n = int(rng.integers(1, 131))
            p = float(10.0 ** rng.uniform(-20, 0))
            e = float(rng.uniform(0, 0.5))
            exact = float(_exact_vote_mix(n, p, e))
            assert abs(_mix(n, p, e) - exact) <= 1e-12, (n, p, e)

    @PROTOCOLS
    def test_tiny_chain_rate_at_42_42(self, protocol):
        # The level-0 chain rate here is ~2e-9, where 1 - (1 - p)**42
        # cancels to ~1e-9 relative; err_xx must be the exact vote mix.
        params = ChannelParams(eta=0.8, eps=1e-3)
        stats = level_stats("42,42", params, Protocol.STATIC)[0]
        exact = float(_exact_vote_mix(42, stats.pr_s[0], stats.err_s[0]))
        assert abs(logical_bsm("42,42", params, protocol).err_xx - exact) <= 1e-12


class TestRange:
    @pytest.mark.parametrize("eps", [4e-4, 5e-4, 6e-4, 8e-4, 1e-3])
    def test_static_tower_errors_stay_in_range(self, eps):
        res = logical_bsm("120,120,24,11,8,4,1", ChannelParams(eta=0.77, eps=eps), Protocol.STATIC)
        assert 0.0 <= res.err_xx <= 0.5
        assert 0.0 <= res.err_complete <= 0.75

    @pytest.mark.parametrize("b", ["1100,2", "2,1100", "2000"])
    @PROTOCOLS
    @pytest.mark.parametrize("eta,eps", [(0.9, 1e-3), (0.6, 0.0), (1.0, 1e-2)])
    def test_thousand_branch_shapes_evaluate(self, b, protocol, eta, eps):
        res = logical_bsm(b, ChannelParams(eta=eta, eps=eps), protocol)
        for pr in (res.pr_xx, res.pr_zz, res.pr_complete):
            assert 0.0 <= pr <= 1.0
        assert 0.0 <= res.err_xx <= 0.5 and 0.0 <= res.err_zz <= 0.5
        assert 0.0 <= res.err_complete <= 0.75


class TestParityError:
    def test_odd_parity_closed_form(self):
        # One slot at rate a plus n slots at rate b, against direct expansion.
        a, b, n = 0.03, 0.02, 4
        brute = 0.0
        for i in (0, 1):
            for flips in itertools.product((0, 1), repeat=n):
                if (i + sum(flips)) % 2 == 1:
                    w = (a if i else 1 - a)
                    for f in flips:
                        w *= b if f else 1 - b
                    brute += w
        assert parity_error([a, b], [1, n]) == pytest.approx(brute, abs=1e-14)

    def test_small_parity_keeps_relative_precision(self):
        # err_zz of the static (63,30) tree at (0.95, 1e-5) is about 1e-8,
        # where 1 - prod (1 - 2e)**n cancels; compare with the exact rational
        # value of the same float input.
        params = ChannelParams(eta=0.95, eps=1e-5)
        e = Fraction(float(level_stats((63, 30), params, Protocol.STATIC)[0].err_m[1]))
        exact = (1 - (1 - 2 * e) ** 63) / 2
        got = logical_bsm((63, 30), params, Protocol.STATIC).err_zz
        assert abs(Fraction(got) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("rates,counts", [
        ([0.7], [1]), ([0.7], [2]), ([0.7, 0.2], [1, 3]), ([0.75, 0.9], [3, 2]),
        ([1e-9], [5]), ([0.0, 0.3], [4, 1])])
    def test_matches_the_exact_product_on_either_side_of_one_half(self, rates, counts):
        exact = Fraction(1)
        for e, n in zip(rates, counts):
            exact *= (1 - 2 * Fraction(e)) ** n
        exact = (1 - exact) / 2
        assert abs(Fraction(float(parity_error(rates, counts))) - exact) <= 1e-15 * exact

    def test_zero_counts_and_fair_slots(self):
        # A padded row has a zero count, even where its rate is 1/2; a slot
        # at rate 1/2 with a positive count makes the parity a fair coin.
        got = parity_error([np.array([0.5, 0.5, 0.5, 0.1]), np.array([0.2, 0.5, 0.7, 0.5])],
                           [np.array([0, 0, 2, 0]), np.array([0, 1, 1, 0])])
        np.testing.assert_array_equal(got, [0.0, 0.5, 0.5, 0.0])
        assert np.signbit(got).sum() == 0


# ---------------------------------------------------------------------------
# Static recursion
# ---------------------------------------------------------------------------

class TestStaticLayers:
    def test_leaf_level_direct_only(self):
        stats = level_stats("2", ChannelParams(eta=1.0), Protocol.STATIC)[0]
        assert stats.pr_i[1] == 0.0
        assert stats.pr_m[1] == 1.0

    def test_level0_chain_rate_is_half_eta_sq(self):
        for eta in (0.2, 0.6, 0.95):
            stats = level_stats("2", ChannelParams(eta=eta), Protocol.STATIC)[0]
            assert stats.pr_s[0] == pytest.approx(0.5 * eta**2, abs=1e-14)

    def test_single_qubit_level1_matches_loss_pattern_enumeration(self):
        # Readability of one level-1 vertex of (2,2) in the single-qubit
        # basis, against brute force over every loss pattern of its subtree
        # extended with the recovery chain semantics.
        eta = 0.9
        vec = BranchingVector.of(2, 2)

        def readable(v, lost):
            if v not in lost:
                return True
            return any(
                w not in lost and all(readable(u, lost) for u in vec.children(w))
                for w in vec.children(v)
            )

        subtree = [1, 3, 4]  # a level-1 vertex and its leaves
        brute = 0.0
        for pattern in itertools.product((False, True), repeat=len(subtree)):
            lost = {v for v, flag in zip(subtree, pattern) if flag}
            w = 1.0
            for flag in pattern:
                w *= (1 - eta) if flag else eta
            if readable(1, lost):
                brute += w
        stats = level_stats("2,2", ChannelParams(eta=eta), Protocol.DYNAMIC)[0]
        assert stats.pr_m[1] == pytest.approx(brute, abs=1e-12)

    def test_stats_within_unit_interval_and_m_dominates(self):
        rng = np.random.default_rng(3)
        for b in _random_trees(rng, 20):
            for protocol in (Protocol.DYNAMIC, Protocol.STATIC):  # walk 0: Z, then the pair
                params = ChannelParams(eta=float(rng.uniform()), eps=0.01)
                stats = level_stats(b, params, protocol)[0]
                pr_d, err_d = ((params.eta, params.eps) if protocol is Protocol.DYNAMIC
                               else (params.eta**2, params.err_dzz))
                for arr in (stats.pr_s, stats.pr_i, stats.pr_m):
                    assert np.all((arr >= 0) & (arr <= 1))
                assert np.all(stats.pr_m >= stats.pr_i - 1e-15)
                assert np.all(stats.pr_m >= pr_d - 1e-15)
                assert stats.err_m[-1] == err_d


class TestStaticLogical:
    def test_no_loss_closed_form(self):
        res = logical_bsm("2", ChannelParams(eta=1.0), Protocol.STATIC)
        assert res.pr_complete == pytest.approx(0.75, abs=1e-14)

    def test_zero_detection_zero_success(self):
        assert logical_bsm("2", ChannelParams(eta=0.0), Protocol.STATIC).pr_complete == 0.0

    def test_depth1_closed_form_at_eta_09(self):
        # Equals (3/4) eta^4 for this shape; cross-checked by enumeration
        # in the sampling tests.
        res = logical_bsm("2", ChannelParams(eta=0.9), Protocol.STATIC)
        assert res.pr_complete == pytest.approx(0.492075, abs=1e-12)

    def test_beats_bare_pair_bound_at_high_eta(self):
        res = logical_bsm("15,15,2", ChannelParams(eta=0.95), Protocol.STATIC)
        assert res.pr_complete > 0.95**2

    def test_partition_sum_equals_closed_form(self):
        rng = np.random.default_rng(11)
        for b in _random_trees(rng, 25):
            eta = float(rng.uniform())
            vec = BranchingVector.of(*b)
            stats = level_stats(vec, ChannelParams(eta=eta), Protocol.STATIC)[0]
            i1 = float(stats.pr_i[1])
            x = float(stats.pr_m[2] ** vec[1]) if vec.depth >= 2 else 1.0
            m1, s0 = eta**2 + (1 - eta**2) * i1, eta**2 * x / 2
            assert complete_bsm_sum(vec[0], eta, i1, x) == pytest.approx(
                _complete_bsm_closed(vec[0], m1, s0), abs=1e-13
            )

    def test_complete_below_both_parities(self):
        rng = np.random.default_rng(5)
        for b in _random_trees(rng, 20):
            res = logical_bsm(b, ChannelParams(eta=float(rng.uniform())), Protocol.STATIC)
            assert res.pr_complete <= min(res.pr_xx, res.pr_zz) + 1e-12

    def test_depth1_single_child_never_beats_bare_pairs(self):
        for eta in np.linspace(0.0, 1.0, 21):
            res = logical_bsm("1", ChannelParams(eta=float(eta)), Protocol.STATIC)
            assert res.pr_complete <= eta**2 + 1e-12


class TestErrors:
    def test_zero_eps_means_zero_errors(self):
        rng = np.random.default_rng(7)
        for b in _random_trees(rng, 10):
            for protocol in (Protocol.STATIC, Protocol.DYNAMIC):
                res = logical_bsm(b, ChannelParams(eta=0.8, eps=0.0), protocol)
                assert res.err_xx == res.err_zz == res.err_complete == 0.0

    @pytest.mark.parametrize("b", ["1", "2", "3", "2,2"])
    @PROTOCOLS
    def test_parity_that_never_succeeds_has_zero_error(self, b, protocol):
        # At eta = 0 no parity is ever obtained, so every conditional error is 0.
        res = logical_bsm(b, ChannelParams(eta=0.0, eps=1e-3), protocol)
        assert res.pr_xx == res.pr_zz == res.pr_complete == 0.0
        assert res.err_xx == res.err_zz == res.err_complete == 0.0

    @PROTOCOLS
    def test_subnormal_eps_gives_finite_rates(self, protocol):
        # (1 - f) / f overflows below f = 5.6e-309; the tail window must not shrink to nothing.
        res = logical_bsm("2,2", ChannelParams(eta=0.9, eps=1e-310), protocol)
        normal = logical_bsm("2,2", ChannelParams(eta=0.9, eps=1e-300), protocol)
        assert all(np.isfinite(r) for r in res)
        assert res.err_complete / 1e-310 == pytest.approx(normal.err_complete / 1e-300, rel=1e-9)

    def test_sweep_at_a_subnormal_eps_exits_0(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--protocol", "static", "--b", "1,2", "--eps", "1e-320",
                     "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_error_monotone_in_eps(self):
        for b in ("2,2", "4,2", "3,2,2"):
            for protocol in (Protocol.STATIC, Protocol.DYNAMIC):
                errs = [
                    logical_bsm(b, ChannelParams(eta=0.9, eps=float(e)), protocol).err_complete
                    for e in np.linspace(0.0, 0.05, 11)
                ]
                assert all(a <= b_ + 1e-12 for a, b_ in zip(errs, errs[1:]))

    def test_static_error_correction_operating_point(self):
        p = ChannelParams(eta=0.95, eps=1e-5)
        assert logical_bsm("74,15", p, Protocol.STATIC).err_complete < p.eps_bsm

    def test_dynamic_error_correction_operating_point(self):
        p = ChannelParams(eta=0.95, eps=1e-5)
        assert logical_bsm("15,15,2", p, Protocol.DYNAMIC).err_complete < p.eps_bsm


class TestDynamic:
    def test_no_loss_matches_static(self):
        res = logical_bsm("2", ChannelParams(eta=1.0, eps=0.0), Protocol.DYNAMIC)
        assert res.pr_complete == pytest.approx(0.75, abs=1e-14)

    def test_loss_free_identity_both_protocols(self):
        rng = np.random.default_rng(13)
        for b in _random_trees(rng, 15):
            want = 1 - 2.0 ** -b[0]
            p = ChannelParams(eta=1.0)
            assert logical_bsm(b, p, Protocol.STATIC).pr_complete == pytest.approx(want, abs=1e-12)
            assert logical_bsm(b, p, Protocol.DYNAMIC).pr_complete == pytest.approx(want, abs=1e-12)

    def test_dominates_static(self):
        rng = np.random.default_rng(17)
        trees = _random_trees(rng, 20)
        etas = np.linspace(0.0, 1.0, 26)
        for b in trees:
            for eta in etas:
                p = ChannelParams(eta=float(eta))
                assert (
                    logical_bsm(b, p, Protocol.DYNAMIC).pr_complete
                    >= logical_bsm(b, p, Protocol.STATIC).pr_complete - 1e-10
                )

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(19)
        for b in _random_trees(rng, 10):
            for protocol in (Protocol.STATIC, Protocol.DYNAMIC):
                vals = [
                    logical_bsm(b, ChannelParams(eta=float(e)), protocol).pr_complete
                    for e in np.linspace(0.0, 1.0, 50)
                ]
                assert all(a <= c + 1e-12 for a, c in zip(vals, vals[1:]))

    def test_outperforms_at_moderate_loss(self):
        p = ChannelParams(eta=0.6)
        assert (
            logical_bsm("15,15,2", p, Protocol.DYNAMIC).pr_complete
            > logical_bsm("15,15,2", p, Protocol.STATIC).pr_complete
        )


# ---------------------------------------------------------------------------
# Threshold finding
# ---------------------------------------------------------------------------

class TestFindThreshold:
    def test_static_default_family_bracket(self):
        res = find_threshold(Protocol.STATIC, families.STATIC_FAMILY_DEFAULT)
        assert 0.806 <= res.eta_star <= 0.84

    def test_dynamic_default_family_bracket(self):
        res = find_threshold(Protocol.DYNAMIC, families.DYNAMIC_FAMILY_DEFAULT)
        assert 0.50 <= res.eta_star <= 0.60

    def test_family_nesting_monotonicity(self):
        for fams, proto in (
            (
                (families.STATIC_FAMILY_SMALL, families.STATIC_FAMILY_DEFAULT,
                 families.STATIC_FAMILY_LARGE),
                Protocol.STATIC,
            ),
            (
                (families.DYNAMIC_FAMILY_SMALL, families.DYNAMIC_FAMILY_DEFAULT,
                 families.DYNAMIC_FAMILY_LARGE),
                Protocol.DYNAMIC,
            ),
        ):
            small, default, large = (find_threshold(proto, f).eta_star for f in fams)
            assert small > default > large

    def test_default_family_takes_a_protocol_or_its_value(self):
        for protocol, family in ((Protocol.STATIC, families.STATIC_FAMILY_DEFAULT),
                                 (Protocol.DYNAMIC, families.DYNAMIC_FAMILY_DEFAULT)):
            assert families.default_family(protocol) is family
            assert families.default_family(protocol.value) is family
        for protocol in (Protocol.LOSS_ONLY, "loss-only"):
            with pytest.raises(ValueError, match="no default threshold family for protocol 'loss-only'"):
                families.default_family(protocol)

    def test_exact_entries_take_a_protocol_or_its_value(self):
        params = ChannelParams(eta=0.9, eps=1e-3)
        bounds = SearchBounds(max_photons=20)
        entries = {
            "logical_bsm": lambda p: logical_bsm("2,2", params, p),
            "logical_bsm_batch": lambda p: logical_bsm_batch(["2,2", "3"], 0.9, 1e-3, p),
            "find_threshold": lambda p: find_threshold(p, ["2,2", "4,2"], target=0.5),
            "evaluate_all": lambda p: evaluate_all(bounds, params, p),
            "pareto_front": lambda p: pareto_front(bounds, params, p),
        }
        for name, call in entries.items():
            for protocol in (Protocol.STATIC, Protocol.DYNAMIC):
                assert repr(call(protocol.value)) == repr(call(protocol)), (name, protocol)
            for protocol in (Protocol.LOSS_ONLY, "loss-only"):
                with pytest.raises(ValueError, match="no closed-form evaluation for protocol 'loss-only'"):
                    call(protocol)
            with pytest.raises(ValueError, match="'bogus' is not a valid Protocol"):
                call("bogus")

    def test_single_child_family_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            find_threshold(Protocol.STATIC, [BranchingVector.of(1)])

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigurationError):
            find_threshold(Protocol.STATIC, [])

    def test_certainty_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            find_threshold(Protocol.STATIC, families.STATIC_FAMILY_DEFAULT, target=1.0)

    def test_bracket_width_within_tolerance(self):
        res = find_threshold(Protocol.STATIC, families.STATIC_FAMILY_SMALL, tol=1e-3)
        assert res.bracket_high - res.bracket_low <= 1e-3

    def test_witness_reaches_target(self):
        res = find_threshold(Protocol.DYNAMIC, families.DYNAMIC_FAMILY_DEFAULT)
        got = logical_bsm(
            res.witness, ChannelParams(eta=res.bracket_high), Protocol.DYNAMIC
        )
        assert got.pr_complete >= 0.99  # find_threshold's default target
