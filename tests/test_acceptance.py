"""Acceptance suite: one test per headline requirement, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion.
Sampled checks use frozen seeds, so every run is bit-identical.
"""

import itertools

import numpy as np
import pytest

from treebsm import families
from treebsm.analytic import Protocol, find_threshold, logical_bsm
from treebsm.genseq import compile_bell_pair, verify_bell_pair
from treebsm.montecarlo import (
    SampleConfig,
    exhaustive_static,
    run,
    z_score,
)
from treebsm.search import SearchBounds
from treebsm.stabilizer import PauliString, StabilizerTableau, canonical_mismatch
from treebsm.trees import ChannelParams, photon_count

from builders import copy_tableau, smallest_error_correcting
from reference_sampler import sample_bsm_error_rates

SEED = 20260808


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS: {message}")


def test_criterion_01_loss_free_closed_form():
    suffixes = [(), (2,), (3, 2), (2, 2, 1)]
    for b0 in range(1, 21):
        for suffix in suffixes:
            b = (b0, *suffix)
            want = 1 - 2.0**-b0
            p = ChannelParams(eta=1.0, eps=0.0)
            assert logical_bsm(b, p, Protocol.STATIC).pr_complete == pytest.approx(want, abs=1e-12)
            assert logical_bsm(b, p, Protocol.DYNAMIC).pr_complete == pytest.approx(want, abs=1e-12)
    report(1, "pr_complete = 1 - 2^-b0 at eta=1 for b0 <= 20, both protocols, 1e-12")


def test_criterion_02_photon_count_milestones():
    assert photon_count("2,2") == 7
    assert photon_count("15,15,2") == 691
    assert photon_count("74,15") == 1185
    report(2, "photon counts 7 / 691 / 1185 exact")


def test_criterion_03_bsm_error_model():
    p = ChannelParams(eta=1.0, eps=0.01)
    assert p.eps_bsm == 3 * 0.01 * 0.99 == pytest.approx(0.0297, abs=1e-15)
    assert p.err_dzz == pytest.approx(0.0198, abs=1e-15)
    rates = sample_bsm_error_rates(0.01, 10**6, seed=SEED)
    z_zz = z_score(rates["zz_flip_rate"], 0.0198, rates["n"])
    z_xx = z_score(rates["xx_error_rate"], 0.0297, rates["n"])
    assert abs(z_zz) <= 3 and abs(z_xx) <= 3
    report(3, f"eps_bsm=0.0297, err_dzz=0.0198; sampled z_zz={z_zz:+.2f}, z_xx={z_xx:+.2f}")


def test_criterion_04_static_oracle_equivalence():
    trees = []

    def rec(prefix):
        if prefix:
            trees.append(tuple(prefix))
        for nxt in range(1, 10):
            cand = prefix + [nxt]
            if photon_count(cand) <= 10:
                rec(cand)

    rec([])
    assert len(trees) >= 14
    worst = 0.0
    for b in trees:
        for eta in (0.3, 0.7, 0.9):
            params = ChannelParams(eta=eta)
            gap = abs(
                exhaustive_static(b, params) - logical_bsm(b, params, Protocol.STATIC).pr_complete
            )
            worst = max(worst, gap)
    assert worst < 1e-10
    report(4, f"{len(trees)} trees with n<=10, 3 etas: exhaustive gap {worst:.1e} < 1e-10")


def test_criterion_05_analytic_monte_carlo_grid():
    trees = [(2,), (2, 2), (3, 2), (4, 2, 1), (15, 15, 2)]
    checked = 0
    for proto in (Protocol.STATIC, Protocol.DYNAMIC):
        for b in trees:
            for eta in (0.6, 0.8, 0.95):
                for eps in (0.0, 1e-3):
                    ref = logical_bsm(b, ChannelParams(eta=eta, eps=eps), proto)
                    est = run(SampleConfig(b=b, eta=eta, eps=eps, protocol=proto,
                                           n_samples=10**5, seed=SEED))
                    zs = z_score(est.success, ref.pr_complete, est.n_samples)
                    assert abs(zs) <= 3, (proto, b, eta, eps, zs)
                    checked += 1
                    if eps > 0 and est.n_success > 1000:
                        ze = z_score(est.error_rate, ref.err_complete, est.n_success)
                        assert abs(ze) <= 3, (proto, b, eta, eps, ze)
                        checked += 1
    report(5, f"{checked} z-scores within 3 sigma at N=1e5 (seed {SEED})")


def test_criterion_06_success_curve_properties():
    b = "15,15,2"
    # eta = 1 itself is excluded: the pair ceiling eta^2 reaches 1 there
    # while any finite tree saturates at 1 - 2^-b0.
    for eta in np.linspace(0.90, 0.999, 12):
        p = ChannelParams(eta=float(eta))
        assert logical_bsm(b, p, Protocol.STATIC).pr_complete > eta**2
        assert logical_bsm(b, p, Protocol.DYNAMIC).pr_complete > eta**2
    for eta in np.linspace(0.5, 1.0, 51):
        p = ChannelParams(eta=float(eta))
        assert (
            logical_bsm(b, p, Protocol.DYNAMIC).pr_complete
            >= logical_bsm(b, p, Protocol.STATIC).pr_complete - 1e-12
        )
    stat_082 = logical_bsm(b, ChannelParams(eta=0.82), Protocol.STATIC).pr_complete
    assert stat_082 < 0.9
    p06 = ChannelParams(eta=0.60)
    gap = (logical_bsm(b, p06, Protocol.DYNAMIC).pr_complete
           - logical_bsm(b, p06, Protocol.STATIC).pr_complete)
    assert gap >= 0.05
    report(6, f"curves beat eta^2 above 0.90; static(0.82)={stat_082:.3f}; "
              f"adaptive gain at 0.60 = {gap:.3f}")


def test_criterion_07_threshold_brackets():
    stat = find_threshold(Protocol.STATIC, families.STATIC_FAMILY_DEFAULT)
    dyn = find_threshold(Protocol.DYNAMIC, families.DYNAMIC_FAMILY_DEFAULT)
    assert 0.806 <= stat.eta_star <= 0.84
    assert 0.50 <= dyn.eta_star <= 0.60
    for trio, proto in (
        ((families.STATIC_FAMILY_SMALL, families.STATIC_FAMILY_DEFAULT,
          families.STATIC_FAMILY_LARGE), Protocol.STATIC),
        ((families.DYNAMIC_FAMILY_SMALL, families.DYNAMIC_FAMILY_DEFAULT,
          families.DYNAMIC_FAMILY_LARGE), Protocol.DYNAMIC),
    ):
        small, default, large = (find_threshold(proto, f).eta_star for f in trio)
        assert small > default > large
    report(7, f"eta* static={stat.eta_star:.4f} in [0.806, 0.84], "
              f"dynamic={dyn.eta_star:.4f} in [0.50, 0.60]; families nest monotonically")


def test_criterion_08_error_correction_milestones():
    params = ChannelParams(eta=0.95, eps=1e-5)
    assert logical_bsm("74,15", params, Protocol.STATIC).err_complete < params.eps_bsm
    assert logical_bsm("15,15,2", params, Protocol.DYNAMIC).err_complete < params.eps_bsm

    bounds = SearchBounds()  # defaults: depth 2..4, branches 2..80 non-increasing
    st = smallest_error_correcting(bounds, params, Protocol.STATIC)
    dy = smallest_error_correcting(bounds, params, Protocol.DYNAMIC)
    assert st is not None and st.n_photons == 1185 and st.b.branches == (74, 15)
    assert dy is not None and dy.n_photons == 691 and dy.b.branches == (15, 15, 2)
    report(8, "smallest error-correcting trees in default bounds: "
              "static (74,15)/1185, dynamic (15,15,2)/691")


def test_criterion_09_measurement_update_worked_example():
    chain = StabilizerTableau.from_generators(
        [PauliString.from_label(s) for s in ("+XZI", "+ZXZ", "+IZX")]
    )
    for m, sign in ((1, "+"), (-1, "-")):
        t = copy_tableau(chain)
        t.measure(1, "Z", outcome=m)
        want = StabilizerTableau.from_generators(
            [PauliString.from_label(s) for s in (f"{sign}XII", f"{sign}IZI", f"{sign}IIX")]
        )
        assert canonical_mismatch(t, want) is None
        t = copy_tableau(chain)
        t.measure(1, "X", outcome=m)
        want = StabilizerTableau.from_generators(
            [PauliString.from_label(s) for s in (f"{sign}ZIZ", "+XIX", f"{sign}IXI")]
        )
        assert canonical_mismatch(t, want) is None
    report(9, "three-qubit chain updates bit-exact for Z and X, both signs")


def test_criterion_10_generation_verification():
    shapes = [
        (a,) for a in (1, 2, 3)
    ] + [
        (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
    ] + [
        (a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)
    ]
    rng = np.random.default_rng(SEED)
    for b in shapes:
        seq = compile_bell_pair(b)
        assert verify_bell_pair(seq, b).ok, b
        n_meas = seq.n_measurements
        if n_meas <= 6:
            patterns = list(itertools.product((1, -1), repeat=n_meas))
        else:
            patterns = [
                [1 if bit else -1 for bit in rng.integers(0, 2, size=n_meas)]
                for _ in range(4)
            ]
        for pattern in patterns:
            assert verify_bell_pair(seq, b, forced_outcomes=list(pattern)).ok, (b, pattern)
    assert len(compile_bell_pair("2,2")) == 27
    report(10, f"{len(shapes)} shapes verify under forced outcome patterns; "
               "(2,2) compiles to 27 instructions")


def test_criterion_11_loss_only_sits_between():
    kw = dict(b=(2, 2), eta=0.8, eps=0.0, n_samples=10**6, seed=SEED)
    st = run(SampleConfig(protocol=Protocol.STATIC, **kw))
    lo = run(SampleConfig(protocol=Protocol.LOSS_ONLY, **kw))
    dy = run(SampleConfig(protocol=Protocol.DYNAMIC, **kw))

    def sigma(a, b):
        return (a.success_stderr**2 + b.success_stderr**2) ** 0.5

    assert lo.success >= st.success - 3 * sigma(lo, st)
    assert dy.success >= lo.success - 3 * sigma(dy, lo)
    report(11, f"static {st.success:.4f} <= loss-only {lo.success:.4f} "
               f"<= dynamic {dy.success:.4f} within 3 sigma")
