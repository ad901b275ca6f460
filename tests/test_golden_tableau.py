"""Golden tableau outputs: measurement updates and the Bell-pair verifier, pinned.

The state digests below were recorded from the tableau engine before its
row updates were rewritten around one pivot-and-eliminate step.  For each
shape and seed, a Bell-pair program runs with random outcomes drawn from
``Philox(key=[seed, 0])``; the first digest is the sha256 of the executed
state's canonical form (``tableau_text(state.canonical())``), the second
the sha256 of the Pauli frame label that ``verify_bell_pair`` applies, the
frame the record of outcomes implies (recorded when the verifier began
applying that frame in place of solving for one).  Any change to the order
of the random draws, to a sign rule, to the canonical form or to the
byproduct rule moves at least one of them.  Which generator a measurement keeps as its
pivot moves neither: the canonical form is unique per stabilizer group,
and the frame depends on the outcomes alone.
"""

import hashlib

import numpy as np
import pytest

from treebsm.genseq import compile_bell_pair, execute_sequence, verify_bell_pair

from builders import tableau_text

# (shape, seed) -> (sha256 of the canonical state text, sha256 of the frame label)
GOLDEN = {
    ("2,2", 0): (
        "8e44e05d4e34c2a0f84f2b2611be711434bf9c346e55bcdce64232d5c58258e1",
        "61f7612f697869946fe45640c57bed3151684b0f538aca081ef84371d3d855bd",
    ),
    ("2,2", 1): (
        "8d60a92dd4a498fe5eb5a15a4eb5dc38446b32bd45709531f5e10cf000e7e1d9",
        "09b0b5e6284da45c3fcc14c3674b81b66c5a0eab75c6b1aac82ddbb12a6ca5c4",
    ),
    ("2,2", 2): (
        "a338e3db667ad999b536a4f55e4ee158e873fa0ddcc88898c7e1129abb9aed68",
        "b6d8871827e56e6ba023b6f93e37c2f590d2a7ada58abf9c761504a70d3a4e99",
    ),
    ("3,2,2", 0): (
        "2454c3c8c5fcf7df0c2d8b66ab72d7d67941d09ff05c46129475e88b51ee546f",
        "9da5be8bc46a7b538ecca820666f032f4f26d236bc715cbc9768cad7cd9d05ad",
    ),
    ("3,2,2", 1): (
        "6d0d5ce2c07c92a6f966ae92235ca2e60692293d4d294e72bad9dcdc207c6145",
        "2f7b384e2e3e2a2b914f12f5771e11a4845b4755668a61a776d6727caafe7b29",
    ),
    ("3,2,2", 2): (
        "8c355be1fed382a4e6c3b7fd2792f7bd4750a1eb946a0e10ad4a7e139f89797c",
        "3fe13bc5181828e65d1723c301c2808994667633a6efab5e90cc9cf511ad782c",
    ),
    ("4,4,4", 0): (
        "82d7ce2c2de6f578cc0153b8c10db2dc24c71b566ae7670ebfb9ad9a9e9b10cc",
        "529b17cf804e6664a82787104a2c795684ce9690146b6c1050ae3e8e61437386",
    ),
    ("4,4,4", 1): (
        "755afdc0f6297efc3aed98519808308dd899d4cf3052a72f1272cfeabb4e2e3c",
        "e3e432b1e5f59e57f920cde6a3f14bb1ffe89c6a34b59743da7c8761d55d15de",
    ),
    ("4,4,4", 2): (
        "ef2ac6e94f7d20c7414d87c9edb5ef78fd8b16855fb92ae3702aff44f9cb0b09",
        "11bc6f005b9d05099c26cc57511e092a6fe904c9c9810e85481200bffead0e83",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


@pytest.mark.parametrize("b,seed", sorted(GOLDEN))
def test_random_outcome_state_and_correction(b, seed):
    seq = compile_bell_pair(b)
    state = execute_sequence(seq, rng=_rng(seed))
    res = verify_bell_pair(seq, b, rng=_rng(seed))
    assert res.ok, res.detail
    assert (_sha(tableau_text(state.canonical())), _sha(res.correction.to_label())) == GOLDEN[(b, seed)]
