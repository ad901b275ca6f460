"""Golden tableau outputs: measurement updates and the Bell-pair verifier, pinned.

The digests below were recorded from the tableau engine before its row
updates were rewritten around one pivot-and-eliminate step.  For each
shape and seed, a Bell-pair program runs with random outcomes drawn from
``Philox(key=[seed, 0])``; the first digest is the sha256 of the executed
state's canonical form (``canonical().to_text()``), the second the sha256
of the Pauli correction label that ``verify_bell_pair`` finds.  Any change
to the order of the random draws, to which generator a measurement keeps
as its pivot, to a sign rule or to the canonical form moves at least one
of them.
"""

import hashlib

import numpy as np
import pytest

from treebsm.genseq import compile_bell_pair, execute_sequence, verify_bell_pair

# (shape, seed) -> (sha256 of the canonical state text, sha256 of the correction label)
GOLDEN = {
    ("2,2", 0): (
        "8e44e05d4e34c2a0f84f2b2611be711434bf9c346e55bcdce64232d5c58258e1",
        "cf0c166371ad4f2e7898b41898e4460de1c6af11e780d45c15bc96e1d393f4bf",
    ),
    ("2,2", 1): (
        "8d60a92dd4a498fe5eb5a15a4eb5dc38446b32bd45709531f5e10cf000e7e1d9",
        "f2442c8bafc6afadf715790d8088f3afafd1ab8e8613bb43e30d10f14f80052f",
    ),
    ("2,2", 2): (
        "a338e3db667ad999b536a4f55e4ee158e873fa0ddcc88898c7e1129abb9aed68",
        "389ee9f5a7f076f29dbe095208f1e23f86f6eac98b40d4e3d5ec76043d13d43e",
    ),
    ("3,2,2", 0): (
        "2454c3c8c5fcf7df0c2d8b66ab72d7d67941d09ff05c46129475e88b51ee546f",
        "14c4d4c839cf06ae21dd418ea7556b24d592c4c9d94cba2eb823d360e45174be",
    ),
    ("3,2,2", 1): (
        "6d0d5ce2c07c92a6f966ae92235ca2e60692293d4d294e72bad9dcdc207c6145",
        "7c6d52af488ecc627e793aed59b39f91a527f55bd8694924b6b7a1635da362af",
    ),
    ("3,2,2", 2): (
        "8c355be1fed382a4e6c3b7fd2792f7bd4750a1eb946a0e10ad4a7e139f89797c",
        "fc3c6abf183e42e1506b298d72e0aed709c632977f2b7b3257f386223499ff63",
    ),
    ("4,4,4", 0): (
        "82d7ce2c2de6f578cc0153b8c10db2dc24c71b566ae7670ebfb9ad9a9e9b10cc",
        "f3db8bfde1e71f4b26a33b9475d1b9939163d04b5c17f39ae4e5024381e5e9be",
    ),
    ("4,4,4", 1): (
        "755afdc0f6297efc3aed98519808308dd899d4cf3052a72f1272cfeabb4e2e3c",
        "a953571aa62e7ea42de37d692c54e3a80df53b724c4c6ce14e02a7a205096427",
    ),
    ("4,4,4", 2): (
        "ef2ac6e94f7d20c7414d87c9edb5ef78fd8b16855fb92ae3702aff44f9cb0b09",
        "fa41deafa79e680e3f44d2cfe5f2d58a795093f1ac691fd0da9672214f19cc52",
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
    assert (_sha(state.canonical().to_text()), _sha(res.correction.to_label())) == GOLDEN[(b, seed)]
