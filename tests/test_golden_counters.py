"""Golden sampler counters: the random-number stream and the decision rules, pinned.

The counters below were recorded from stream version 2, in which chunk c
of 8192 samples draws from the Philox stream keyed by (seed, c), from raw 0
of a counter whose top word is the version.  Any change to the draw order,
to the stream keys or to a recovery rule moves at least one of them, so a
refactor that claims to keep the stream must leave every entry
bit-identical; a change of stream bumps ``montecarlo.STREAM_VERSION`` and
re-records the table.  Each entry is checked at two worker counts, which
the configuration still carries and which must move no counter.
"""

import pytest

from treebsm import montecarlo
from treebsm.analytic import Protocol
from treebsm.montecarlo import SampleConfig, run

ETA = 0.8
SEED = 2021
N_SAMPLES = {(2,): 20001, (2, 2): 20001, (3, 2, 2): 10001, (15, 15, 2): 2501}

# (b, protocol, eps) -> (success, zz_error, xx_error, joint_error)
GOLDEN = {
    ((2,), "static", 0.0): (6052, 0, 0, 0),
    ((2,), "static", 0.001): (6052, 24, 20, 31),
    ((2,), "dynamic", 0.0): (6052, 0, 0, 0),
    ((2,), "dynamic", 0.001): (6052, 24, 20, 31),
    ((2,), "loss-only", 0.0): (6052, 0, 0, 0),
    ((2, 2), "static", 0.0): (3981, 0, 0, 0),
    ((2, 2), "static", 0.001): (3981, 34, 27, 51),
    ((2, 2), "dynamic", 0.0): (4705, 0, 0, 0),
    ((2, 2), "dynamic", 0.001): (4705, 35, 30, 55),
    ((2, 2), "loss-only", 0.0): (4705, 0, 0, 0),
    ((3, 2, 2), "static", 0.0): (2516, 0, 0, 0),
    ((3, 2, 2), "static", 0.001): (2516, 24, 24, 45),
    ((3, 2, 2), "dynamic", 0.0): (4529, 0, 0, 0),
    ((3, 2, 2), "dynamic", 0.001): (4529, 49, 35, 76),
    ((3, 2, 2), "loss-only", 0.0): (4610, 0, 0, 0),
    ((15, 15, 2), "static", 0.0): (368, 0, 0, 0),
    ((15, 15, 2), "static", 0.001): (368, 19, 19, 38),
    ((15, 15, 2), "dynamic", 0.0): (2427, 0, 0, 0),
    ((15, 15, 2), "dynamic", 0.001): (2427, 52, 31, 81),
    ((15, 15, 2), "loss-only", 0.0): (2472, 0, 0, 0),
}


def test_table_is_of_the_current_stream():
    assert montecarlo.STREAM_VERSION == 2


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_counters_match_golden(key, workers):
    b, protocol, eps = key
    est = run(SampleConfig(b=b, eta=ETA, eps=eps, protocol=Protocol(protocol),
                           n_samples=N_SAMPLES[b], seed=SEED, n_workers=workers))
    got = (est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error)
    assert got == GOLDEN[key]
