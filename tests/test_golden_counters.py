"""Golden sampler counters: the random-number stream and the decision rules, pinned.

The counters below were recorded from stream version 3, in which chunk c
of 8192 samples draws from the Philox streams keyed by (seed, c), each
plane p from its own lane at counter (0, 0, p, version), a loss flag or a
fault from a 32-bit word and a coin or a tie from one bit.  Any change to
the lanes, the cell widths, the stream keys or a recovery rule moves at
least one of them, so a refactor that claims to keep the stream must leave
every entry bit-identical; a change of stream bumps
``montecarlo.STREAM_VERSION`` and re-records the table.  Each entry is checked at two worker counts, which
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
    ((2,), "static", 0.0): (6123, 0, 0, 0),
    ((2,), "static", 0.001): (6123, 28, 26, 34),
    ((2,), "dynamic", 0.0): (6123, 0, 0, 0),
    ((2,), "dynamic", 0.001): (6123, 28, 26, 34),
    ((2,), "loss-only", 0.0): (6123, 0, 0, 0),
    ((2, 2), "static", 0.0): (3973, 0, 0, 0),
    ((2, 2), "static", 0.001): (3973, 21, 24, 36),
    ((2, 2), "dynamic", 0.0): (4692, 0, 0, 0),
    ((2, 2), "dynamic", 0.001): (4692, 24, 29, 43),
    ((2, 2), "loss-only", 0.0): (4692, 0, 0, 0),
    ((3, 2, 2), "static", 0.0): (2525, 0, 0, 0),
    ((3, 2, 2), "static", 0.001): (2525, 32, 13, 40),
    ((3, 2, 2), "dynamic", 0.0): (4496, 0, 0, 0),
    ((3, 2, 2), "dynamic", 0.001): (4496, 59, 18, 71),
    ((3, 2, 2), "loss-only", 0.0): (4562, 0, 0, 0),
    ((15, 15, 2), "static", 0.0): (378, 0, 0, 0),
    ((15, 15, 2), "static", 0.001): (378, 18, 15, 32),
    ((15, 15, 2), "dynamic", 0.0): (2427, 0, 0, 0),
    ((15, 15, 2), "dynamic", 0.001): (2427, 53, 36, 86),
    ((15, 15, 2), "loss-only", 0.0): (2470, 0, 0, 0),
}


def test_table_is_of_the_current_stream():
    assert montecarlo.STREAM_VERSION == 3


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_counters_match_golden(key, workers):
    b, protocol, eps = key
    est = run(SampleConfig(b=b, eta=ETA, eps=eps, protocol=Protocol(protocol),
                           n_samples=N_SAMPLES[b], seed=SEED, n_workers=workers))
    got = (est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error)
    assert got == GOLDEN[key]
