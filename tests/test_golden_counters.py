"""Golden sampler counters: the random-number stream and the decision rules, pinned.

The counters below were recorded from the sampler before its evaluators
were rewritten around one shared level kernel.  Any change to the draw
order, to the stream keys or to a recovery rule moves at least one of
them, so a refactor that claims to keep the stream must leave every
entry bit-identical.
"""

import pytest

from treebsm.analytic import Protocol
from treebsm.montecarlo import SampleConfig, run

ETA = 0.8
SEED = 2021
N_SAMPLES = {(2,): 20001, (2, 2): 20001, (3, 2, 2): 10001, (15, 15, 2): 2501}

# (b, protocol, eps, n_workers) -> (success, zz_error, xx_error, joint_error)
GOLDEN = {
    ((2,), "static", 0.0, 1): (5957, 0, 0, 0),
    ((2,), "static", 0.0, 3): (6112, 0, 0, 0),
    ((2,), "static", 0.001, 1): (6059, 29, 22, 36),
    ((2,), "static", 0.001, 3): (6112, 29, 20, 37),
    ((2,), "dynamic", 0.0, 1): (5957, 0, 0, 0),
    ((2,), "dynamic", 0.0, 3): (6112, 0, 0, 0),
    ((2,), "dynamic", 0.001, 1): (6059, 29, 22, 36),
    ((2,), "dynamic", 0.001, 3): (6112, 29, 20, 37),
    ((2,), "loss-only", 0.0, 1): (5957, 0, 0, 0),
    ((2,), "loss-only", 0.0, 3): (6112, 0, 0, 0),
    ((2, 2), "static", 0.0, 1): (3986, 0, 0, 0),
    ((2, 2), "static", 0.0, 3): (3995, 0, 0, 0),
    ((2, 2), "static", 0.001, 1): (3960, 24, 29, 46),
    ((2, 2), "static", 0.001, 3): (3995, 23, 26, 39),
    ((2, 2), "dynamic", 0.0, 1): (4709, 0, 0, 0),
    ((2, 2), "dynamic", 0.0, 3): (4739, 0, 0, 0),
    ((2, 2), "dynamic", 0.001, 1): (4663, 22, 32, 47),
    ((2, 2), "dynamic", 0.001, 3): (4739, 27, 29, 45),
    ((2, 2), "loss-only", 0.0, 1): (4709, 0, 0, 0),
    ((2, 2), "loss-only", 0.0, 3): (4739, 0, 0, 0),
    ((3, 2, 2), "static", 0.0, 1): (2559, 0, 0, 0),
    ((3, 2, 2), "static", 0.0, 3): (2610, 0, 0, 0),
    ((3, 2, 2), "static", 0.001, 1): (2581, 31, 25, 54),
    ((3, 2, 2), "static", 0.001, 3): (2610, 24, 17, 38),
    ((3, 2, 2), "dynamic", 0.0, 1): (4481, 0, 0, 0),
    ((3, 2, 2), "dynamic", 0.0, 3): (4500, 0, 0, 0),
    ((3, 2, 2), "dynamic", 0.001, 1): (4491, 55, 30, 79),
    ((3, 2, 2), "dynamic", 0.001, 3): (4500, 54, 22, 72),
    ((3, 2, 2), "loss-only", 0.0, 1): (4555, 0, 0, 0),
    ((3, 2, 2), "loss-only", 0.0, 3): (4569, 0, 0, 0),
    ((15, 15, 2), "static", 0.0, 1): (383, 0, 0, 0),
    ((15, 15, 2), "static", 0.0, 3): (357, 0, 0, 0),
    ((15, 15, 2), "static", 0.001, 1): (383, 21, 20, 40),
    ((15, 15, 2), "static", 0.001, 3): (357, 13, 12, 25),
    ((15, 15, 2), "dynamic", 0.0, 1): (2422, 0, 0, 0),
    ((15, 15, 2), "dynamic", 0.0, 3): (2423, 0, 0, 0),
    ((15, 15, 2), "dynamic", 0.001, 1): (2422, 39, 35, 74),
    ((15, 15, 2), "dynamic", 0.001, 3): (2423, 38, 41, 77),
    ((15, 15, 2), "loss-only", 0.0, 1): (2473, 0, 0, 0),
    ((15, 15, 2), "loss-only", 0.0, 3): (2462, 0, 0, 0),

}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_counters_match_golden(key):
    b, protocol, eps, workers = key
    est = run(SampleConfig(b=b, eta=ETA, eps=eps, protocol=Protocol(protocol),
                           n_samples=N_SAMPLES[b], seed=SEED, n_workers=workers))
    got = (est.n_success, est.n_zz_error, est.n_xx_error, est.n_joint_error)
    assert got == GOLDEN[key]
