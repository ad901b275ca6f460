#!/usr/bin/env python3
"""Cross-validate the closed-form engines against direct sampling.

The sampler draws complete worlds (losses, completeness coins, Pauli
faults) and runs the measurement decision procedures on the tree, knowing
nothing about the recursions.  Agreement is reported in reference sigmas.
"""

from treebsm import (
    ChannelParams,
    Protocol,
    SampleConfig,
    exhaustive_static,
    logical_bsm,
    run,
    z_score,
)

# Exhaustive enumeration reproduces the closed form to machine precision.
params = ChannelParams(eta=0.9)
exact = exhaustive_static("2,2", params)
closed = logical_bsm("2,2", params, Protocol.STATIC).pr_complete
print(f"(2,2) at eta=0.9: enumeration {exact:.15f} vs closed form {closed:.15f}")

print()
print("sampled agreement at N = 10^5 (seed 1):")
for proto in (Protocol.STATIC, Protocol.DYNAMIC):
    for b, eta, eps in ((("3,2"), 0.8, 1e-3), (("15,15,2"), 0.95, 1e-3)):
        ref = logical_bsm(b, ChannelParams(eta=eta, eps=eps), proto)
        est = run(SampleConfig(b=b, eta=eta, eps=eps, protocol=proto,
                               n_samples=10**5, seed=1))
        zs = z_score(est.success, ref.pr_complete, est.n_samples)
        ze = z_score(est.error_rate, ref.err_complete, est.n_success)
        print(f"  {proto.value:7s} {b:8s} eta={eta} eps={eps}: "
              f"success z={zs:+.2f}, error z={ze:+.2f}")
