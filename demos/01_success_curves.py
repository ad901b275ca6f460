#!/usr/bin/env python3
"""Success probability of the logical Bell measurement vs. detection rate.

Walks the (15, 15, 2) tree across the detection-probability axis and
prints both protocols next to the two reference lines: eta^2 / 2 is what
a bare two-photon Bell measurement achieves, and eta^2 is the ceiling for
any scheme built on physical qubits.  The encoded measurement crosses
above that ceiling once eta is high enough, which no unencoded setup can.
"""

import numpy as np

from treebsm import ChannelParams, Protocol, logical_bsm

B = "15,15,2"

print(f"tree {B}: logical BSM success probability")
print(f"{'eta':>6} {'static':>10} {'dynamic':>10} {'eta^2/2':>10} {'eta^2':>8}")
for eta in np.linspace(0.50, 1.00, 21):
    p = ChannelParams(eta=float(eta))
    stat = logical_bsm(B, p, Protocol.STATIC).pr_complete
    dyn = logical_bsm(B, p, Protocol.DYNAMIC).pr_complete
    mark = " <- beats every physical-qubit scheme" if dyn > eta**2 and eta < 1 else ""
    print(f"{eta:6.3f} {stat:10.5f} {dyn:10.5f} {eta**2 / 2:10.5f} {eta**2:8.4f}{mark}")

print()
print("At eta = 1 every shape saturates at 1 - 2^-b0:")
for b in ("2,2", "4,2", "15,15,2"):
    val = logical_bsm(b, ChannelParams(eta=1.0), Protocol.DYNAMIC).pr_complete
    print(f"  {b:9s} -> {val:.6f}")
