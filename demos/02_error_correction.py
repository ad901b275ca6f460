#!/usr/bin/env python3
"""Logical error rates and the error-correction milestones.

A tree is worth its photons once the logical BSM error drops below the
raw two-photon error 3*eps*(1-eps).  At eta = 95% and eps = 1e-5 the
smallest such trees are (74, 15) for the static rules (1185 photons) and
(15, 15, 2) for the adaptive rules (691 photons).
"""

import numpy as np

from treebsm import ChannelParams, Protocol, logical_bsm

print("logical error vs single-qubit error rate, tree (15,15,2), eta = 0.95")
print(f"{'eps':>9} {'static':>11} {'dynamic':>11} {'raw pair':>11}")
for eps in np.geomspace(1e-6, 1e-3, 7):
    p = ChannelParams(eta=0.95, eps=float(eps))
    print(f"{eps:9.1e} {logical_bsm('15,15,2', p, Protocol.STATIC).err_complete:11.3e} "
          f"{logical_bsm('15,15,2', p, Protocol.DYNAMIC).err_complete:11.3e} {p.eps_bsm:11.3e}")

print()
p = ChannelParams(eta=0.95, eps=1e-5)
for name, b, protocol in (
    ("static ", "74,15", Protocol.STATIC),
    ("dynamic", "15,15,2", Protocol.DYNAMIC),
):
    res = logical_bsm(b, p, protocol)
    verdict = "error-correcting" if res.err_complete < p.eps_bsm else "not correcting"
    print(f"{name} milestone {b:8s}: err {res.err_complete:.3e} vs raw {p.eps_bsm:.3e}"
          f"  -> {verdict}")
