#!/usr/bin/env python3
"""Compile and verify the matter-qubit program for a logical Bell pair.

Depth d needs d + 1 matter registers: two tree roots plus a shared ladder.
Each internal node is grown on a ladder register, bonded to its parent,
and teleported into a fresh photon; the stabilizer engine then replays
the program and checks the photons land in the expected entangled state,
signs included, whatever the measurement outcomes were: every -1 outcome
leaves a known Pauli byproduct, and the verifier applies the frame the
record of outcomes implies.
"""

import numpy as np

from treebsm import compile_bell_pair, verify_bell_pair

for b in ("2", "2,2", "3,2,2"):
    seq = compile_bell_pair(b)
    res = verify_bell_pair(seq, b)
    print(f"b = {b}: {len(seq)} instructions, {seq.n_photons} photons, "
          f"{seq.n_registers} matter registers -> {'PASS' if res.ok else 'FAIL'}")

print()
print("full program for b = (2,2)  (E reg column | H reg | MZ reg | CZ a b):")
seq = compile_bell_pair("2,2")
print(seq.to_text())

rng = np.random.Generator(np.random.Philox(key=[2, 0]))
res = verify_bell_pair(seq, "2,2", rng=rng)
print(f"random measurement outcomes -> {'PASS' if res.ok else 'FAIL'}; "
      f"Pauli frame applied: {res.correction.to_label()}")
