#!/usr/bin/env python3
"""Which tree shapes are worth their photons?

Enumerates shapes under the default bounds (depth 2-4, branches 2-80
non-increasing, at most 2000 photons) at eta = 95%, eps = 1e-5, and keeps
those improving on every smaller shape in success or in error.  The first
shape beating a bare pair appears at 7 photons; error correction first
appears at 691 photons for the adaptive rules.
"""

from treebsm import ChannelParams, Protocol, SearchBounds, enumerate_trees, pareto_front

params = ChannelParams(eta=0.95, eps=1e-5)
bounds = SearchBounds(max_photons=800)
front = pareto_front(bounds, params, Protocol.DYNAMIC)
n_shapes = sum(1 for _ in enumerate_trees(bounds))

first_lt = next(e for e in front if e.loss_tolerant)
first_ec = next(e for e in front if e.error_correcting)
picks = front[:4] + [first_lt, first_ec]

print("adaptive-protocol front, eta=0.95, eps=1e-5 (n <= 800):")
print(f"{'b':>12} {'n':>5} {'success':>9} {'error':>10}  flags")
for e in picks:
    flags = [name for name, on in (
        ("beats-pair", e.beats_physical),
        ("loss-tolerant", e.loss_tolerant),
        ("error-correcting", e.error_correcting),
    ) if on]
    print(f"{str(e.b):>12} {e.n_photons:>5} {e.pr_complete:9.5f} "
          f"{e.err_complete:10.2e}  {', '.join(flags)}")
print(f"\n({len(front)} of {n_shapes} shapes on the full front; first error correction at "
      f"n = {first_ec.n_photons})")
