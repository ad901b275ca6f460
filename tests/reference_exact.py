"""Reference sum for the exact engine's complete-BSM rate, for tests only.

``analytic._complete_bsm_closed`` evaluates the rate in closed form;
:func:`complete_bsm_sum` reaches it by an independent route, an explicit
sum over the first-level outcome counts.
"""

from __future__ import annotations

import math


def complete_bsm_sum(b0: int, eta: float, i1: float, x: float) -> float:
    """Probability of a complete logical BSM from the first-level mixture.

    Sums over the (complete, partial, failed) outcome counts of the ``b0``
    first-level pairs: every failed pair must be recovered indirectly
    (probability ``i1`` each) and at least one complete pair must see all
    of its child pairs measured (probability ``x`` per complete pair).
    """
    pc = 0.5 * eta**2
    pf = 1.0 - eta**2
    total = 0.0
    for m_f in range(b0 + 1):
        w_f = math.comb(b0, m_f) * pf**m_f * (i1**m_f if m_f else 1.0)
        if w_f == 0.0:
            continue
        rest = b0 - m_f  # pairs that came out complete or partial
        inner = 0.0
        for m_c in range(1, rest + 1):
            inner += math.comb(rest, m_c) * (1.0 - (1.0 - x) ** m_c)
        total += w_f * pc**rest * inner
    return total
