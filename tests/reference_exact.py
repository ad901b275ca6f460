"""Scalar references for the exact engine, for tests only.

``analytic`` evaluates the recursions over a batch axis of (shape, eta,
eps) rows.  This module keeps the engine as it was before that rewrite: one
shape at one channel point, one level at a time, with a scalar vote mix
over every possible number of successful chains.  :func:`reference_logical_bsm`
is the oracle the batched engine is checked against.

``analytic._complete_bsm_closed`` evaluates the complete-BSM rate in closed
form; :func:`complete_bsm_sum` reaches it by an independent route, an
explicit sum over the first-level outcome counts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from treebsm.analytic import Protocol
from treebsm.trees import ChannelParams, as_branching_vector

FIELDS = ("pr_xx", "pr_zz", "pr_complete", "err_xx", "err_zz", "err_complete")


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


# ---------------------------------------------------------------------------
# The scalar level walk
# ---------------------------------------------------------------------------

def _parity_error(per_slot, counts) -> float:
    prod = 1.0
    for e, n in zip(per_slot, counts):
        prod *= (1.0 - 2.0 * e) ** n
    return 0.5 * (1.0 - prod)


def _vote_tail(m, e):
    m_eff = m - 1 + m % 2
    k0 = (m_eff + 1) // 2
    return special.betainc(k0, m_eff - k0 + 1, e)


def vote_error_mix(n_chains: int, p_chain: float, e_chain: float) -> float:
    """Majority-vote error averaged over all 1..n successful chains, one shape at a time."""
    if n_chains <= 0 or p_chain <= 0.0:
        return 0.0
    m = np.arange(1, n_chains + 1)
    log_w = (
        special.gammaln(n_chains + 1) - special.gammaln(m + 1) - special.gammaln(n_chains - m + 1)
        + m * math.log(p_chain) + special.xlog1py(n_chains - m, -p_chain)
    )
    w = np.exp(log_w - log_w.max())
    return float(w @ _vote_tail(m, e_chain) / w.sum())


def _chain_step(n_chains, n_grand, opener, grand):
    pr_s = opener[0] * grand[0] ** n_grand
    err_s = _parity_error([opener[1], grand[1]], [1, n_grand])
    pr_i = 1.0 if pr_s >= 1.0 else -math.expm1(n_chains * math.log1p(-pr_s))
    return pr_s, err_s, pr_i, vote_error_mix(n_chains, pr_s, err_s)


def _prefer_indirect(pr_i, err_i, pr_d, err_d):
    pr_m = pr_d + (1.0 - pr_d) * pr_i
    if pr_m <= 0.0:
        return 0.0, 0.0
    w_ind = pr_i / pr_m
    return pr_m, w_ind * err_i + (1.0 - w_ind) * err_d


def _levels(vec, opener, value):
    """``(pr_s, pr_i, pr_m, err_s, err_i, err_m)``, each indexed by level 0..d."""
    d = vec.depth
    pr_s, pr_i, pr_m, err_s, err_i, err_m = np.zeros((6, d + 1))
    for k in range(d, -1, -1):
        if k < d:
            n_grand = vec[k + 1] if k + 1 < d else 0
            grand = (pr_m[k + 2], err_m[k + 2]) if n_grand else (1.0, 0.0)
            pr_s[k], err_s[k], pr_i[k], err_i[k] = _chain_step(vec[k], n_grand, opener, grand)
        pr_m[k], err_m[k] = value(k, pr_i[k], err_i[k])
    return pr_s, pr_i, pr_m, err_s, err_i, err_m


def reference_static_levels(b, params: ChannelParams, single_qubit: bool):
    """Level arrays of the single-qubit Z (``single_qubit``) or pair ZZ value, static rules."""
    eta = params.eta
    if single_qubit:
        direct = opener = (eta, params.eps)
    else:
        direct, opener = (eta**2, params.err_dzz), (0.5 * eta**2, params.err_dxx)
    return _levels(as_branching_vector(b), opener,
                   lambda k, pr_i, err_i: _prefer_indirect(pr_i, err_i, *direct))


def reference_dynamic_levels(b, params: ChannelParams):
    """Level arrays of the pair ZZ value under the adaptive rules."""
    vec = as_branching_vector(b)
    eta2 = params.eta**2
    _, z_pr_i, _, _, z_err_i, _ = reference_static_levels(vec, params, single_qubit=True)
    pr_u = z_pr_i**2
    err_u = 2.0 * z_err_i - 2.0 * z_err_i**2

    def value(k, pr_i, err_i):
        err_c = _prefer_indirect(pr_i, err_i, 1.0, params.err_dzz)[1]
        err_p = _prefer_indirect(pr_u[k], err_u[k], 1.0, params.err_dzz)[1]
        pr_f, err_f = _prefer_indirect(pr_u[k], err_u[k], 0.0, 0.0)
        pr_m = eta2 + (1.0 - eta2) * pr_f
        if pr_m <= 0.0:
            return 0.0, 0.0
        return pr_m, (0.5 * eta2 * (err_c + err_p) + (1.0 - eta2) * pr_f * err_f) / pr_m

    return _levels(vec, (0.5 * eta2, params.err_dxx), value)


def reference_logical_bsm(b, params: ChannelParams, protocol: Protocol) -> dict[str, float]:
    """The six logical rates of one shape at one point, keyed by ``FIELDS``."""
    vec = as_branching_vector(b)
    if protocol is Protocol.STATIC:
        pr_s, pr_i, pr_m, _, err_i, err_m = reference_static_levels(vec, params, False)
    else:
        pr_s, pr_i, pr_m, _, err_i, err_m = reference_dynamic_levels(vec, params)
    b0, m1, s0 = vec[0], float(pr_m[1]), float(pr_s[0])
    err_zz = _parity_error([float(err_m[1])], [b0])
    err_xx = float(err_i[0])
    complete = m1**b0 * -math.expm1(b0 * math.log1p(-s0 / m1)) if m1 > 0.0 else 0.0
    return dict(
        pr_xx=float(pr_i[0]), pr_zz=float(m1**b0), pr_complete=complete,
        err_xx=err_xx, err_zz=err_zz, err_complete=err_zz + (1.0 - err_zz) * err_xx,
    )
