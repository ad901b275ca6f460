"""Exact success and error rates of logical Bell measurements on tree codes.

Two protocols are evaluated in closed (recursive) form:

* **static** -- every photon pair (one photon from each tree, matched by
  position) receives a two-photon BSM.  Lost Z-parities are recovered
  through stabilizer chains built from deeper BSM outcomes, and repeated
  recoveries are combined by majority vote.
* **dynamic** -- measurements adapt to outcomes: the children of a complete
  BSM receive BSMs, while the children of a partial or failed BSM receive
  single-qubit measurements, which upgrade a failed pair to a known
  Z-parity through two independent single-qubit indirect measurements.

Both rest on one level walk, :func:`_levels`: the indirect-measurement
recursion evaluated from the leaves (level ``d``) to the virtual level 0,
whose single node has the ``b0`` first-level pairs as children and whose
indirect entry is the logical X-parity.  At every level
:func:`_chain_step` applies the one recovery rule: a lost value is rebuilt
from indirect chains, a chain is an opener plus all of its children
readable, and repeated chains combine by majority vote.  A value rule then
turns that vote into the level's rate and error:

* single-qubit Z and the static pair ZZ prefer an available vote to the
  direct readout (:func:`_prefer_indirect`);
* the adaptive pair ZZ mixes three pair classes: a complete pair prefers
  its chain vote, a partial pair prefers the single-qubit upgrade, and a
  failed pair needs the upgrade.

Level-``d`` photons have no chains below them, so their indirect rate is 0
and the value rule reads them directly.  An exponent over the children of
a leaf is an empty product (1).

Error rates are conditional on success.  Even-sized votes drop one result
at random, which is equivalent to voting over one fewer sample.
Conditional errors whose conditioning probability is zero are defined as
zero: those branches carry no weight.  The complete-BSM rate is read off
levels 0 and 1 of the walk: every first-level pair readable, minus every
one readable with no chain (:func:`_complete_bsm_closed`), and every
``1 - (1 - p)**n`` is evaluated as ``-expm1(n * log1p(-p))``, so tiny chain
rates and branch counts in the thousands stay accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special

from .trees import (
    BranchingVector,
    BranchingVectorLike,
    ChannelParams,
    as_branching_vector,
)


class Protocol(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"
    LOSS_ONLY = "loss-only"


class Basis(Enum):
    """Measurement flavour threaded through the level recursions.

    Z:  single-qubit Z on one tree (direct succeeds with eta, errs with eps).
    ZZ: joint Z-parity of a photon pair (direct succeeds with eta^2; the
        matching indirect chains open with an X-parity, which a complete
        BSM supplies with probability eta^2/2).
    """

    Z = "Z"
    ZZ = "ZZ"


# ---------------------------------------------------------------------------
# Elementary combinators
# ---------------------------------------------------------------------------

def parity_error(per_slot: Sequence[float], counts: Sequence[int]) -> float:
    """P(odd number of errors) over independent slots.

    ``per_slot[i]`` is the error rate of each of ``counts[i]`` independent
    results whose product forms the measured parity.
    """
    prod = 1.0
    for e, n in zip(per_slot, counts):
        prod *= (1.0 - 2.0 * e) ** n
    return 0.5 * (1.0 - prod)


def _vote_tail(m, e):
    """P(Binom(m', e) > m'/2), where m' is ``m`` rounded down to odd; ``m`` may be an array."""
    m_eff = m - 1 + m % 2
    k0 = (m_eff + 1) // 2
    # P(Binom(m_eff, e) >= k0) via the regularized incomplete beta function.
    return special.betainc(k0, m_eff - k0 + 1, e)


def _vote_error_mix(n_chains: int, p_chain: float, e_chain: float) -> float:
    """Majority-vote error averaged over how many of ``n_chains`` succeeded.

    Conditional on at least one success: the binomial weights of 1..n
    successes are formed in log space and divided by their own sum, which
    avoids both overflowing coefficients and the cancellation in
    ``1 - (1 - p)**n`` at tiny chain rates.  0 when no chain can succeed.
    """
    if n_chains <= 0 or p_chain <= 0.0:
        return 0.0
    m = np.arange(1, n_chains + 1)
    log_w = (
        special.gammaln(n_chains + 1) - special.gammaln(m + 1) - special.gammaln(n_chains - m + 1)
        + m * math.log(p_chain) + special.xlog1py(n_chains - m, -p_chain)
    )
    w = np.exp(log_w - log_w.max())
    return float(w @ _vote_tail(m, e_chain) / w.sum())


def _chain_step(
    n_chains: int, n_grand: int, opener: tuple[float, float], grand: tuple[float, float]
) -> tuple[float, float, float, float]:
    """The recovery rule for one node: ``(pr_s, err_s, pr_i, err_i)``.

    Each of ``n_chains`` children opens a chain (success and error rates
    ``opener``) that needs all ``n_grand`` of its own children readable
    (rates ``grand``).  A chain errs on the odd parity of its opener and
    grandchild results; the successful chains vote by majority.
    """
    pr_s = opener[0] * grand[0] ** n_grand
    err_s = parity_error([opener[1], grand[1]], [1, n_grand])
    pr_i = 1.0 if pr_s >= 1.0 else -math.expm1(n_chains * math.log1p(-pr_s))
    return pr_s, err_s, pr_i, _vote_error_mix(n_chains, pr_s, err_s)


def _prefer_indirect(pr_i: float, err_i: float, pr_d: float, err_d: float) -> tuple[float, float]:
    """Rate and conditional error of a value read indirectly when possible, else directly."""
    pr_m = pr_d + (1.0 - pr_d) * pr_i
    if pr_m <= 0.0:
        return 0.0, 0.0
    w_ind = pr_i / pr_m
    return pr_m, w_ind * err_i + (1.0 - w_ind) * err_d


# ---------------------------------------------------------------------------
# The level walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerStats:
    """Per-level success and conditional-error rates of one measured value.

    Arrays are indexed by level ``k = 0..d``; level 0 is the virtual root
    slot whose indirect entry feeds the logical X-parity.  Events:

    * ``pr_s[k]``: one specific chain through one child succeeds,
    * ``pr_i[k]``: at least one chain succeeds (indirect),
    * ``pr_m[k]``: the level-k value is obtained.
    """

    pr_s: np.ndarray
    pr_i: np.ndarray
    pr_m: np.ndarray
    err_s: np.ndarray
    err_i: np.ndarray
    err_m: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.pr_m) - 1


def _levels(
    vec: BranchingVector,
    opener: tuple[float, float],
    value: Callable[[int, float, float], tuple[float, float]],
) -> LayerStats:
    """Walk the levels of ``vec`` from the leaves to the virtual root.

    At level ``k`` each of the ``b[k]`` children opens a chain (success and
    error rates ``opener``) through the ``b[k+1]`` values at level ``k+2``::

        pr_s[k] = pr_opener * pr_m[k+2]**b[k+1]    (empty product if k+1 == d)
        pr_i[k] = 1 - (1 - pr_s[k])**b[k]          (0 at level d)

    and ``value(k, pr_i[k], err_i[k])`` turns the vote into
    ``(pr_m[k], err_m[k])``.
    """
    d = vec.depth
    pr_s, pr_i, pr_m, err_s, err_i, err_m = np.zeros((6, d + 1))
    for k in range(d, -1, -1):
        if k < d:
            n_grand = vec[k + 1] if k + 1 < d else 0
            grand = (pr_m[k + 2], err_m[k + 2]) if n_grand else (1.0, 0.0)
            pr_s[k], err_s[k], pr_i[k], err_i[k] = _chain_step(vec[k], n_grand, opener, grand)
        pr_m[k], err_m[k] = value(k, pr_i[k], err_i[k])
    return LayerStats(pr_s, pr_i, pr_m, err_s, err_i, err_m)


def static_layer_recursion(
    b: BranchingVectorLike, params: ChannelParams, basis: Basis
) -> LayerStats:
    """Level rates of one value under the static rules.

    Success, from level ``d`` down to 0, with the level walk's ``pr_i``::

        pr_m[k] = pr_d + (1 - pr_d) * pr_i[k]

    where the direct rate ``pr_d`` is ``eta`` for Z and ``eta**2`` for ZZ,
    and the chain opener is the direct conjugate-basis rate on one child
    (``eta`` for Z, ``eta**2 / 2`` for ZZ).  The vote is preferred to the
    direct result whenever it is available.
    """
    eta = params.eta
    if basis is Basis.Z:
        direct = opener = (eta, params.eps)
    else:
        direct, opener = (eta**2, params.err_dzz), (0.5 * eta**2, params.err_dxx)

    def value(k: int, pr_i: float, err_i: float) -> tuple[float, float]:
        return _prefer_indirect(pr_i, err_i, *direct)

    return _levels(as_branching_vector(b), opener, value)


def dynamic_layer_recursion(b: BranchingVectorLike, params: ChannelParams) -> LayerStats:
    """Level rates of the pair Z-parity under the adaptive rules.

    A pair with no direct readout is upgraded by two independent
    single-qubit indirect measurements, one per tree: ``pr_u = pr_i_z**2``,
    erring with ``2 e (1 - e)``.  Per-pair Z-parity::

        pr_m[k] = eta^2 + (1 - eta^2) * pr_u[k]

    -- a complete or partial BSM reads it directly, a failed one needs the
    upgrade.  Below a complete pair, a chain opens with a complete child
    BSM (eta^2/2) and needs the Z-parity of every grandchild pair; given
    chain success the grandchild classes are iid, so ``err_m`` is the class
    mixture: complete (eta^2/2, prefers its chain vote), partial (eta^2/2,
    prefers the upgrade) and failed (1 - eta^2, upgrade only).
    """
    vec = as_branching_vector(b)
    eta2 = params.eta**2
    z = static_layer_recursion(vec, params, Basis.Z)
    pr_u = z.pr_i**2
    err_u = 2.0 * z.err_i - 2.0 * z.err_i**2

    def value(k: int, pr_i: float, err_i: float) -> tuple[float, float]:
        err_c = _prefer_indirect(pr_i, err_i, 1.0, params.err_dzz)[1]
        err_p = _prefer_indirect(pr_u[k], err_u[k], 1.0, params.err_dzz)[1]
        pr_f, err_f = _prefer_indirect(pr_u[k], err_u[k], 0.0, 0.0)
        pr_m = eta2 + (1.0 - eta2) * pr_f
        if pr_m <= 0.0:
            return 0.0, 0.0
        return pr_m, (0.5 * eta2 * (err_c + err_p) + (1.0 - eta2) * pr_f * err_f) / pr_m

    return _levels(vec, (0.5 * eta2, params.err_dxx), value)


# ---------------------------------------------------------------------------
# Logical rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogicalBsmResult:
    """Logical-level rates of one protocol on one tree shape."""

    protocol: Protocol
    b: BranchingVector
    params: ChannelParams
    pr_xx: float
    pr_zz: float
    pr_complete: float
    err_xx: float
    err_zz: float
    err_complete: float


def _complete_bsm_closed(b0: int, m1: float, s0: float) -> float:
    """Complete-BSM rate at the virtual root, in closed form by the multinomial theorem.

    Each of the ``b0`` first-level pairs is readable with rate ``m1`` and
    carries a chain with rate ``s0`` (a chain implies readable), so a
    complete BSM -- every pair readable, at least one chain -- has rate
    ``m1**b0 - (m1 - s0)**b0``, evaluated here without the cancellation of
    that difference.  ``complete_bsm_sum`` in ``tests/reference_exact.py``
    sums the same event over the first-level outcome counts; the tests
    check this form against it.
    """
    if m1 <= 0.0:
        return 0.0
    return m1**b0 * -math.expm1(b0 * math.log1p(-s0 / m1))


def _logical_result(
    protocol: Protocol, vec: BranchingVector, params: ChannelParams, zz: LayerStats
) -> LogicalBsmResult:
    """Logical rates at the virtual root from the pair recursion ``zz``.

    The level-0 vote is the logical X-parity and the ``b0`` level-1 values
    form the logical Z-parity; a complete BSM needs every first-level pair
    readable (``pr_m[1]``) and at least one first-level chain (``pr_s[0]``).
    """
    pr_zz = float(zz.pr_m[1] ** vec[0])
    err_zz = parity_error([float(zz.err_m[1])], [vec[0]])
    err_xx = float(zz.err_i[0])
    return LogicalBsmResult(
        protocol=protocol, b=vec, params=params,
        pr_xx=float(zz.pr_i[0]), pr_zz=pr_zz,
        pr_complete=_complete_bsm_closed(vec[0], float(zz.pr_m[1]), float(zz.pr_s[0])),
        err_xx=err_xx, err_zz=err_zz,
        err_complete=err_zz + (1.0 - err_zz) * err_xx,
    )


def static_logical_bsm(b: BranchingVectorLike, params: ChannelParams) -> LogicalBsmResult:
    """Evaluate the static protocol exactly on tree shape ``b``."""
    vec = as_branching_vector(b)
    return _logical_result(Protocol.STATIC, vec, params,
                           static_layer_recursion(vec, params, Basis.ZZ))


def dynamic_logical_bsm(b: BranchingVectorLike, params: ChannelParams) -> LogicalBsmResult:
    """Evaluate the adaptive protocol exactly on tree shape ``b``."""
    vec = as_branching_vector(b)
    return _logical_result(Protocol.DYNAMIC, vec, params, dynamic_layer_recursion(vec, params))


def logical_bsm(
    b: BranchingVectorLike, params: ChannelParams, protocol: Protocol
) -> LogicalBsmResult:
    if protocol is Protocol.STATIC:
        return static_logical_bsm(b, params)
    if protocol is Protocol.DYNAMIC:
        return dynamic_logical_bsm(b, params)
    raise ValueError(f"no closed-form evaluation for protocol {protocol}")


# ---------------------------------------------------------------------------
# Threshold finding
# ---------------------------------------------------------------------------

class UnreachableTargetError(RuntimeError):
    """The target success probability is not reached even at eta = 1."""


class ConfigurationError(ValueError):
    """The search family is empty or otherwise unusable."""


@dataclass(frozen=True)
class ThresholdResult:
    protocol: Protocol
    target: float
    eta_star: float
    bracket_low: float
    bracket_high: float
    iterations: int
    family_size: int
    witness: BranchingVector   # tree that reaches the target at bracket_high


def find_threshold(
    protocol: Protocol,
    family: Iterable[BranchingVectorLike],
    target: float = 0.99,
    tol: float = 1e-3,
    max_iter: int = 60,
) -> ThresholdResult:
    """Bisect the smallest eta at which some family member reaches ``target``.

    The predicate "max over the family of pr_complete(eta) >= target" is
    monotone in eta (success rates only improve with detection), so plain
    bisection brackets the family threshold.  Family thresholds decrease
    toward the asymptotic protocol thresholds as the family grows.  It stops
    once the bracket is no wider than ``tol`` (which must be below 1) or
    after ``max_iter`` halvings.
    """
    vectors = [as_branching_vector(v) for v in family]
    if not vectors:
        raise ConfigurationError("threshold family is empty")
    if not target > 0.0:  # also refuses NaN
        raise ConfigurationError(f"target must be positive, got {target}")
    if not tol < 1.0:
        raise ConfigurationError(f"tol must be below 1, got {tol}")
    if target >= 1.0:
        # No finite tree is fully deterministic, so certainty is never reached.
        raise UnreachableTargetError(
            f"target {target} can never be reached by a finite tree"
        )

    def best_witness(eta: float) -> BranchingVector | None:
        params = ChannelParams(eta=eta, eps=0.0)
        for vec in vectors:
            if logical_bsm(vec, params, protocol).pr_complete >= target:
                return vec
        return None

    witness = best_witness(1.0)
    if witness is None:
        raise UnreachableTargetError(
            f"no tree in the family of {len(vectors)} reaches {target} even at eta=1"
        )

    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        w = best_witness(mid)
        if w is not None:
            hi, witness = mid, w
        else:
            lo = mid
        iterations += 1

    return ThresholdResult(
        protocol=protocol, target=target,
        eta_star=0.5 * (lo + hi), bracket_low=lo, bracket_high=hi,
        iterations=iterations, family_size=len(vectors), witness=witness,
    )
