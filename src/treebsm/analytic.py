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

Both rest on one suffix walk, :func:`_suffix_walk`: the
indirect-measurement recursion evaluated from the leaves to the virtual
root, whose single node has the ``b0`` first-level pairs as children and
whose indirect entry is the logical X-parity.  The rates of a node depend
only on its suffix -- the branch counts ``(b_k, ..., b_{d-1})`` below it
-- and on (eta, eps), so the walk runs over suffix lengths ``L = 0..d``
(a node at level ``k`` of a depth-``d`` shape has the suffix of length
``d - k``, the root the whole shape) and evaluates each distinct (suffix,
eta, eps) of a batch once.  For each of them :func:`_chain_step` applies
the one recovery rule: a lost value is rebuilt from indirect chains, a
chain is an opener plus all of its children readable, and repeated chains
combine by majority vote.  The protocol alone selects the walks: the
static rules walk the pair Z-parity, the adaptive rules the single-qubit
Z and then the pair Z-parity, and the two share each chain step.  A value
rule then turns the vote into the node's rate and error:

* single-qubit Z and the static pair ZZ prefer an available vote to the
  direct readout (:func:`_prefer_indirect`);
* the adaptive pair ZZ mixes three pair classes: a complete pair prefers
  its chain vote, a partial pair prefers the single-qubit upgrade, and a
  failed pair needs the upgrade (:func:`_adaptive_value`).

Leaves (the empty suffix) have no chains below them, so their indirect
rate is 0 and the value rule reads them directly.  An exponent over the
children of a leaf is an empty product (1).

:func:`logical_bsm_batch` sorts a batch of (shape, eta, eps) rows by
(eta, eps, branch counts read from the leaf end), so rows that share a
suffix of any length are contiguous, and walks the sorted rows in chunks
and blocks of bounded memory; :func:`logical_bsm` is a batch of one.

Error rates are conditional on success.  Even-sized votes drop one result
at random, which is equivalent to voting over one fewer sample.
Conditional errors whose conditioning probability is zero are defined as
zero: those branches carry no weight.  The complete-BSM rate is read off
a shape's whole suffix and its suffix one shorter: every first-level pair
readable, minus every one readable with no chain
(:func:`_complete_bsm_closed`), and every ``1 - (1 - p)**n`` is evaluated
as ``-expm1(n * log1p(-p))``, so tiny chain rates and branch counts in the
thousands stay accurate.

The vote mix needs two special functions, and both are numpy kernels of
this module, so the engine imports nothing beyond numpy:
:func:`_log_factorial` gives ``log k!`` by the Stirling series of Cephes'
``lgam`` (the binomial weights), and :func:`_vote_tail` gives the
majority-vote tail ``P(Binom(m', e) > m'/2)`` as a sum of positive terms
built by ratio recurrences from the tail's first term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .trees import (
    BranchingVector,
    BranchingVectorLike,
    ChannelParams,
    Protocol,
    as_branching_vector,
    bsm_readout_errors,
)


# ---------------------------------------------------------------------------
# Elementary combinators
# ---------------------------------------------------------------------------

# Version of the exact engine's numerics, stamped beside the sampler's
# STREAM_VERSION on every CLI result, so a changed exact value can be traced
# to a changed engine.  2: log-factorials and vote tails from this module's
# own kernels (1 took them from scipy.special).  3: every sum runs in a
# fixed order, so a row has the same bits in any batch.
ENGINE_VERSION = 3

# The suffix walk evaluates the distinct suffixes of one length in blocks.
# A suffix counts one float per vote column (its own branch count) plus
# _LEVEL_FLOATS for its entries and their temporaries, per walk that shares
# its chain step, and a block holds at most _BLOCK floats; a suffix wider
# than that takes its vote sum in column chunks of _BLOCK.  Each temporary
# of a block is then at most 128 KB.
_BLOCK = 2**14
_LEVEL_FLOATS = 16
# Largest branch count the exact engine accepts.  Time grows with the
# branch count (the vote sum has one term per possible number of
# successful chains); a million chains per node is far beyond any
# buildable tree, and larger counts are refused before anything is allocated.
MAX_CHAINS = 10**6


def parity_error(per_slot: Sequence, counts: Sequence) -> float | np.ndarray:
    """P(odd number of errors) over independent slots.

    ``per_slot[i]`` is the error rate of each of ``counts[i]`` independent
    results whose product forms the measured parity; rates and counts may
    be arrays of rows.  The rate ``0.5 * (1 - prod (1 - 2e)**n)`` is formed
    from ``sum n * log|1 - 2e|`` and the sign of the product, with
    ``expm1`` where the product is positive, so a small parity error keeps
    its relative precision.  A slot with zero count (no grandchildren) adds
    nothing, and one with ``e = 1/2`` makes the parity a fair coin.
    """
    log_abs, negative = 0.0, False
    for e, n in zip(per_slot, counts):
        e, n = np.asarray(e, dtype=float), np.asarray(n)
        with np.errstate(divide="ignore"):  # log(0) = -inf at e = 1/2
            log_base = np.log1p(-2.0 * np.minimum(e, 1.0 - e))  # log|1 - 2e|
        term = np.zeros(np.broadcast(e, n).shape)
        log_abs = log_abs + np.multiply(n, log_base, out=term, where=n > 0)
        negative = negative ^ ((e > 0.5) & (n % 2 == 1))
    # 0 - expm1 rather than -expm1, which would give -0.0 for an error-free parity.
    return np.where(negative, 0.5 * (1.0 + np.exp(log_abs)), 0.5 * (0.0 - np.expm1(log_abs)))[()]


# log k! is exact below k = 12 and follows Stirling's series from there, as in
# Cephes' lgam (the gamma function's log behind scipy.special.gammaln): the
# series in 1/x**2 has five terms below x = k + 1 = 1000 and three from there.
_LOG_FACTORIAL_EXACT = np.log([float(math.factorial(k)) for k in range(12)])
_STIRLING_NEAR = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_STIRLING_FAR = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                 0.0833333333333333333333)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_factorial(k) -> np.ndarray:
    """``log k!`` for integers ``k``, an array like ``k``; ``+inf`` for ``k < 0``.

    From ``x = k + 1 = 13`` on, ``(x - 1/2) log x - x + log sqrt(2 pi)``
    plus Stirling's series in ``1/x**2`` over ``x``, evaluated in Cephes'
    order, so that it matches ``scipy.special.gammaln(k + 1)`` to a few ulp
    (bit for bit on most integers).  A negative ``k`` gives ``+inf``: the
    factorial has a pole there, so a binomial coefficient ``C(n, m)`` with
    ``m > n`` comes out as ``exp(-inf) = 0``.
    """
    k = np.asarray(k)
    x = np.maximum(k, 0) + 1.0
    inv_x2 = 1.0 / (x * x)
    near = far = 0.0
    for c in _STIRLING_NEAR:
        near = near * inv_x2 + c
    for c in _STIRLING_FAR:
        far = far * inv_x2 + c
    series = (x - 0.5) * np.log(x) - x + _LOG_SQRT_2PI + np.where(x < 1000.0, near, far) / x
    out = np.where(x < 13.0, _LOG_FACTORIAL_EXACT[np.minimum(np.maximum(k, 0), 11)], series)
    return np.where(k < 0, np.inf, out)


# log k! for -_BLOCK <= k < _BLOCK, indexed by k itself: a negative k wraps
# around to the upper half, which holds the +inf of a negative factorial.
_LOG_FACTORIALS = _log_factorial(np.r_[0:_BLOCK, -_BLOCK:0])

# C(2k, k) / 4**k, exact up to _CENTRAL_EXACT; above it the asymptotic
# series sqrt(pi k)**-1 * (1 - 1/(8k) + ...), whose first omitted term is
# below 1e-17 there.
_CENTRAL_EXACT = 128
_CENTRAL = np.array([math.comb(2 * k, k) / 4**k for k in range(_CENTRAL_EXACT + 1)])
_CENTRAL_SERIES = (1.0, -1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144, 869 / 4194304)


def _central_binomial(k, k_top: int):
    """``C(2k, k) / 4**k`` for integers ``0 <= k <= k_top``, an array like ``k``."""
    if k_top <= _CENTRAL_EXACT:
        return _CENTRAL[k]
    series = 0.0
    for c in _CENTRAL_SERIES[::-1]:
        series = series / k + c
    return np.where(k > _CENTRAL_EXACT, series / np.sqrt(np.pi * k),
                    _CENTRAL[np.minimum(k, _CENTRAL_EXACT)])


def _tail_window(k: int, f: float) -> int:
    """How many terms after the first the vote tail sums, for ``k`` and ``f`` at their largest.

    A term is at most ``(f/q)**j`` and ``exp(-j**2 / 2k)`` times the first,
    and the window ends where either bound is below ``exp(-45)``, after at
    least one term.  ``log(q/f)`` is taken as ``log1p(-f) - log(f)``, which
    stays finite for a subnormal ``f``.
    """
    width = min(k, math.ceil(math.sqrt(90 * k)))
    if 0.0 < f < 0.5:
        width = min(width, math.ceil(45 / (math.log1p(-f) - math.log(f))))
    return max(width, 1)


def _vote_tail(m, e):
    """P(Binom(m', e) > m'/2), where m' is ``m`` rounded down to odd; ``m >= 1`` may be an array.

    With ``m' = 2k - 1``, ``f = min(e, 1 - e)`` and ``q = 1 - f``, the
    first tail term is ``C(2k, k) / 4**k * (4 f q)**k / (2q)``, and each
    further term is the one before times ``(k - 1 - j) / (k + 1 + j) * f / q``.
    Those ratios are below 1, so the sum stops after a window of terms
    (:func:`_tail_window`).  Every step is a product of positive numbers,
    and ``log(4 f q)`` is taken as ``log1p(-(1 - 2f)**2)`` from ``f = 1/4``
    on, so a tail far below 1 keeps its relative precision.  For
    ``e > 1/2`` the tail is the complement of the tail at ``1 - e``.  The
    window is summed in index order from the first term's 1, so a row's
    sum does not depend on the rows beside it: a wider window adds only
    terms below ``exp(-45)`` of its 1, which round away.
    """
    m, e = np.asarray(m), np.asarray(e, dtype=float)
    k = (m + 1) >> 1
    f = np.minimum(e, 1.0 - e)
    q = 1.0 - f
    k_top, f_top = int(k.max()), float(f.max())
    with np.errstate(divide="ignore"):  # f = 0: no tail
        log_4fq = np.log(4.0 * f * q)
        if f_top >= 0.25:
            log_4fq = np.where(f < 0.25, log_4fq, np.log1p(-np.square(q - f)))
    first = _central_binomial(k, k_top) * np.exp(k * log_4fq) / (2.0 * q)
    j = np.arange(float(_tail_window(k_top, f_top)))[:, None]
    ratios = (k - 1.0 - j) / (k + 1.0 + j) * (f / q)
    terms = np.cumprod(ratios, axis=0)
    terms[0] += 1.0
    tail = first * np.cumsum(terms, axis=0)[-1].reshape(np.shape(first))
    if e.max() > 0.5:
        tail = np.where(e > 0.5, 1.0 - tail, tail)
    return tail[()]


def _vote_error_mix(n_chains: np.ndarray, p_chain: np.ndarray, e_chain: np.ndarray) -> np.ndarray:
    """Majority-vote error averaged over how many of ``n_chains`` succeeded, per row.

    Conditional on at least one success: the binomial weights ``w_m`` of
    1..n successes are formed in log space relative to the weight at the
    mode, the largest one, which avoids both overflowing coefficients and
    the cancellation in ``1 - (1 - p)**n`` at tiny chain rates.  The vote
    tail falls by ``(1 - 2e) C(2j+1, j) (e(1-e))**(j+1)`` from ``m = 2j+2``
    to ``2j+3``, so with ``W_i = w_1 + ... + w_i``::

        sum_m w_m tail(m) = tail(n) W_n + sum_{i<n} W_i (tail(i) - tail(i+1))

    which needs one vote tail per row (:func:`_vote_tail`) and sums terms
    of one sign.  0 where no chain can succeed or no chain errs.  The sums
    run over column chunks of at most ``_BLOCK`` row-times-column
    elements, so a wide row costs time, not memory.  Each chunk's sums
    start from the totals carried into its first entry, so they run in
    order of ``m`` whatever the chunk width, and a row's columns past its
    own ``n`` add exact zeros: a row has the same sums, bit for bit, in
    any batch.  Log-factorials come from
    ``_LOG_FACTORIALS`` while every count fits it, and are computed chunk
    by chunk for a wider row.
    """
    out = np.zeros(len(n_chains))
    live = (n_chains > 0) & (p_chain > 0.0) & (e_chain > 0.0)
    if not live.any():
        return out
    n, p, e = n_chains[live], p_chain[live], e_chain[live]
    top = int(n.max()) + 1
    log_factorial = _LOG_FACTORIALS.take if top < _BLOCK else _log_factorial
    log_p = np.log(p)
    with np.errstate(divide="ignore"):
        # p = 1: no chain fails.  A finite stand-in for log 0 keeps 0 failures at weight 1.
        log_q = np.maximum(np.log1p(-p), -1e300)
        # A chain that always errs (e = 1): the tail never falls.
        log_ee = np.log(e * (1.0 - e))
    lf_n = log_factorial(n)
    mode = np.minimum(np.maximum(((n + 1) * p).astype(n.dtype), 1), n)  # floor((n + 1) p)
    log_mode = (lf_n - log_factorial(mode) - log_factorial(n - mode)
                + mode * log_p + (n - mode) * log_q)
    weight = drop = 0.0
    step = max(2, _BLOCK // len(n)) // 2 * 2  # even, so chunks start at odd m
    for lo in range(1, top, step):
        m = np.arange(lo, lo + min(step, top - lo + 1) // 2 * 2)[:, None]
        lf_m = log_factorial(m)
        rest = n - m  # negative past n, where log_factorial is +inf and the weight 0
        log_w = lf_n - lf_m - log_factorial(rest) + m * log_p + rest * log_q
        w = np.exp(log_w - log_mode)
        w[0] += weight  # carried in first, so the sum runs in order of m across chunks
        cum_w = np.cumsum(w, axis=0)
        weight = cum_w[-1]
        # The even counts i = 2j + 2, where C(2j+1, j) = (i-1)! / ((i/2 - 1)! (i/2)!).
        half = m[1::2] // 2  # j + 1
        log_fall = lf_m[0::2] - log_factorial(half - 1) - log_factorial(half)
        fall = np.exp(log_fall + half * log_ee) * (rest[1::2] > 0) * cum_w[1::2]
        fall[0] += drop
        drop = np.cumsum(fall, axis=0)[-1]
    out[live] = _vote_tail(n, e) + (1.0 - 2.0 * e) * drop / weight
    return out


def _chain_step(
    n_chains: np.ndarray, n_grand: np.ndarray, opener: tuple, grand: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The recovery rule for one node per row: ``(pr_s, err_s, pr_i, err_i)``.

    Each of ``n_chains`` children opens a chain (success and error rates
    ``opener``) that needs all ``n_grand`` of its own children readable
    (rates ``grand``).  A chain errs on the odd parity of its opener and
    grandchild results; the successful chains vote by majority.  A row
    with no chains (a leaf) has zero rates.
    """
    has_chains = n_chains > 0
    pr_s = np.where(has_chains, opener[0] * grand[0] ** n_grand, 0.0)
    err_s = np.where(has_chains, parity_error([opener[1], grand[1]], [1, n_grand]), 0.0)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a sure chain
        pr_i = -np.expm1(n_chains * np.log1p(-np.minimum(pr_s, 1.0)))
    return pr_s, err_s, pr_i, _vote_error_mix(n_chains, pr_s, err_s)


def _prefer_indirect(pr_i, err_i, pr_d, err_d) -> tuple[np.ndarray, np.ndarray]:
    """Rate and conditional error of a value read indirectly when possible, else directly."""
    pr_m = pr_d + (1.0 - pr_d) * pr_i
    got = pr_m > 0.0
    w_ind = np.divide(pr_i, pr_m, out=np.zeros_like(pr_m), where=got)
    return pr_m, np.where(got, w_ind * err_i + (1.0 - w_ind) * err_d, 0.0)


# ---------------------------------------------------------------------------
# The suffix walk
# ---------------------------------------------------------------------------

def _adaptive_value(pr_i, err_i, pr_iz, err_iz, eta2, err_dzz) -> tuple[np.ndarray, np.ndarray]:
    """Rate and conditional error of the pair Z-parity under the adaptive rules.

    A pair with no direct readout is upgraded by two independent
    single-qubit indirect measurements, one per tree, whose rates
    ``pr_iz`` and ``err_iz`` the single-qubit Z walk gives at the same
    suffix: ``pr_u = pr_iz**2``, erring with ``2 e (1 - e)``.  Per-pair
    Z-parity::

        pr_m = eta^2 + (1 - eta^2) * pr_u

    -- a complete or partial BSM reads it directly, a failed one needs the
    upgrade.  Below a complete pair, a chain opens with a complete child
    BSM (eta^2/2) and needs the Z-parity of every grandchild pair; given
    chain success the grandchild classes are iid, so ``err_m`` is the class
    mixture: complete (eta^2/2, prefers its chain vote ``pr_i``, ``err_i``),
    partial (eta^2/2, prefers the upgrade) and failed (1 - eta^2, upgrade
    only).
    """
    pr_u, err_u = pr_iz**2, 2.0 * err_iz - 2.0 * err_iz**2
    err_c = _prefer_indirect(pr_i, err_i, 1.0, err_dzz)[1]
    err_p = _prefer_indirect(pr_u, err_u, 1.0, err_dzz)[1]
    pr_f, err_f = _prefer_indirect(pr_u, err_u, 0.0, 0.0)
    pr_m = eta2 + (1.0 - eta2) * pr_f
    err = 0.5 * eta2 * (err_c + err_p) + (1.0 - eta2) * pr_f * err_f
    return pr_m, np.divide(err, pr_m, out=np.zeros_like(pr_m), where=pr_m > 0.0)


def _entries(protocol: Protocol, channel: np.ndarray, n_chains: np.ndarray,
             n_grand: np.ndarray, grand: np.ndarray) -> np.ndarray:
    """Entries ``(6, walks, keys)`` of a block of distinct keys.

    The rows are ``pr_s`` (one specific chain through one child succeeds),
    ``pr_i`` (at least one chain succeeds), ``pr_m`` (the value is
    obtained) and their conditional errors ``err_s``, ``err_i``, ``err_m``.
    ``channel`` holds the rows eta, eps, eta^2, err_dzz and err_dxx of the
    keys.  ``STATIC`` walks the pair Z-parity; ``DYNAMIC`` walks the
    single-qubit Z, whose vote the adaptive value reads
    (:func:`_adaptive_value`), then the pair Z-parity, in one chain step.
    A suffix opens ``n_chains`` chains (none at a leaf), each through the
    ``n_grand`` values of the suffix two shorter, whose ``pr_m`` and
    ``err_m`` per walk are ``grand``::

        pr_s = pr_opener * pr_m[grand]**n_grand    (empty product if n_grand == 0)
        pr_i = 1 - (1 - pr_s)**n_chains            (0 at a leaf)

    A single-qubit chain opens with eta (erring with eps), a pair chain
    with the X-parity of a complete BSM (eta^2/2).  The value rule turns
    the vote into ``(pr_m, err_m)``; the static pair and the single-qubit
    Z prefer an available vote to the direct readout (eta^2, eta).
    """
    eta, eps, eta2, err_dzz, err_dxx = channel
    table = np.zeros((6, *grand.shape[1:]))  # as many walks as ``grand`` holds
    pr_s, pr_i, pr_m, err_s, err_i, err_m = table
    if n_chains.any():  # a block of leaves opens no chains: its rates stay 0
        opener = (0.5 * eta2, err_dxx)
        if protocol is Protocol.DYNAMIC:  # the Z walk, then the pair walk
            opener = tuple(map(np.concatenate, zip((eta, eps), opener)))
            n_chains, n_grand = np.concatenate([n_chains] * 2), np.concatenate([n_grand] * 2)
        steps = _chain_step(n_chains, n_grand, opener, grand.reshape(2, -1))
        for row, values in zip((pr_s, err_s, pr_i, err_i), steps):
            row[:] = values.reshape(row.shape)
    direct = (eta2, err_dzz) if protocol is Protocol.STATIC else (eta, eps)  # walk 0's readout
    pr_m[0], err_m[0] = _prefer_indirect(pr_i[0], err_i[0], *direct)
    if protocol is Protocol.DYNAMIC:
        pr_m[1], err_m[1] = _adaptive_value(pr_i[1], err_i[1], pr_i[0], err_i[0], eta2, err_dzz)
    return table


def _suffix_walk(
    protocol: Protocol, branches: np.ndarray, channel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Entries of every distinct (suffix, eta, eps) of a chunk of sorted rows: ``(table, key)``.

    ``branches`` is laid out by :func:`_branch_array` and ``channel`` holds
    the rows of :func:`_channel_rows`, one column per row.  ``table`` is
    ``(6, walks, keys + 1)``, the walks of ``protocol`` as in :func:`_entries`,
    the pair walk last: the entries of each distinct key,
    ordered by suffix length, then one column of the empty product (pr_m 1,
    err_m 0) that a suffix of length 1 reads for its grandchildren.
    ``key[L, r]`` is the column of row ``r``'s suffix of length ``L``, for
    ``L`` up to the row's depth.  Rows that share a key are contiguous, so
    a key starts where a row differs from the one before it in eta, eps
    (bit for bit) or its first ``L`` branch counts, and it is evaluated
    once, from its first row, in :func:`_blocks` sized by its own branch
    count.  A suffix reads only the suffixes two shorter, so after the
    leaves the walk takes two lengths per step.
    """
    depth, rows = branches.shape
    walks = 2 if protocol is Protocol.DYNAMIC else 1
    counts = np.zeros((depth + 1, rows), dtype=branches.dtype)  # 0 chains at length 0
    counts[1:] = branches
    new = np.zeros((depth + 1, rows), dtype=bool)  # the row starts a key
    new[:, 0] = True
    new[:, 1:] = counts[:, 1:] != counts[:, :-1]
    for point in channel[:2].view(np.int64):
        new[:, 1:] |= point[1:] != point[:-1]
    np.logical_or.accumulate(new, axis=0, out=new)
    new[1:] &= branches > 0  # a shorter row has no such suffix
    key = new.cumsum().reshape(new.shape) - 1  # length by length, so keys come sorted by length
    length, first = new.nonzero()
    n_chains, n_grand = counts[length, first], counts[np.maximum(length - 1, 0), first]
    grand = np.where(length > 1, key[length - 2, first], -1)
    table = np.empty((6, walks, len(first) + 1))
    table[2, :, -1], table[5, :, -1] = 1.0, 0.0
    edges = length.searchsorted([0, *range(1, depth + 2, 2)])
    for lo, hi in zip(edges, [*edges[1:], len(first)]):
        for block in _blocks(walks * (n_chains[lo:hi] + _LEVEL_FLOATS)):
            keys = lo + block
            table[..., keys] = _entries(protocol, channel[:, first[keys]], n_chains[keys],
                                        n_grand[keys], table[2::3][..., grand[keys]])
    return table, key


def _channel_rows(eta: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """``(5, rows)``: eta, eps, eta^2, err_dzz and err_dxx of checked eta and eps."""
    return np.stack((eta, eps, eta**2, *bsm_readout_errors(eps)))


def _branch_array(shapes: Iterable[BranchingVectorLike] | np.ndarray) -> np.ndarray:
    """``(depth, rows)`` branch counts read from the leaf end, shallower rows padded with zeros.

    ``shapes`` is a ``(rows, depth)`` integer table, one shape per row
    zero-padded at the leaf end, or shapes that are first padded into one.
    Column ``i`` of the result holds ``b[d - 1], ..., b[0], 0, ...`` for row
    ``i`` of depth ``d``, so its first ``L`` entries are the row's suffix of
    length ``L``.
    """
    if not isinstance(shapes, np.ndarray):
        rows = [as_branching_vector(s).branches for s in shapes]
        _check_widest(max(map(max, rows), default=1))  # before any count meets a fixed width
        shapes = np.zeros((len(rows), max(map(len, rows), default=1)), dtype=np.int32)
        for k, level in enumerate(shapes.T):
            level[:] = [r[k] if k < len(r) else 0 for r in rows]
    if shapes.ndim != 2 or shapes.dtype.kind not in "iu":
        raise ValueError(f"a shape table is a 2-D integer array, got {shapes.ndim}-D {shapes.dtype}")
    pad = shapes == 0
    if len(shapes) and (shapes.shape[1] == 0 or pad[:, 0].any() or (shapes < 0).any()
                        or (pad[:, :-1] > pad[:, 1:]).any()):
        raise ValueError("every row of a shape table needs branch counts >= 1, "
                         "then only zeros as padding")
    _check_widest(int(shapes.max(initial=1)))
    depth = shapes.shape[1] - np.count_nonzero(pad, axis=1)
    branches = np.zeros((max(int(depth.max(initial=1)), 1), len(shapes)), dtype=np.int32)
    cols = np.arange(len(shapes))
    for k, level in enumerate(branches):  # level k: the count k levels above each leaf
        level[:] = np.where(depth > k, shapes[cols, np.maximum(depth - 1 - k, 0)], 0)
    return branches


def _check_widest(widest: int) -> None:
    """Refuse a branch count above :data:`MAX_CHAINS` with a ``ValueError``."""
    if widest > MAX_CHAINS:
        raise ValueError(f"branch count {widest} is above the cap of {MAX_CHAINS}")


def _blocks(width: np.ndarray) -> Iterator[np.ndarray]:
    """Indices in blocks whose count times widest ``width`` stays within ``_BLOCK``.

    Entries are taken in order of width, widest first, so narrow entries
    share large blocks and a few wide ones do not shrink every block.
    """
    order = width.argsort(kind="stable")
    stop = len(order)
    while stop > 0:
        start = max(0, stop - max(1, _BLOCK // int(width[order[stop - 1]])))
        yield order[start:stop]
        stop = start


# ---------------------------------------------------------------------------
# Logical rates
# ---------------------------------------------------------------------------

class BsmRates(NamedTuple):
    """Logical-level rates of one protocol: arrays with one entry per row of a batch
    (:func:`logical_bsm_batch`), or floats for one shape (:func:`logical_bsm`)."""

    pr_xx: np.ndarray
    pr_zz: np.ndarray
    pr_complete: np.ndarray
    err_xx: np.ndarray
    err_zz: np.ndarray
    err_complete: np.ndarray


def _complete_bsm_closed(b0, m1, s0):
    """Complete-BSM rate at the virtual root, in closed form by the multinomial theorem.

    Each of the ``b0`` first-level pairs is readable with rate ``m1`` and
    carries a chain with rate ``s0`` (a chain implies readable), so a
    complete BSM -- every pair readable, at least one chain -- has rate
    ``m1**b0 - (m1 - s0)**b0``, evaluated here per row without the
    cancellation of that difference.  ``complete_bsm_sum`` in
    ``tests/reference_exact.py`` sums the same event over the first-level
    outcome counts; the tests check this form against it.
    """
    got = m1 > 0.0
    ratio = np.divide(s0, m1, out=np.zeros_like(m1), where=got)
    return np.where(got, m1**b0 * -np.expm1(b0 * np.log1p(-ratio)), 0.0)


# A batch is walked in chunks of at most _CHUNK rows of its sorted order.
# A chunk holds the entries of its distinct suffixes, at most one per row
# and suffix length of up to 12 floats each, and the column of each row at
# each length: about 300 KB per suffix length, however long the batch is.
_CHUNK = 2**11


def _chunks(order: np.ndarray, eta: np.ndarray, eps: np.ndarray, leaf: np.ndarray
            ) -> Iterator[np.ndarray]:
    """The sorted rows ``order`` in chunks of at most ``_CHUNK`` rows.

    A chunk ends where a suffix of length 1 -- (eta, eps, leaf branch
    count) -- starts, if one starts within it, so that no suffix is split
    between two chunks, and evaluated twice, unless one spans a chunk.
    """
    lo = 0
    while lo < len(order):
        hi = min(lo + _CHUNK, len(order))
        if hi < len(order):
            here, after = order[lo:hi], order[lo + 1:hi + 1]
            starts = np.any([key[after] != key[here] for key in
                             (eta.view(np.int64), eps.view(np.int64), leaf)], axis=0).nonzero()[0]
            hi = lo + 1 + starts[-1] if len(starts) else hi
        yield order[lo:hi]
        lo = hi


def _chunk_rates(protocol: Protocol, branches: np.ndarray, channel: np.ndarray) -> tuple:
    """Logical rates of a chunk of sorted rows at the virtual root, in :class:`BsmRates` order.

    The root vote is the logical X-parity and the ``b0`` first-level values
    form the logical Z-parity; a complete BSM needs every first-level pair
    readable and at least one first-level chain.
    """
    table, key = _suffix_walk(protocol, branches, channel)
    table, depth = table[:, -1], np.count_nonzero(branches, axis=0)  # the pair walk
    cols = np.arange(len(depth))
    # Per row: pr_m and err_m of the first-level pairs, its suffix one shorter;
    # pr_s, pr_i and err_i of the pair Z-parity at the root, its whole shape.
    b0 = branches[depth - 1, cols]
    m1, err_m1 = table[2::3][:, key[depth - 1, cols]]
    pr_s, pr_i, err_xx = table[[0, 1, 4]][:, key[depth, cols]]
    err_zz = parity_error([err_m1], [b0])
    return (pr_i, m1**b0, _complete_bsm_closed(b0, m1, pr_s),
            err_xx, err_zz, err_zz + (1.0 - err_zz) * err_xx)


def logical_bsm_batch(
    shapes: Iterable[BranchingVectorLike] | np.ndarray, eta, eps, protocol: Protocol | str
) -> BsmRates:
    """Evaluate ``protocol`` exactly on every row of a batch of (shape, eta, eps).

    ``shapes`` is an iterable of shapes, or a ``(rows, depth)`` integer
    table with one shape per row, its branch counts zero-padded at the leaf
    end (what ``search.evaluate_all`` passes); an iterable is first padded
    into such a table, and either form is checked once, by
    :func:`_branch_array`.  ``eta`` and ``eps`` are scalars or sequences
    broadcast to one value per shape.  The rows are sorted once by (eta,
    eps, branch counts read from the leaf end), so rows that share a suffix
    of any length at the same point are contiguous, and the suffix walk
    evaluates each distinct (suffix, eta, eps) once; shapes of different
    depths may share a batch.
    The sorted rows go through the walk in chunks of ``_CHUNK`` rows and
    blocks of at most ``_BLOCK`` floats (see there), so memory does not
    grow with the batch beyond the returned arrays, the branch array and
    the sort order.  Branch counts above ``MAX_CHAINS`` are refused with a
    ``ValueError`` before anything is allocated.  ``protocol`` is a
    :class:`Protocol` or its value.
    """
    protocol = Protocol(protocol)
    if protocol not in (Protocol.STATIC, Protocol.DYNAMIC):
        raise ValueError(f"no closed-form evaluation for protocol {protocol.value!r}")
    branches = _branch_array(shapes)
    rows = branches.shape[1]
    eta, eps = (np.broadcast_to(np.asarray(v, dtype=float), (rows,)) for v in (eta, eps))
    ChannelParams(eta, eps)  # refuses a value outside [0, 1] before any work
    out = np.empty((6, rows))
    order = np.lexsort((*branches[::-1], eps, eta)).astype(np.int32)  # 4 bytes per row
    for chunk in _chunks(order, eta, eps, branches[0]):
        out[:, chunk] = _chunk_rates(protocol, branches[:, chunk],
                                     _channel_rows(eta[chunk], eps[chunk]))
    return BsmRates(*out)


def logical_bsm(b: BranchingVectorLike, params: ChannelParams, protocol: Protocol | str) -> BsmRates:
    """Evaluate ``protocol`` exactly on tree shape ``b``: a batch of one, as floats."""
    rates = logical_bsm_batch([b], params.eta, params.eps, protocol)
    return BsmRates(*(float(r[0]) for r in rates))


# ---------------------------------------------------------------------------
# Threshold finding
# ---------------------------------------------------------------------------

# Most halvings find_threshold takes: 60 halve the unit bracket below 1e-18.
_MAX_HALVINGS = 60


class UnreachableTargetError(RuntimeError):
    """The target success probability is not reached even at eta = 1."""


class ConfigurationError(ValueError):
    """The search family is empty or otherwise unusable."""


@dataclass(frozen=True)
class ThresholdResult:
    eta_star: float
    bracket_low: float
    bracket_high: float
    iterations: int
    family_size: int
    witness: BranchingVector   # tree that reaches the target at bracket_high


def find_threshold(
    protocol: Protocol | str,
    family: Iterable[BranchingVectorLike],
    target: float = 0.99,
    tol: float = 1e-3,
) -> ThresholdResult:
    """Bisect the smallest eta at which some family member reaches ``target``.

    The predicate "max over the family of pr_complete(eta) >= target" is
    monotone in eta (success rates only improve with detection), so plain
    bisection brackets the family threshold.  Family thresholds decrease
    toward the asymptotic protocol thresholds as the family grows.  It stops
    once the bracket is no wider than ``tol`` (which must be below 1) or
    after :data:`_MAX_HALVINGS` halvings.
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
        hits = logical_bsm_batch(vectors, eta, 0.0, protocol).pr_complete >= target
        return vectors[int(hits.argmax())] if hits.any() else None

    witness = best_witness(1.0)
    if witness is None:
        raise UnreachableTargetError(
            f"no tree in the family of {len(vectors)} reaches {target} even at eta=1"
        )

    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > tol and iterations < _MAX_HALVINGS:
        mid = 0.5 * (lo + hi)
        w = best_witness(mid)
        if w is not None:
            hi, witness = mid, w
        else:
            lo = mid
        iterations += 1

    return ThresholdResult(
        eta_star=0.5 * (lo + hi), bracket_low=lo, bracket_high=hi,
        iterations=iterations, family_size=len(vectors), witness=witness,
    )
