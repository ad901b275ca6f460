"""Sampling oracle for the logical BSM protocols.

Draws complete worlds (per-photon loss flags, per-photon Pauli faults, one
completeness coin per photon pair) and runs the protocol decision
procedures directly on the tree, independently of the closed-form
recursions.  A world is drawn once per sample and every branch of the
decision procedure reads the same world; distinct recovery attempts use
disjoint photons, which is what makes the product/independence structure
of the exact recursions hold sample-by-sample.

The sampler functions take the tree's :class:`~treebsm.trees.BranchingVector`.
A world holds one (samples, level size) array per level, viewed as
(samples, parent nodes, b_k) to reach each node's children.

Every protocol applies one recovery rule, coded once in :func:`_recover`
and walked from the leaves (level d) to the virtual root (level 0): a lost
value is rebuilt from indirect chains, a chain is an opener plus all of
its children readable, repeated chains combine by majority vote (an even
vote drops one member at random), and an available vote beats the direct
readout.  The virtual root is one node whose children are the first-level
pairs; its chain is the logical Z-parity and its vote the logical
X-parity.  The protocols differ only in the level inputs they supply.
Error tallies follow the world: an evaluator counts logical errors exactly
when the world carries faults (``draw_world`` draws them when eps > 0), and
reports all-False error flags otherwise.

A two-photon BSM's Z-parity readout flips when the pair's combined fault
has an odd number of X/Y letters; the X-parity readout is corrupted
whenever either parity flips, since the X readout is decoded assuming the
Z parity.

Streams come from counter-based Philox generators keyed by
``(seed, worker_index)``.  Workers run at the same time, on at most one
thread per CPU this process may use (numpy releases the interpreter lock
in its draws and array operations); totals are order-independent sums, so
results are bit-identical for a fixed (seed, config, worker count)
whatever the thread count.  Each worker keeps one chunk's world alive at a
time, and a configuration whose chunk would not fit in
:data:`MAX_CHUNK_BYTES` is refused before anything is drawn.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .analytic import Protocol
from .trees import (
    BranchingVector,
    BranchingVectorLike,
    ChannelParams,
    as_branching_vector,
    photon_count,
)

# Samples per world.  Part of the stream contract: a world draws each plane
# for all of its samples at once, so another chunk size gives other counters.
# It is also the unit of memory, since each worker holds one world at a time.
_CHUNK = 8192

# Refuse a configuration whose chunk (world plus draw buffer) would need more
# bytes than this; like trees.DEFAULT_VERTEX_CAP, it stops towers of 10^8
# photons per side from being attempted.
MAX_CHUNK_BYTES = 2 * 10**9


class UnsupportedConfigurationError(ValueError):
    """Configuration outside a protocol's supported envelope."""


# ---------------------------------------------------------------------------
# Config and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleConfig:
    b: tuple[int, ...]
    eta: float
    eps: float
    protocol: Protocol
    n_samples: int
    seed: int
    n_workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(as_branching_vector(self.b)))
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.n_workers < 1:
            raise ValueError("need at least one worker")

    @property
    def params(self) -> ChannelParams:
        return ChannelParams(eta=self.eta, eps=self.eps)


@dataclass
class McEstimate:
    """Sampled rates; the logical error is composed from its two parities.

    The headline ``error_rate`` combines the Z-parity and X-parity error
    rates as ``e_zz + (1 - e_zz) * e_xx``, the same functional the exact
    engine reports, so the two are directly comparable.  The per-sample
    joint rate P(either parity wrong) is kept in the counters: it runs
    slightly below the composition on small trees because one physical
    pair can corrupt both parities at once.
    """

    config: SampleConfig
    n_samples: int
    n_success: int
    n_zz_error: int
    n_xx_error: int
    n_joint_error: int
    wall_time_s: float
    world_bytes: int  # the largest chunk world, in bytes

    @property
    def success(self) -> float:
        return self.n_success / self.n_samples

    @property
    def samples_per_s(self) -> float:
        return self.n_samples / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def success_stderr(self) -> float:
        p = self.success
        return math.sqrt(p * (1.0 - p) / self.n_samples)

    @property
    def zz_error_rate(self) -> float:
        return self.n_zz_error / self.n_success if self.n_success else 0.0

    @property
    def xx_error_rate(self) -> float:
        return self.n_xx_error / self.n_success if self.n_success else 0.0

    @property
    def error_rate(self) -> float:
        ezz, exx = self.zz_error_rate, self.xx_error_rate
        return ezz + (1.0 - ezz) * exx

    @property
    def error_stderr(self) -> float:
        """Delta-method standard error of the composed error rate."""
        n = self.n_success
        if not n:
            return 0.0
        u, v = self.zz_error_rate, self.xx_error_rate
        var_u = u * (1.0 - u) / n
        var_v = v * (1.0 - v) / n
        joint = self.n_joint_error / n
        both = u + v - joint  # P(zz wrong and xx wrong)
        cov = (both - u * v) / n
        var = (1 - v) ** 2 * var_u + (1 - u) ** 2 * var_v + 2 * (1 - v) * (1 - u) * cov
        return math.sqrt(max(var, 0.0))

    def to_dict(self) -> dict:
        return {
            "config": {
                "b": ",".join(map(str, self.config.b)),
                "eta": self.config.eta,
                "eps": self.config.eps,
                "protocol": self.config.protocol.value,
                "n_samples": self.config.n_samples,
                "seed": self.config.seed,
                "n_workers": self.config.n_workers,
            },
            "success": self.success,
            "success_stderr": self.success_stderr,
            "error_rate": self.error_rate,
            "error_stderr": self.error_stderr,
            "zz_error_rate": self.zz_error_rate,
            "xx_error_rate": self.xx_error_rate,
            "counters": {
                "n": self.n_samples,
                "success": self.n_success,
                "zz_error": self.n_zz_error,
                "xx_error": self.n_xx_error,
                "joint_error": self.n_joint_error,
            },
            "wall_time_s": self.wall_time_s,
            "samples_per_s": self.samples_per_s,
            "world_bytes": self.world_bytes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def z_score(estimate: float, reference: float, n: int) -> float:
    """Deviation of a sampled rate from its reference, in reference sigmas.

    The null-hypothesis sigma ``sqrt(p (1 - p) / n)`` stays well defined
    when the sample saw no events at all.
    """
    sigma = math.sqrt(reference * (1.0 - reference) / n) if n else 0.0
    if sigma == 0.0:
        return 0.0 if estimate == reference else math.inf
    return (estimate - reference) / sigma


# ---------------------------------------------------------------------------
# Level arrays and the world container
# ---------------------------------------------------------------------------

def _group(arr: np.ndarray, bk: int) -> np.ndarray:
    """View a level-(k+1) array as (samples, level-k nodes, b_k)."""
    return arr.reshape(arr.shape[0], -1, bk)


def chunk_bytes(vec: BranchingVector, n: int, want_errors: bool) -> int:
    """Bytes of one ``n``-sample world plus the uniform buffer it is drawn through.

    One byte per photon and sample for each plane (loss on both sides and
    the coin; with errors also both sides' faults and the three tie
    planes), one tie byte per sample at the virtual root, and 8 bytes per
    sample for the widest level's float64 uniforms (the leaves).
    """
    planes = 8 if want_errors else 3
    leaves = len(vec.level_vertices(vec.depth))
    return n * (planes * (photon_count(vec) - 1) + int(want_errors) + 8 * leaves)


@dataclass
class World:
    """One batch of sampled worlds, as per-level arrays of shape (N, s_k).

    Loss flags, coins and tie-breaks are bool (a tie plane is True where an
    even vote drops a wrong member); faults are uint8 Pauli codes.  Level 0
    is the virtual root: it holds only the pair tie-break of the logical
    X-parity vote, an (N, 1) plane, and None in every other list.
    """

    det_a: list[np.ndarray]
    det_b: list[np.ndarray]
    coin: list[np.ndarray]
    fault_a: list[np.ndarray] | None = None
    fault_b: list[np.ndarray] | None = None
    tie_pair: list[np.ndarray] | None = None
    tie_side_a: list[np.ndarray] | None = None
    tie_side_b: list[np.ndarray] | None = None

    @property
    def nbytes(self) -> int:
        total = 0
        for f in fields(self):
            value = getattr(self, f.name)
            arrays = value if isinstance(value, list) else [value]
            total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        return total


def _faults(u: np.ndarray, eps_d: float) -> np.ndarray:
    """Per-photon Pauli fault (0 none, 1 X, 2 Y, 3 Z) of total rate ``eps_d`` from uniforms."""
    f = np.zeros(u.shape, dtype=np.uint8)
    hit = u < eps_d
    # Uniform over X, Y, Z given a fault.
    f[hit] = 1 + np.minimum((3.0 * u[hit] / eps_d).astype(np.uint8), 2)
    return f


def draw_world(
    vec: BranchingVector, params: ChannelParams, n: int, rng: np.random.Generator
) -> World:
    """Sample a world batch; the draw order here is part of the stream contract.

    Every plane is one ``rng.random`` fill of (n, s_k) uniforms, thresholded,
    through one buffer sized for the widest level, the leaves.
    """
    d = vec.depth
    buf = np.empty(n * len(vec.level_vertices(d)))

    def uniform(s: int) -> np.ndarray:
        u = buf[:n * s].reshape(n, s)
        rng.random(out=u)
        return u

    def per_level(decode: Callable[[np.ndarray], np.ndarray]) -> list[np.ndarray]:
        return [None] + [decode(uniform(len(vec.level_vertices(k)))) for k in range(1, d + 1)]

    det_a = per_level(lambda u: u < params.eta)
    det_b = per_level(lambda u: u < params.eta)
    coin = per_level(lambda u: u < 0.5)
    world = World(det_a=det_a, det_b=det_b, coin=coin)

    if params.eps > 0.0:
        world.fault_a = per_level(lambda u: _faults(u, params.eps_d))
        world.fault_b = per_level(lambda u: _faults(u, params.eps_d))
        world.tie_pair = per_level(lambda u: u < 0.5)
        world.tie_side_a = per_level(lambda u: u < 0.5)
        world.tie_side_b = per_level(lambda u: u < 0.5)
        world.tie_pair[0] = uniform(1) < 0.5
    return world


# A fault flips a single-qubit Z readout when it has an X letter (X or Y),
# and an X readout when it has a Z letter (Y or Z).
_Z_FLIP = np.array([False, True, True, False])
_X_FLIP = np.array([False, False, True, True])


def _pair_flips(fa: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z-parity flip and X-readout error of two-photon BSMs with faults fa, fb.

    The X readout is decoded assuming the Z parity, so it is wrong whenever
    either parity flips.
    """
    zz = _Z_FLIP[fa] ^ _Z_FLIP[fb]
    return zz, zz | (_X_FLIP[fa] ^ _X_FLIP[fb])


def _majority_wrong(wrong: np.ndarray, total: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Vote failure with random drop on even ties; False where total == 0."""
    right = total - wrong
    return (wrong > right) | ((wrong == right) & (total > 0) & tie)


# ---------------------------------------------------------------------------
# The recovery rule
# ---------------------------------------------------------------------------

@dataclass
class _Recovery:
    """Per level: ``ind`` some chain below a node succeeded, ``err_ind`` their vote
    is wrong; at the top level of the walk: ``chain`` the node opens a chain with
    all children readable, ``err_chain`` that chain's value error."""

    ind: list
    err_ind: list
    chain: np.ndarray
    err_chain: np.ndarray | None


# Level inputs of the virtual root: no photon of its own, it always opens
# (its X-parity is the vote over the level-1 chains), and its Z-parity is the
# xor of its children's values.  _recover supplies them at level 0.
_ROOT = (False, True, True, False, False)


def _recover(
    vec: BranchingVector,
    level: Callable[[int], tuple],
    ties: list | None,
    top: int = 0,
    bottom: int | None = None,
) -> _Recovery:
    """Walk levels ``bottom`` (default d) down to ``top`` with the one recovery rule.

    ``level(k)`` gives the level-k planes ``(direct, opener, gate,
    direct_err, opener_err)`` for k >= 1 (level 0 is the virtual root,
    :data:`_ROOT`): the node reads itself; it opens a chain for its parent;
    it may use its own chain vote; and the errors of the direct readout and
    of the opener (None when ``ties`` is None, which skips error tallies).
    A chain through a child needs the child to open and all of the child's
    children readable.  Chains vote by majority, ``ties[k]``
    breaks even votes, and an available vote beats the direct readout.
    Only level k + 1's planes are kept while level k is evaluated.
    """
    d = vec.depth
    ind = [None] * (d + 1)
    err_ind = [None] * (d + 1)
    can = chain = err = err_chain = None
    for k in range(d if bottom is None else bottom, top - 1, -1):
        direct, opener, gate, direct_err, opener_err = level(k) if k else _ROOT
        if can is None:  # no children below this level
            kids_ok, err_kids = True, False
            ind[k] = err_ind[k] = np.zeros_like(direct)
        else:
            kids_ok = _group(can, vec[k]).all(axis=2)
            votes = _group(chain, vec[k])
            ind[k] = votes.any(axis=2) & gate
            if ties is not None:
                err_kids = np.logical_xor.reduce(_group(err, vec[k]), axis=2)
                count = np.min_scalar_type(vec[k])  # unsigned, holds up to b_k votes
                wrong = (votes & _group(err_chain, vec[k])).sum(axis=2, dtype=count)
                err_ind[k] = _majority_wrong(wrong, votes.sum(axis=2, dtype=count), ties[k])
        can = direct | ind[k]
        chain = opener & kids_ok
        if ties is not None:
            err_chain = opener_err ^ err_kids
            err = np.where(ind[k], err_ind[k], direct_err) & can
    return _Recovery(ind=ind, err_ind=err_ind, chain=chain, err_chain=err_chain)


def _logical(root: _Recovery):
    """Success and logical-error flags read off a walk that reached level 0.

    Success needs every first-level Z-parity (the root's chain) and at least
    one first-level chain (the root's indirect X-parity).  The error flags
    are all False when the walk tallied no errors.
    """
    success = (root.chain & root.ind[0])[:, 0]
    if root.err_chain is None:
        zero = np.zeros_like(success)
        return success, zero, zero
    return success, success & root.err_chain[:, 0], success & root.err_ind[0][:, 0]


def _side(vec: BranchingVector, det: list, fault: list | None, ties: list | None) -> _Recovery:
    """Single-qubit Z readouts of one tree, levels d..1.

    A photon is its own direct readout and opens its parent's chain with an
    X measurement.  Errors are tallied when ``fault`` and ``ties`` are given.
    """
    def level(k: int) -> tuple:
        if ties is None:
            return det[k], det[k], True, None, None
        return det[k], det[k], True, _Z_FLIP[fault[k]], _X_FLIP[fault[k]]

    return _recover(vec, level, ties, top=1)


# ---------------------------------------------------------------------------
# Static protocol
# ---------------------------------------------------------------------------

def eval_static(vec: BranchingVector, world: World):
    """Success and logical-error flags for the static rules.

    Every pair gets a BSM.  The logical Z-parity needs every first-level
    pair readable (directly for complete/partial, through a chain of a
    complete child and its readable grandchildren for failed); the logical
    X-parity needs one complete first-level pair with all children
    readable.  Errors are tallied when the world carries faults.
    """
    def level(k: int) -> tuple:
        both = world.det_a[k] & world.det_b[k]
        complete = both & world.coin[k]
        if world.fault_a is None:
            return both, complete, True, None, None
        return (both, complete, True, *_pair_flips(world.fault_a[k], world.fault_b[k]))

    return _logical(_recover(vec, level, world.tie_pair))


# ---------------------------------------------------------------------------
# Dynamic protocol
# ---------------------------------------------------------------------------

def eval_dynamic(vec: BranchingVector, world: World):
    """Success and logical-error flags for the adaptive rules.

    First-level pairs get BSMs; the children of a complete pair get BSMs,
    the children of a partial or failed pair get single-qubit
    measurements.  A failed (or partial) pair's Z-parity is recovered as
    the product of the two sides' single-qubit indirect readouts, and only
    a complete pair can vote over chains of its children.  Errors are
    tallied when the world carries faults.
    """
    a = _side(vec, world.det_a, world.fault_a, world.tie_side_a)
    b = _side(vec, world.det_b, world.fault_b, world.tie_side_b)

    def level(k: int) -> tuple:
        both = world.det_a[k] & world.det_b[k]
        complete = both & world.coin[k]
        upgrade = a.ind[k] & b.ind[k]
        if world.fault_a is None:
            return both | upgrade, complete, complete, None, None
        zz, xx = _pair_flips(world.fault_a[k], world.fault_b[k])
        # A partial or failed pair prefers its upgrade to the direct readout.
        up_err = a.err_ind[k] ^ b.err_ind[k]
        return both | upgrade, complete, complete, np.where(~complete & upgrade, up_err, zz), xx

    return _logical(_recover(vec, level, world.tie_pair))


# ---------------------------------------------------------------------------
# Loss-only protocol
# ---------------------------------------------------------------------------

def eval_loss_only(vec: BranchingVector, world: World):
    """Success flags when everything below level 1 is single-qubit measured.

    The children of complete (and partial) first-level pairs are
    Z-measured, so the logical X-parity needs every such child readable on
    both sides individually; failed first-level pairs recover through the
    two sides' indirect chains, exactly as in the adaptive protocol.  It
    has no error model: its error flags are all False, faults or not.
    """
    a = _side(vec, world.det_a, None, None)
    b = _side(vec, world.det_b, None, None)

    def level(k: int) -> tuple:
        both = world.det_a[1] & world.det_b[1]
        opener = both & world.coin[1] & a.chain & b.chain
        return both | (a.ind[1] & b.ind[1]), opener, True, None, None

    return _logical(_recover(vec, level, None, bottom=1))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

_EVALUATORS = {
    Protocol.STATIC: eval_static,
    Protocol.DYNAMIC: eval_dynamic,
    Protocol.LOSS_ONLY: eval_loss_only,
}


try:  # glibc: hands the free pages of every malloc arena back to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # another C library
    _malloc_trim = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _sample_chunk(vec: BranchingVector, params: ChannelParams, n: int, rng: np.random.Generator,
                  evaluator) -> tuple[np.ndarray, int]:
    """Draw, evaluate and tally one world, which is released on return.

    Returns the (success, zz, xx, joint) counts and the world's bytes.
    """
    world = draw_world(vec, params, n, rng)
    success, zz_err, xx_err = evaluator(vec, world)
    counts = [success.sum(), zz_err.sum(), xx_err.sum(), (zz_err | xx_err).sum()]
    return np.array(counts, dtype=np.int64), world.nbytes


def run(cfg: SampleConfig) -> McEstimate:
    """Sample the configured protocol and estimate success and error rates."""
    if cfg.protocol is Protocol.LOSS_ONLY and cfg.eps > 0.0:
        raise UnsupportedConfigurationError(
            "the loss-only strategy cannot correct measurement errors; set eps=0"
        )
    vec = as_branching_vector(cfg.b)
    params = cfg.params
    evaluator = _EVALUATORS[cfg.protocol]
    base, rem = divmod(cfg.n_samples, cfg.n_workers)
    chunk = chunk_bytes(vec, min(_CHUNK, base + (rem > 0)), want_errors=cfg.eps > 0.0)
    if chunk > MAX_CHUNK_BYTES:
        raise UnsupportedConfigurationError(
            f"one sampling chunk of {cfg.b} needs about {chunk / 1e9:.3g} GB "
            f"({photon_count(vec) - 1} photons per side), above the {MAX_CHUNK_BYTES / 1e9:g} GB cap"
        )

    def worker(w: int) -> tuple[np.ndarray, int]:
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, w]))
        quota = base + (1 if w < rem else 0)
        totals, world_bytes = np.zeros(4, dtype=np.int64), 0
        for done in range(0, quota, _CHUNK):
            counts, nbytes = _sample_chunk(vec, params, min(_CHUNK, quota - done), rng, evaluator)
            totals += counts
            world_bytes = max(world_bytes, nbytes)
        return totals, world_bytes

    t0 = time.perf_counter()
    if cfg.n_workers == 1:
        results = [worker(0)]
    else:
        with ThreadPoolExecutor(max_workers=min(cfg.n_workers, _usable_cpus())) as pool:
            results = list(pool.map(worker, range(cfg.n_workers)))
        # Each worker thread allocates from its own malloc arena, which keeps
        # the chunk's freed pages; how much it keeps depends on how the threads
        # interleaved, and later threads reuse the arenas.  Release them here so
        # every call starts from the same state and returns its memory.
        if _malloc_trim is not None:
            _malloc_trim(0)
    n_success, n_zz, n_xx, n_joint = (int(c) for c in sum(r[0] for r in results))
    return McEstimate(
        config=cfg,
        n_samples=cfg.n_samples,
        n_success=n_success,
        n_zz_error=n_zz,
        n_xx_error=n_xx,
        n_joint_error=n_joint,
        wall_time_s=time.perf_counter() - t0,
        world_bytes=max(r[1] for r in results),
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration (loss patterns x coins), exact probabilities
# ---------------------------------------------------------------------------

def _exhaustive(b: BranchingVectorLike, atoms: list[tuple], probs: list[float], evaluator) -> float:
    """Exact success probability summed over every assignment of per-pair atoms.

    An atom is a ``(det_a, det_b, coin)`` triple; ``probs`` are their weights.
    """
    vec = as_branching_vector(b)
    n_pairs = photon_count(vec) - 1
    if len(atoms) ** n_pairs > 4_000_000:
        raise ValueError(f"{n_pairs} pairs is too many for enumeration")
    digits = np.array(
        np.meshgrid(*([np.arange(len(atoms))] * n_pairs), indexing="ij")
    ).reshape(n_pairs, -1).T  # (atoms^P, P)
    weights = np.array(probs)[digits].prod(axis=1)
    # Split the photon columns into levels 1..d.
    cuts = [vec.photon_column(0, vec.level_vertices(k).start) for k in range(2, vec.depth + 1)]
    det_a, det_b, coin = ([None, *np.split(np.array(col)[digits], cuts, axis=1)]
                          for col in zip(*atoms))
    success, _, _ = evaluator(vec, World(det_a=det_a, det_b=det_b, coin=coin))
    return float(weights[success].sum())


def exhaustive_static(b: BranchingVectorLike, params: ChannelParams) -> float:
    """Exact static success probability by enumerating per-pair outcomes.

    A pair is complete, partial or failed with weights eta^2/2, eta^2/2
    and 1 - eta^2; the success predicate depends on nothing finer.
    """
    pc = 0.5 * params.eta**2
    atoms = [(True, True, True), (True, True, False), (False, True, False)]
    return _exhaustive(b, atoms, [pc, pc, 1.0 - params.eta**2], eval_static)


def exhaustive_dynamic(b: BranchingVectorLike, params: ChannelParams) -> float:
    """Exact adaptive success probability by enumerating per-pair atoms.

    Five atoms per pair: complete, partial, only side A lost, only side B
    lost, both lost; the single-qubit recovery predicates need per-side
    loss detail, the rest only the class.
    """
    eta = params.eta
    atoms = [(True, True, True), (True, True, False), (False, True, False),
             (True, False, False), (False, False, False)]
    probs = [0.5 * eta**2, 0.5 * eta**2, (1 - eta) * eta, eta * (1 - eta), (1 - eta) ** 2]
    return _exhaustive(b, atoms, probs, eval_dynamic)


# ---------------------------------------------------------------------------
# Reference per-sample evaluator (slow; documents the procedures and audits
# that no photon is ever wanted in two different bases within one sample)
# ---------------------------------------------------------------------------

class _BasisAudit:
    def __init__(self) -> None:
        self.assigned: dict[tuple[str, int, int], str] = {}

    def want(self, side: str, level: int, idx: int, basis: str) -> None:
        key = (side, level, idx)
        prev = self.assigned.setdefault(key, basis)
        if prev != basis:
            raise AssertionError(
                f"photon {key} wanted in both {prev} and {basis} bases"
            )


def reference_dynamic_sample(
    vec: BranchingVector, world: World, i: int
) -> tuple[bool, bool, bool]:
    """One adaptive sample, evaluated recursively with the basis audit.

    Returns (success, zz parity wrong, xx estimate wrong); the vectorized
    evaluator must reproduce all three bit-for-bit on the same world.
    """
    audit = _BasisAudit()
    d = vec.depth

    def det(side: str, k: int, j: int) -> bool:
        arr = world.det_a if side == "A" else world.det_b
        return bool(arr[k][i, j])

    def fault(side: str, k: int, j: int) -> int:
        arr = world.fault_a if side == "A" else world.fault_b
        return int(arr[k][i, j]) if arr is not None else 0

    def children(k: int, j: int) -> range:
        if k >= d:
            return range(0)
        return range(j * vec[k], (j + 1) * vec[k])

    def side_iz(side: str, k: int, j: int) -> tuple[bool, bool]:
        """Indirect-only Z readout (the node's own photon is unavailable)."""
        chains = []
        for w in children(k, j):
            audit.want(side, k + 1, w, "X")
            ok = det(side, k + 1, w)
            err = fault(side, k + 1, w) in (2, 3)
            for u in children(k + 1, w):
                sub_ok, sub_err = side_mz(side, k + 2, u)
                ok &= sub_ok
                err ^= sub_err
            if ok:
                chains.append(err)
        if chains:
            ties = world.tie_side_a if side == "A" else world.tie_side_b
            return True, _vote(chains, ties[k], i, j)
        return False, False

    def side_mz(side: str, k: int, j: int) -> tuple[bool, bool]:
        """Readable flag and value error of a single-qubit Z readout."""
        audit.want(side, k, j, "Z")
        ok, err = side_iz(side, k, j)
        if ok:
            return True, err
        if det(side, k, j):
            return True, fault(side, k, j) in (1, 2)
        return False, False

    def pair_class(k: int, j: int) -> str:
        audit.want("A", k, j, "BSM")
        audit.want("B", k, j, "BSM")
        if not (det("A", k, j) and det("B", k, j)):
            return "f"
        return "c" if bool(world.coin[k][i, j]) else "p"

    def zz_flip(k: int, j: int) -> bool:
        return (fault("A", k, j) in (1, 2)) ^ (fault("B", k, j) in (1, 2))

    def xx_err(k: int, j: int) -> bool:
        raw = (fault("A", k, j) in (2, 3)) ^ (fault("B", k, j) in (2, 3))
        return raw | zz_flip(k, j)

    def pair_zz(k: int, j: int) -> tuple[bool, bool]:
        """Z-parity readability and value error for a BSM-mode pair."""
        cls = pair_class(k, j)
        if cls == "c":
            chains = []
            for w in children(k, j):
                sub = pair_zz_chain(k + 1, w)
                if sub is not None:
                    chains.append(sub)
            if chains:
                return True, _vote(chains, world.tie_pair[k], i, j)
            return True, zz_flip(k, j)
        oka, ea = side_iz("A", k, j)
        okb, eb = side_iz("B", k, j)
        if oka and okb:
            return True, ea ^ eb
        if cls == "p":
            return True, zz_flip(k, j)
        return False, False

    def pair_zz_chain(k: int, j: int) -> bool | None:
        """Chain through pair (k, j): needs it complete and kids readable."""
        if pair_class(k, j) != "c":
            return None
        err = xx_err(k, j)
        for u in children(k, j):
            ok, e = pair_zz(k + 1, u)
            if not ok:
                return None
            err ^= e
        return err

    zz_total_err = False
    all_ok = True
    for j in range(vec[0]):
        ok, e = pair_zz(1, j)
        all_ok &= ok
        zz_total_err ^= e
    top_chains = [
        c for j in range(vec[0]) if (c := pair_zz_chain(1, j)) is not None
    ]
    success = all_ok and bool(top_chains)
    if not success:
        return False, False, False
    xx_total_err = _vote(top_chains, world.tie_pair[0], i, 0)
    return True, bool(zz_total_err), bool(xx_total_err)


def _vote(chains: list[bool], tie: np.ndarray, i: int, j: int) -> bool:
    """Majority vote of the chain errors; an even tie drops one at random."""
    wrong = sum(chains)
    if 2 * wrong == len(chains):
        return bool(tie[i, j])
    return 2 * wrong > len(chains)


# ---------------------------------------------------------------------------
# Two-photon fault model check
# ---------------------------------------------------------------------------

def sample_bsm_error_rates(
    eps: float, n_samples: int, seed: int
) -> dict[str, float]:
    """Monte-Carlo readout error rates of a single two-photon BSM.

    Each photon suffers a uniform Pauli fault with total probability
    ``3*eps/2``.  Returns the Z-parity flip rate and the X-readout error
    rate with their standard errors.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    eps_d = ChannelParams(eta=1.0, eps=eps).eps_d
    fa = _faults(rng.random(n_samples), eps_d)
    fb = _faults(rng.random(n_samples), eps_d)
    zz, xx = _pair_flips(fa, fb)
    pz = float(zz.mean())
    px = float(xx.mean())
    return {
        "zz_flip_rate": pz,
        "zz_stderr": math.sqrt(pz * (1 - pz) / n_samples),
        "xx_error_rate": px,
        "xx_stderr": math.sqrt(px * (1 - px) / n_samples),
        "n": n_samples,
    }
