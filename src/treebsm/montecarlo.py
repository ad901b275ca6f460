"""Sampling oracle for the logical BSM protocols.

Draws complete worlds (per-photon loss flags, per-photon Pauli faults, one
completeness coin per photon pair) and runs the protocol decision
procedures directly on the tree, independently of the closed-form
recursions.  A world is drawn once per sample and every branch of the
decision procedure reads the same world; distinct recovery attempts use
disjoint photons, which is what makes the product/independence structure
of the exact recursions hold sample-by-sample.

The sampler functions take the tree's :class:`~treebsm.trees.BranchingVector`.
A world holds one node-major (level size, samples) array per level, viewed
as (parent nodes, b_k, samples) to reach each node's children, so a node's
children are b_k contiguous rows and every reduction over them is a
row-wise operation along the sample axis.

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

When there are more CPUs than worker threads, a worker draws each large
chunk in sample windows, one per CPU it may use, at the same time.  Philox
is counter-based, so any stretch of a worker's stream can be drawn on its
own: window j fills its samples' rows of every plane from a generator set
to their exact position in the stream (:func:`_seek`), and the worker's
generator then continues where one sequential draw would leave it.  Every
chunk, split or not, is drawn this way, so worlds, and counters, are the
same for every window and thread count.  Evaluation stays on the worker's
own thread.  A chunk is split only while every window holds at least
:data:`_MIN_WINDOW` uniforms: on smaller chunks the per-window bookkeeping,
which holds the interpreter lock, is a larger share of the draw.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
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

# Samples per block when a drawn plane is decoded and transposed to node-major.
_BLOCK = 512

# Fewest uniforms a sample window of a chunk may hold; a chunk too small to
# give every window this many is drawn in fewer windows, down to one.
_MIN_WINDOW = 2**20


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

    ``draw_s`` and ``eval_s`` split the sampling time into world draws and
    level evaluation (with the tally).  They are worker-seconds, summed per
    chunk over all workers, so with several workers they can exceed
    ``wall_time_s``, but not ``wall_time_s`` times the worker count.
    """

    config: SampleConfig
    n_samples: int
    n_success: int
    n_zz_error: int
    n_xx_error: int
    n_joint_error: int
    wall_time_s: float
    world_bytes: int  # the largest chunk world, in bytes
    draw_s: float  # worker-seconds drawing worlds
    eval_s: float  # worker-seconds evaluating and tallying them

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
            "draw_s": self.draw_s,
            "eval_s": self.eval_s,
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
    """View a level-(k+1) array as (level-k nodes, b_k, samples)."""
    return arr.reshape(-1, bk, arr.shape[-1])


def _planes(vec: BranchingVector, faults: bool) -> list[tuple[str, int, int]]:
    """The stream layout of a world: its planes as (field, level, width), in draw order.

    Loss on both sides and the coin, then, when the world carries faults,
    both sides' faults and the three tie planes; each field has one plane
    per level 1..d, of one column per node.  A world with faults ends with
    the virtual root's tie plane (level 0, width 1).
    """
    names = ("det_a", "det_b", "coin")
    if faults:
        names += ("fault_a", "fault_b", "tie_pair", "tie_side_a", "tie_side_b")
    layout = [(f, k, len(vec.level_vertices(k))) for f in names for k in range(1, vec.depth + 1)]
    return layout + [("tie_pair", 0, 1)] if faults else layout


def chunk_bytes(vec: BranchingVector, n: int, faults: bool) -> int:
    """Bytes of one ``n``-sample world plus the uniform buffer it is drawn through.

    One byte per sample for each column of each plane of :func:`_planes`,
    and 8 bytes per sample for the widest plane's float64 uniforms (the
    leaves).
    """
    widths = [width for *_, width in _planes(vec, faults)]
    return n * (sum(widths) + 8 * max(widths))


@dataclass
class World:
    """One batch of sampled worlds, as node-major per-level arrays of shape (s_k, N).

    Loss flags, coins and tie-breaks are bool (a tie plane is True where an
    even vote drops a wrong member); faults are uint8 Pauli codes.  Level 0
    is the virtual root: it holds only the pair tie-break of the logical
    X-parity vote, a (1, N) plane, and None in every other list.
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


def _raw_index(bits: np.random.Philox) -> int:
    """Index in ``bits``'s stream of the raw uint64 it hands out next.

    Philox makes its raws four at a time, the block of counter q being raws
    4(q - 1) .. 4q - 1, and a generator at counter c with ``buffer_pos`` p
    hands out raw 4c - (4 - p) next.  ``Generator.random`` turns one raw
    into one float64.
    """
    state = bits.state
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - state["buffer_pos"])


def _seek(bits: np.random.Philox, raw: int) -> None:
    """Set ``bits`` to hand out raw ``raw`` of its key's stream next: raw 4q + r
    is the r-th after counter q with an empty buffer (the counter wraps at 2^256)."""
    q, r = divmod(raw, 4)
    state = bits.state
    state["state"]["counter"] = np.array([q >> 64 * i & 2**64 - 1 for i in range(4)], np.uint64)
    state["buffer_pos"] = 4
    bits.state = state
    bits.random_raw(r)


def _window_count(n: int, per_sample: int, windows: int) -> int:
    """Sample windows of an ``n``-sample chunk: at most ``windows``, each of at least
    :data:`_MIN_WINDOW` uniforms (``per_sample`` per sample), and at least one."""
    return max(1, min(windows, n, n * per_sample // _MIN_WINDOW))


def draw_world(
    vec: BranchingVector, params: ChannelParams, n: int, rng: np.random.Generator,
    windows: int = 1, pool: ThreadPoolExecutor | None = None,
) -> World:
    """Sample a world batch; the draw order here is part of the stream contract.

    The planes of :func:`_planes` take consecutive stretches of ``rng``'s
    stream, n * s_k uniforms each, in that order.  Uniform ``u[i, j]``, the
    ``i * s_k + j``-th of a plane's stretch, is thresholded into node j of
    sample i, and the plane is stored node-major, as its (s_k, n) transpose.

    The samples are drawn in up to ``windows`` windows (see
    :func:`_window_count`; one unless the chunk is large), the windows after
    the first on ``pool`` (in turn on the calling thread without one).
    Window j fills its samples' rows of every plane from a generator (``rng``
    itself for window 0, a new one with its key for the others) set to
    their position in the stream by :func:`_seek`, through its own stretch
    of one buffer sized for the widest level, and decodes and transposes
    them in blocks of samples small enough to stay in cache.  ``rng`` is
    then set to the end of the chunk's uniforms, so the world and the rest
    of the stream do not depend on the window count.
    """
    layout = _planes(vec, params.eps > 0.0)
    widest = max(width for *_, width in layout)
    per_sample = sum(width for *_, width in layout)
    buf = np.empty(n * widest)
    planes = [np.empty((width, n), np.uint8 if field.startswith("fault") else bool)
              for field, _, width in layout]
    loss, half = (lambda u: u < params.eta), (lambda u: u < 0.5)
    decode = {"det_a": loss, "det_b": loss, "coin": half, "tie_pair": half,
              "tie_side_a": half, "tie_side_b": half,
              "fault_a": lambda u: _faults(u, params.eps_d),
              "fault_b": lambda u: _faults(u, params.eps_d)}
    windows = _window_count(n, per_sample, windows)
    key, start = rng.bit_generator.state["state"]["key"], _raw_index(rng.bit_generator)

    def fill(j: int) -> None:
        gen = rng if j == 0 else np.random.Generator(np.random.Philox(key=key))
        lo, hi = j * n // windows, (j + 1) * n // windows
        offset = start  # stream index of this plane's first uniform
        for (field, _, width), plane in zip(layout, planes):
            u = buf[lo * widest:lo * widest + (hi - lo) * width].reshape(hi - lo, width)
            _seek(gen.bit_generator, offset + lo * width)
            gen.random(out=u)
            rows = plane[:, lo:hi]
            for i in range(0, hi - lo, _BLOCK):
                rows[:, i:i + _BLOCK] = decode[field](u[i:i + _BLOCK]).T
            offset += n * width

    rest = (map if pool is None else pool.map)(fill, range(1, windows))
    fill(0)
    list(rest)
    _seek(rng.bit_generator, start + n * per_sample)
    world: dict[str, list] = {}
    for (field, k, _), plane in zip(layout, planes):
        world.setdefault(field, [None] * (vec.depth + 1))[k] = plane
    return World(**world)


# A fault flips a single-qubit Z readout when it has an X letter (X or Y),
# and an X readout when it has a Z letter (Y or Z).  On the uint8 codes
# (0 none, 1 X, 2 Y, 3 Z) both are bits of GF(2)-linear maps, so the flips of
# a product of two faults are the flips of the xor of their codes.
def _z_flip(f: np.ndarray) -> np.ndarray:
    return ((f ^ (f >> 1)) & 1).view(bool)


def _x_flip(f: np.ndarray) -> np.ndarray:
    return (f >> 1).view(bool)


def _pair_flips(fa: np.ndarray, fb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z-parity flip and X-readout error of two-photon BSMs with faults fa, fb.

    The X readout is decoded assuming the Z parity, so it is wrong whenever
    either parity flips.
    """
    both = fa ^ fb
    zz = _z_flip(both)
    return zz, zz | _x_flip(both)


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
            kids_ok = _group(can, vec[k]).all(axis=1)
            votes = _group(chain, vec[k])
            ind[k] = votes.any(axis=1) & gate
            if ties is not None:
                err_kids = np.logical_xor.reduce(_group(err, vec[k]), axis=1)
                count = np.min_scalar_type(vec[k])  # unsigned, holds up to b_k votes
                wrong = (votes & _group(err_chain, vec[k])).sum(axis=1, dtype=count)
                err_ind[k] = _majority_wrong(wrong, votes.sum(axis=1, dtype=count), ties[k])
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
    success = (root.chain & root.ind[0])[0]
    if root.err_chain is None:
        zero = np.zeros_like(success)
        return success, zero, zero
    return success, success & root.err_chain[0], success & root.err_ind[0][0]


def _side(vec: BranchingVector, det: list, fault: list | None, ties: list | None) -> _Recovery:
    """Single-qubit Z readouts of one tree, levels d..1.

    A photon is its own direct readout and opens its parent's chain with an
    X measurement.  Errors are tallied when ``fault`` and ``ties`` are given.
    """
    def level(k: int) -> tuple:
        if ties is None:
            return det[k], det[k], True, None, None
        return det[k], det[k], True, _z_flip(fault[k]), _x_flip(fault[k])

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
                  evaluator, windows: int = 1,
                  pool: ThreadPoolExecutor | None = None) -> tuple[np.ndarray, int, np.ndarray]:
    """Draw (in up to ``windows`` windows on ``pool``), evaluate and tally one world,
    which is released on return.

    Returns the (success, zz, xx, joint) counts, the world's bytes and the
    seconds this thread spent drawing and evaluating it.
    """
    t0 = time.perf_counter()
    world = draw_world(vec, params, n, rng, windows, pool)
    t1 = time.perf_counter()
    success, zz_err, xx_err = evaluator(vec, world)
    counts = [success.sum(), zz_err.sum(), xx_err.sum(), (zz_err | xx_err).sum()]
    seconds = np.array([t1 - t0, time.perf_counter() - t1])
    return np.array(counts, dtype=np.int64), world.nbytes, seconds


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
    largest = min(_CHUNK, base + (rem > 0))
    chunk = chunk_bytes(vec, largest, faults=cfg.eps > 0.0)
    if chunk > MAX_CHUNK_BYTES:
        raise UnsupportedConfigurationError(
            f"one sampling chunk of {cfg.b} needs about {chunk / 1e9:.3g} GB "
            f"({photon_count(vec) - 1} photons per side), above the {MAX_CHUNK_BYTES / 1e9:g} GB cap"
        )
    # Each worker thread draws its chunks in windows over its share of the CPUs.
    cpus = _usable_cpus()
    threads = min(cfg.n_workers, cpus)
    windows = cpus // threads
    per_sample = sum(width for *_, width in _planes(vec, cfg.eps > 0.0))
    split = _window_count(largest, per_sample, windows) > 1

    def worker(w: int) -> tuple[np.ndarray, int, np.ndarray]:
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, w]))
        quota = base + (1 if w < rem else 0)
        totals, world_bytes, seconds = np.zeros(4, dtype=np.int64), 0, np.zeros(2)
        for done in range(0, quota, _CHUNK):
            counts, nbytes, took = _sample_chunk(vec, params, min(_CHUNK, quota - done), rng,
                                                 evaluator, windows, window_pool)
            totals += counts
            world_bytes = max(world_bytes, nbytes)
            seconds += took
        return totals, world_bytes, seconds

    t0 = time.perf_counter()
    with ExitStack() as pools:
        # The windows get their own executor: a worker waits on its windows,
        # and a wait on the executor it runs on could starve.
        window_pool = (pools.enter_context(ThreadPoolExecutor(max_workers=threads * (windows - 1)))
                       if split else None)
        if cfg.n_workers == 1:
            results = [worker(0)]
        else:
            pool = pools.enter_context(ThreadPoolExecutor(max_workers=threads))
            results = list(pool.map(worker, range(cfg.n_workers)))
    # Each pool thread allocates from its own malloc arena, which keeps the
    # chunk's freed pages; how much it keeps depends on how the threads
    # interleaved, and later threads reuse the arenas.  Release them here so
    # every call starts from the same state and returns its memory.
    if (cfg.n_workers > 1 or split) and _malloc_trim is not None:
        _malloc_trim(0)
    n_success, n_zz, n_xx, n_joint = (int(c) for c in sum(r[0] for r in results))
    draw_s, eval_s = (float(t) for t in sum(r[2] for r in results))
    return McEstimate(
        config=cfg,
        n_samples=cfg.n_samples,
        n_success=n_success,
        n_zz_error=n_zz,
        n_xx_error=n_xx,
        n_joint_error=n_joint,
        wall_time_s=time.perf_counter() - t0,
        world_bytes=max(r[1] for r in results),
        draw_s=draw_s,
        eval_s=eval_s,
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
    ).reshape(n_pairs, -1)  # (P, atoms^P): one row per photon pair
    weights = np.array(probs)[digits].prod(axis=0)
    # Split the photon rows into levels 1..d.
    cuts = [vec.photon_column(0, vec.level_vertices(k).start) for k in range(2, vec.depth + 1)]
    det_a, det_b, coin = ([None, *np.split(np.array(col)[digits], cuts, axis=0)]
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
