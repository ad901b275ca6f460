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

Streams come from counter-based Philox generators, one key per chunk:
chunk c holds samples ``c * _CHUNK .. min((c + 1) * _CHUNK, N) - 1`` and
draws them from the key ``(seed, c)``.  Each plane of the world has a lane
of its own, the stream from counter ``(0, 0, p, STREAM_VERSION)`` for the
p-th plane of :func:`_planes`, and spends only the bits each decision
needs: a loss flag or a Pauli fault is one 32-bit word, a coin or a tie
one bit (:func:`draw_world`).  A plane is a pure function of (seed, c, p),
so the counters depend on the seed and the configuration alone, and no
generator continues from one chunk or plane to the next.

The unit of parallel work is a sample window: samples ``lo .. hi - 1`` of
the whole run, which may span many chunks.  Each plane is drawn in
blocks of at most :data:`_BLOCK` cells within one chunk, from the chunk's
lane set to the block's first cell (:func:`_lane`), and decoded into the
window's columns; the window is then evaluated and tallied on the same
thread.  A run is cut into the
fewest equal windows of at most :data:`_WINDOW` drawn cells each
(:func:`_windows`), a split that depends on the sample count and the drawn
cells per sample alone.  Every window goes to one pool of one thread per
CPU this process may use (numpy releases the interpreter lock in its draws
and array operations), so at most that many windows are alive at once.
Totals are order-independent sums, so results are bit-identical for a
fixed (seed, config) whatever the window size, thread count and window
order.  A configuration whose sample window would not fit in
:data:`MAX_WINDOW_BYTES` is refused before anything is drawn.

A run draws only the planes its protocol reads (:data:`_READS`): the static
rules read no single-qubit tie planes and, like the adaptive rules, no tie
plane at the leaves, where no vote can tie; the loss-only rules read the
coin of first-level pairs only.  A plane that is not drawn is None in the
world and its lane is never touched, so the other planes do not change.
"""

from __future__ import annotations

import ctypes
import json
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .trees import (
    BranchingVector,
    BranchingVectorLike,
    ChannelParams,
    Protocol,
    as_branching_vector,
    photon_count,
)

# Samples per chunk.  Part of the stream contract: each chunk has a key of its
# own, so another chunk size gives other counters.  It is no unit of work or
# of memory: a sample window (:data:`_WINDOW`) may span many chunks.
_CHUNK = 8192

# Refuse a configuration whose sample window (world, draw buffer and
# evaluation) would need more bytes than this; like trees.MAX_VERTICES, it
# stops towers of 10^8 photons per side from being attempted.
MAX_WINDOW_BYTES = 2 * 10**9

# Most cells drawn, decoded and transposed to node-major at once, so a plane's
# raws take at most 1 MB: about 582 samples of a 450-wide (15,15,2) leaf
# plane, and a whole chunk of a narrow plane.
_BLOCK = 2**18

# Most drawn cells a sample window holds, unless it is a single sample:
# the unit of memory, since each thread holds one window's world at a time.
_WINDOW = 2**21

# Version of the stream contract (lanes, cell widths and decoding, chunk size,
# stream keys), held in the top word of every lane's Philox counter and
# stamped on every result, so a changed counter can be traced to a changed
# contract.
STREAM_VERSION = 3

# Smallest eps > 0 the sampler can draw faults at: a fault is a 32-bit word
# below 3 * (int(eps_d * 2^32) // 3), which is 0 unless eps_d * 2^32 >= 3.
MIN_EPS = 2.0**-31

# Largest seed: a seed is one 64-bit word of a Philox key.
MAX_SEED = 2**64 - 1


class UnsupportedConfigurationError(ValueError):
    """Configuration outside a protocol's supported envelope."""


def check_seed(seed: int) -> None:
    """Refuse a seed that is no 64-bit Philox key word."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in 0 to 2^64 - 1 ({MAX_SEED}), got {seed}")


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
    # Has no effect, since every chunk is keyed by its own index; it stays
    # only because the mc-errors workload of perfbench/ still passes it.
    n_workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(as_branching_vector(self.b)))
        object.__setattr__(self, "protocol", Protocol(self.protocol))
        for name in ("n_samples", "seed"):
            try:  # integers of any type, numpy's included; a float is never truncated
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        check_seed(self.seed)
        ChannelParams(eta=self.eta, eps=self.eps)  # refuses a point that is no channel

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
    level evaluation (with the tally).  They are thread-seconds, summed per
    sample window over the pool's threads, so they can exceed
    ``wall_time_s``, but not ``wall_time_s`` times the pool's thread count,
    one per usable CPU.
    """

    config: SampleConfig
    n_success: int
    n_zz_error: int
    n_xx_error: int
    n_joint_error: int
    wall_time_s: float
    world_bytes: int  # the largest window world, in bytes
    draw_s: float  # thread-seconds drawing worlds
    eval_s: float  # thread-seconds evaluating and tallying them

    @property
    def n_samples(self) -> int:
        return self.config.n_samples

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
            },
            "stream_version": STREAM_VERSION,
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
    """The planes of a world as (field, level, width); the p-th is drawn from lane p.

    Loss on both sides and the coin, then, when the world carries faults,
    both sides' faults and the three tie planes; each field has one plane
    per level 1..d, of one column per node.  A world with faults ends with
    the virtual root's tie plane (level 0, width 1).  The planes without
    faults are the first of those with faults, so they keep their lanes at
    every eps.
    """
    names = ("det_a", "det_b", "coin")
    if faults:
        names += ("fault_a", "fault_b", "tie_pair", "tie_side_a", "tie_side_b")
    layout = [(f, k, len(vec.level_vertices(k))) for f in names for k in range(1, vec.depth + 1)]
    return layout + [("tie_pair", 0, 1)] if faults else layout


# Which planes of a world an evaluator reads, as a predicate on (field,
# level, depth); None reads (and draws) every plane.
Reads = Callable[[str, int, int], bool]


def _drawn_widths(vec: BranchingVector, faults: bool, reads: Reads | None = None) -> list[int]:
    """Widths of the planes of :func:`_planes` that ``reads`` accepts, in lane order."""
    return [width for field, k, width in _planes(vec, faults)
            if reads is None or reads(field, k, vec.depth)]


def window_bytes(vec: BranchingVector, faults: bool, reads: Reads | None = None) -> int:
    """Estimated peak bytes of a sample window drawing the planes ``reads`` accepts.

    A window holds at most :data:`_WINDOW` drawn cells, or one sample's: a
    byte each in the world and 3 in the evaluation's temporaries.  A block
    holds at most :data:`_BLOCK` cells, or one row of the widest plane: 4
    bytes of raws and 2 of decoding each.  Traced peaks on (1,) to
    (2000,300) are 0.39 to 0.81 of this, whatever the run's sample count.
    """
    widths = _drawn_widths(vec, faults, reads)
    cells = max(1, _WINDOW // sum(widths)) * sum(widths)
    return 4 * cells + 6 * max(_BLOCK, max(widths))


@dataclass
class World:
    """One batch of sampled worlds, as node-major per-level arrays of shape (s_k, N).

    Loss flags, coins and tie-breaks are bool (a tie plane is True where an
    even vote drops a wrong member); faults are uint8 Pauli codes.  Level 0
    is the virtual root: it holds only the pair tie-break of the logical
    X-parity vote, a (1, N) plane, and None in every other list.  Faults
    and tie-breaks are None at eps = 0.  A world drawn for one protocol
    holds None for every plane that protocol does not read (see
    :data:`_READS`); its other planes equal those of a world drawn whole.
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


def _fault_third(params: ChannelParams) -> int:
    """Width of each Pauli letter's share of the 32-bit words, ``int(eps_d * 2^32) // 3``.

    Refuses an eps > 0 whose share is empty, which would draw no fault at all.
    """
    third = int(params.eps_d * 2**32) // 3
    if params.eps > 0.0 and third == 0:
        raise UnsupportedConfigurationError(
            f"eps {params.eps:g} is below {MIN_EPS:.4g} (2^-31), the smallest eps whose "
            "faults the sampler's 32-bit words can draw"
        )
    return third


def _faults(w: np.ndarray, third: int) -> np.ndarray:
    """Per-photon Pauli faults (0 none, 1 X, 2 Y, 3 Z) of 32-bit words ``w``.

    A word below ``3 * third`` is a fault, of code ``1 + w // third``, so the
    rate is ``3 * third / 2^32`` and the split over X, Y and Z exactly uniform.
    """
    f = np.zeros(w.shape, dtype=np.uint8)
    hit = w < 3 * third
    f[hit] = 1 + w[hit] // third
    return f


def _lane(bits: np.random.Philox, key: np.ndarray, p: int, first: int, count: int,
          cell_bits: int) -> np.ndarray:
    """Cells ``first .. first + count - 1`` of lane ``p`` of the stream keyed by ``key``.

    Lane p's raws are those of a Philox generator started at counter
    ``(0, 0, p, STREAM_VERSION)``, so raw r is the (r mod 4)-th after counter
    ``(r // 4, 0, p, STREAM_VERSION)``; ``bits`` is set there and draws only
    the raws that hold the cells.  A 32-bit cell t (``cell_bits`` 32) is the
    little-endian half t mod 2 of raw t // 2, returned as uint32; a one-bit
    cell t is bit t mod 64 of raw t // 64, least significant first, returned
    as bool.
    """
    per_raw = 64 // cell_bits
    start, stop = first // per_raw, -(-(first + count) // per_raw)
    block, skip = divmod(start, 4)
    bits.state = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0,
                  "state": {"counter": np.array([block, 0, p, STREAM_VERSION], np.uint64), "key": key}}
    raws = bits.random_raw(skip + stop - start)[skip:].astype("<u8", copy=False)
    if cell_bits == 32:
        cells = raws.view("<u4")
    else:
        cells = np.unpackbits(raws.view(np.uint8), bitorder="little").view(bool)
    first -= start * per_raw
    return cells[first:first + count]


def _windows(n: int, per_sample: int) -> Iterator[tuple[int, int]]:
    """Sample windows ``(lo, hi)`` of an ``n``-sample run, in order: the fewest equal
    ones that each hold at most :data:`_WINDOW` drawn cells (``per_sample`` per
    sample), or one sample.  Lazy, since a long run has millions."""
    count = -(-n // max(1, _WINDOW // per_sample))
    return ((j * n // count, (j + 1) * n // count) for j in range(count))


def draw_world(
    vec: BranchingVector, params: ChannelParams, seed: int, lo: int, hi: int,
    reads: Reads | None = None,
) -> World:
    """Sample samples ``lo .. hi - 1`` of the run drawn with ``seed``.

    The lanes and cell widths here are the stream contract.  Run sample
    ``c * _CHUNK + i`` is sample i of chunk c, drawn from the Philox stream
    keyed by ``(seed, c)``.  Plane p of :func:`_planes` (numbered with
    faults, so loss and coin planes have the same lanes at every eps) is
    drawn from lane p of the key (:func:`_lane`), one cell per column per
    sample: cell ``t = i * s_k + j`` decides node j of the chunk's sample i,
    and the plane is stored node-major, as its (s_k, samples) transpose.
    Loss and fault cells are 32-bit words w: a photon is detected iff
    ``w < int(eta * 2^32)``, and faulted as :func:`_faults` decodes w at
    ``third = int(eps_d * 2^32) // 3``.  Coin and tie cells are single bits,
    True when set.  A chunk's planes depend on (seed, c, p) alone, not on
    the run's size or on which other planes are drawn.

    With ``reads``, only the planes it accepts are drawn; each other plane
    is None, and its lane is never touched.

    A window's planes are columns ``lo:hi`` of the run's, drawn in blocks of
    at most :data:`_BLOCK` cells within one chunk: each block's lane is set
    to the block's first cell, and its cells are decoded and transposed into
    the window's columns.
    """
    # As uint64: numpy takes a list holding a word of 2^63 or more through float64.
    keys = [(c, np.array([seed, c], np.uint64)) for c in range(lo // _CHUNK, -(-hi // _CHUNK))]
    bits = np.random.Philox(key=keys[0][1])
    detect, third = int(params.eta * 2**32), _fault_third(params)
    # Decoders of the planes of 32-bit cells; the others are one-bit cells, kept as drawn.
    loss, fault = (lambda w: w < detect), (lambda w: _faults(w, third))
    words = {"det_a": loss, "det_b": loss, "fault_a": fault, "fault_b": fault}
    world: dict[str, list] = {}
    for p, (field, k, width) in enumerate(_planes(vec, params.eps > 0.0)):
        plane = None
        if reads is None or reads(field, k, vec.depth):
            decode = words.get(field)
            plane = np.empty((width, hi - lo), np.uint8 if field.startswith("fault") else bool)
            step = max(1, _BLOCK // width)  # samples per block
            for c, key in keys:
                start, end = c * _CHUNK, min(hi, (c + 1) * _CHUNK)
                for i in range(max(lo, start), end, step):
                    j = min(i + step, end)
                    block = _lane(bits, key, p, (i - start) * width, (j - i) * width,
                                  32 if decode else 1).reshape(j - i, width)
                    plane[:, i - lo:j - lo] = (decode(block) if decode else block).T
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
            ind[k] = err_ind[k] = np.False_  # broadcasts; no flag planes at the leaves
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

# The planes each evaluator reads; a run draws no other.  No vote can tie
# at the leaves (level d), which have no chains below them; the static
# rules measure no photon on its own, so they break no single-qubit tie;
# the loss-only rules measure every pair below level 1 photon by photon.
_READS: dict[Protocol, Reads] = {
    Protocol.STATIC: lambda field, k, d: not (
        field.startswith("tie_side") or (field == "tie_pair" and k == d)),
    Protocol.DYNAMIC: lambda field, k, d: not (field.startswith("tie") and k == d),
    Protocol.LOSS_ONLY: lambda field, k, d: field != "coin" or k == 1,
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


def _sample_window(vec: BranchingVector, params: ChannelParams, seed: int,
                   lo: int, hi: int, evaluator,
                   reads: Reads | None) -> tuple[np.ndarray, int, np.ndarray]:
    """Draw the planes ``reads`` accepts of window ``lo .. hi - 1`` of the run drawn
    with ``seed``, evaluate and tally them; the world is released on return.

    Returns the (success, zz, xx, joint) counts, the world's bytes and the
    seconds this thread spent drawing and evaluating it.
    """
    t0 = time.perf_counter()
    world = draw_world(vec, params, seed, lo, hi, reads)
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
    _fault_third(params)  # refuses an eps too small to draw
    evaluator, reads = _EVALUATORS[cfg.protocol], _READS[cfg.protocol]
    faults = cfg.eps > 0.0
    need = window_bytes(vec, faults, reads)
    if need > MAX_WINDOW_BYTES:
        raise UnsupportedConfigurationError(
            f"one sample window of {cfg.b} needs about {need / 1e9:.3g} GB ({photon_count(vec) - 1}"
            f" photons per side), above the {MAX_WINDOW_BYTES / 1e9:g} GB cap"
        )
    per_sample = sum(_drawn_widths(vec, faults, reads))

    windows = _windows(cfg.n_samples, per_sample)

    def sample(window: tuple[int, int]) -> tuple[np.ndarray, int, np.ndarray]:
        lo, hi = window
        return _sample_window(vec, params, cfg.seed, lo, hi, evaluator, reads)

    totals, world_bytes, seconds = np.zeros(4, dtype=np.int64), 0, np.zeros(2)
    threads = _usable_cpus()
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # A pool's map submits all its tasks at once, about 1.8 KB each, and
        # 10^10 samples of (15,15,2) are millions of windows: hand it a few per
        # thread at a time.
        while batch := list(islice(windows, 64 * threads)):
            for counts, nbytes, took in pool.map(sample, batch):
                totals += counts
                world_bytes = max(world_bytes, nbytes)
                seconds += took
    # Each pool thread allocates from its own malloc arena, which keeps the
    # window's freed pages; how much it keeps depends on how the threads
    # interleaved, and later threads reuse the arenas.  Release them here so
    # every call starts from the same state and returns its memory.
    if _malloc_trim is not None:
        _malloc_trim(0)
    n_success, n_zz, n_xx, n_joint = (int(c) for c in totals)
    draw_s, eval_s = (float(t) for t in seconds)
    return McEstimate(
        config=cfg,
        n_success=n_success,
        n_zz_error=n_zz,
        n_xx_error=n_xx,
        n_joint_error=n_joint,
        wall_time_s=time.perf_counter() - t0,
        world_bytes=world_bytes,
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
    if n_pairs * math.log(len(atoms)) > math.log(4_000_000):  # atoms^pairs, without the power
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
