"""Reference samplers for tests only: the adaptive protocol per sample, one BSM's
faults, and the Pauli code of a fault word.

``reference_dynamic_sample`` is slow and recursive: it documents the
adaptive procedure photon by photon, and audits that no photon is ever
wanted in two different bases within one sample.  The vectorized
``montecarlo.eval_dynamic`` must reproduce its flags bit for bit on the
same world, read here unpacked (``builders.unpack_world``): planes are
node-major bool arrays, so node ``j`` of sample ``i`` at level ``k`` is
``plane[k][j, i]``.  ``faults`` decodes a fault word to its Pauli code, the
reference for the sampler's flip planes, and ``sample_bsm_error_rates``
checks the fault draw and decoding on a single two-photon BSM.
"""

from __future__ import annotations

import math

import numpy as np

from treebsm.montecarlo import World, _fault_third, _lane, _pair_flips, check_seed
from treebsm.trees import BranchingVector, ChannelParams


def faults(w: np.ndarray, third: int) -> np.ndarray:
    """Per-photon Pauli faults (0 none, 1 X, 2 Y, 3 Z) of 32-bit words ``w``.

    A word below ``3 * third`` is a fault, of code ``1 + w // third``, so the
    rate is ``3 * third / 2^32`` and the split over X, Y and Z exactly uniform.
    """
    f = np.zeros(w.shape, dtype=np.uint8)
    hit = w < 3 * third
    f[hit] = 1 + w[hit] // third
    return f


def code_flips(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z-readout and X-readout flips of Pauli codes ``f``: an X letter (X, Y)
    flips a Z readout, a Z letter (Y, Z) an X readout."""
    return np.isin(f, (1, 2)), np.isin(f, (2, 3))


def sample_bsm_error_rates(
    eps: float, n_samples: int, seed: int
) -> dict[str, float]:
    """Monte-Carlo readout error rates of a single two-photon BSM.

    Each photon suffers a uniform Pauli fault with total probability
    ``3*eps/2``, drawn as the sampler draws faults (in steps of 3 * 2^-32)
    and decoded to Pauli codes by :func:`faults`.  Returns the Z-parity flip
    rate and the X-readout error rate with their standard errors.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    check_seed(seed)
    key = np.array([seed, 0], np.uint64)
    bits = np.random.Philox(key=key)
    third = _fault_third(ChannelParams(eta=1.0, eps=eps))
    # The two photons' 32-bit words come from lanes 0 and 1, decoded to Pauli codes.
    fa, fb = (faults(_lane(bits, key, p, 0, n_samples, 32), third) for p in (0, 1))
    zz, xx = _pair_flips(*code_flips(fa), *code_flips(fb))
    pz = float(zz.mean())
    px = float(xx.mean())
    return {
        "zz_flip_rate": pz,
        "zz_stderr": math.sqrt(pz * (1 - pz) / n_samples),
        "xx_error_rate": px,
        "xx_stderr": math.sqrt(px * (1 - px) / n_samples),
        "n": n_samples,
    }


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
    """One adaptive sample of an unpacked world, evaluated recursively with the basis audit.

    Returns (success, zz parity wrong, xx estimate wrong); the vectorized
    evaluator must reproduce all three bit-for-bit on the same world.
    """
    audit = _BasisAudit()
    d = vec.depth

    def det(side: str, k: int, j: int) -> bool:
        arr = world.det_a if side == "A" else world.det_b
        return bool(arr[k][j, i])

    def flips(side: str, k: int, j: int) -> tuple[bool, bool]:
        """Whether the photon's fault flips a Z readout (X, Y) and an X readout (Y, Z)."""
        z, x = (world.z_flip_a, world.x_flip_a) if side == "A" else (world.z_flip_b, world.x_flip_b)
        return (bool(z[k][j, i]), bool(x[k][j, i])) if z is not None else (False, False)

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
            err = flips(side, k + 1, w)[1]
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
            return True, flips(side, k, j)[0]
        return False, False

    def pair_class(k: int, j: int) -> str:
        audit.want("A", k, j, "BSM")
        audit.want("B", k, j, "BSM")
        if not (det("A", k, j) and det("B", k, j)):
            return "f"
        return "c" if bool(world.coin[k][j, i]) else "p"

    def zz_flip(k: int, j: int) -> bool:
        return flips("A", k, j)[0] ^ flips("B", k, j)[0]

    def xx_err(k: int, j: int) -> bool:
        raw = flips("A", k, j)[1] ^ flips("B", k, j)[1]
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
    """Majority vote of the chain errors; an even tie drops one at random.

    ``tie`` is a node-major plane: node ``j`` of sample ``i`` is ``tie[j, i]``.
    """
    wrong = sum(chains)
    if 2 * wrong == len(chains):
        return bool(tie[j, i])
    return 2 * wrong > len(chains)
