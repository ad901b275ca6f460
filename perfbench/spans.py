"""Spans around the public functions of treebsm, recorded from outside.

:class:`Tracer` swaps each traced function for a wrapper that records a
span (name, start, end, parent, round) and restores the originals on
:meth:`Tracer.remove`.  A function is replaced under every name that binds
it in a treebsm module, so calls through ``from .analytic import
logical_bsm`` (``search``, ``cli``) or ``from .montecarlo import run as
run_mc`` are timed, and so are the evaluators ``run`` reaches through its
``_EVALUATORS`` table.  Spans stay in memory until :meth:`Tracer.save`.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

# (module, function, span name).  Methods are given as "Class.method".
FUNCTIONS = [
    ("montecarlo", "run", "montecarlo.run"),
    ("montecarlo", "draw_world", "montecarlo.draw_world"),
    ("montecarlo", "eval_static", "montecarlo.eval_static"),
    ("montecarlo", "eval_dynamic", "montecarlo.eval_dynamic"),
    ("montecarlo", "eval_loss_only", "montecarlo.eval_loss_only"),
    ("analytic", "static_layer_recursion", "analytic.static_layer_recursion"),
    ("analytic", "dynamic_layer_recursion", "analytic.dynamic_layer_recursion"),
    ("analytic", "vote_error", "analytic.vote_error"),
    ("analytic", "static_logical_bsm", "analytic.static_logical_bsm"),
    ("analytic", "dynamic_logical_bsm", "analytic.dynamic_logical_bsm"),
    ("analytic", "logical_bsm", "analytic.logical_bsm"),
    ("analytic", "find_threshold", "analytic.find_threshold"),
    ("search", "enumerate_trees", "search.enumerate_trees"),
    ("search", "evaluate_all", "search.evaluate_all"),
    ("search", "pareto_front", "search.pareto_front"),
    ("cli", "main", "cli.main"),
    ("stabilizer", "StabilizerTableau.measure", "stabilizer.measure"),
    ("stabilizer", "StabilizerTableau.from_generators", "stabilizer.from_generators"),
    ("stabilizer", "StabilizerTableau.canonical", "stabilizer.canonical"),
    ("genseq", "compile_bell_pair", "genseq.compile_bell_pair"),
    ("genseq", "execute_sequence", "genseq.execute_sequence"),
    ("genseq", "logical_bell_tableau", "genseq.logical_bell_tableau"),
    ("genseq", "verify_bell_pair", "genseq.verify_bell_pair"),
]
# Generator functions: one span per step, closed before the value is yielded.
GENERATORS = {"search.enumerate_trees"}


def _world_bytes(world) -> int:
    total = 0
    for f in dataclasses.fields(world):
        value = getattr(world, f.name)
        arrays = value if isinstance(value, list) else [value]
        total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return total


class Tracer:
    """In-memory span recorder for the traced rounds of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.max_world_bytes = 0
        self.current_round = 0
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.current_round)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "montecarlo.run":
            self.counts["samples"] += args[0].n_samples
        elif name == "montecarlo.draw_world":
            self.max_world_bytes = max(self.max_world_bytes, _world_bytes(result))
        elif name == "genseq.verify_bell_pair":
            self.counts["photons"] += args[0].n_photons

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._nid(name)
        if name in GENERATORS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.counts["shapes"] += 1
                    yield value
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self._after(name, args, result)
            return result
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced function; returns the targets that were not found."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "treebsm" or key.startswith("treebsm.")]
        missing = []
        for mod_name, attr, span in FUNCTIONS:
            mod = sys.modules.get(f"treebsm.{mod_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(member) if owner is not None else None
            if raw is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            if owner_name:
                self._patch_method(owner, member, raw, span)
            else:
                self._patch_function(modules, raw, self.wrap(raw, span))
        return missing

    def _patch_method(self, cls: type, member: str, raw, span: str) -> None:
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, span))
        else:
            new = self.wrap(raw, span)
        setattr(cls, member, new)
        self._undo.append(lambda: setattr(cls, member, raw))

    def _patch_function(self, modules, orig: Callable, new: Callable) -> None:
        # Every module-level binding of the function, and every module-level
        # dispatch table (such as montecarlo._EVALUATORS) that holds it.
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._undo.append(lambda m=mod, k=key: setattr(m, k, orig))
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is orig:
                            value[dkey] = new
                            self._undo.append(lambda d=value, k=dkey: d.__setitem__(k, orig))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": name, "parent": parent, "dur": dur, "self": dur - child}

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            round=np.frombuffer(self.round, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer times, call counts and rates from the recorded spans."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(*names: str) -> np.ndarray:
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(a["name"], wanted)

    def total(*names: str) -> float:
        return float(a["dur"][mask(*names)].sum())

    def self_time(*names: str) -> float:
        return float(a["self"][mask(*names)].sum())

    def calls(*names: str) -> int:
        return int(mask(*names).sum())

    def outermost(*names: str) -> float:
        m = mask(*names)
        parent = a["parent"]
        nested = np.zeros_like(m)
        nested[parent >= 0] = m[parent[parent >= 0]]
        return float(a["dur"][m & ~nested].sum())

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    recursions = ("analytic.static_layer_recursion", "analytic.dynamic_layer_recursion")
    per_round = {
        "montecarlo.draw_world_s": total("montecarlo.draw_world"),
        "montecarlo.eval_static_s": total("montecarlo.eval_static"),
        "montecarlo.eval_dynamic_s": total("montecarlo.eval_dynamic"),
        "montecarlo.eval_loss_only_s": total("montecarlo.eval_loss_only"),
        "montecarlo.run_self_s": self_time("montecarlo.run"),
        "analytic.layer_recursion_s": outermost(*recursions),
        "analytic.layer_recursion_calls": calls(*recursions),
        "analytic.vote_error_s": total("analytic.vote_error"),
        "analytic.vote_error_calls": calls("analytic.vote_error"),
        "analytic.complete_term_s": self_time(
            "analytic.static_logical_bsm", "analytic.dynamic_logical_bsm"),
        "analytic.find_threshold_s": total("analytic.find_threshold"),
        "search.enumerate_trees_s": total("search.enumerate_trees"),
        "cli.self_s": self_time("cli.main"),
        "stabilizer.measure_s": total("stabilizer.measure"),
        "stabilizer.measure_calls": calls("stabilizer.measure"),
        "stabilizer.from_generators_s": total("stabilizer.from_generators"),
        "stabilizer.canonical_s": total("stabilizer.canonical"),
        "genseq.execute_sequence_s": total("genseq.execute_sequence"),
        "genseq.logical_bell_tableau_s": total("genseq.logical_bell_tableau"),
    }
    metrics = {k: v / rounds for k, v in per_round.items()}
    metrics["montecarlo.world_mb"] = tracer.max_world_bytes / 1e6
    metrics["montecarlo.samples_per_s"] = rate(tracer.counts["samples"], total("montecarlo.run"))
    metrics["search.shapes_per_s"] = rate(tracer.counts["shapes"], total("search.evaluate_all"))
    metrics["genseq.photons_per_s"] = rate(tracer.counts["photons"],
                                           total("genseq.verify_bell_pair"))
    return metrics
