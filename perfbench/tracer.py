"""Outside-in layer tracing for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: each layer's public
function is wrapped in every module that bound it by name (a function
imported with ``from m import f`` lives on in each importer's globals), and
methods are wrapped on their class.  The program's own tracing stays off.

Span records use the shape :mod:`repro.obs.export` writes
(``name, ts, dur, pid, tid, id, parent, attrs``; ns from
``perf_counter_ns``).  They stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children —
wrapped calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

__all__ = ["Tracer", "WRAPPED", "SETUP_LAYERS", "op_layer_names"]


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    sig = inspect.signature(fn)
    return sig.bind(*args, **kwargs).arguments


def _count_delta(fn, args, kwargs, out) -> dict:
    return {"edges": int(out.edges_added + out.edges_removed)}


def _count_minwise(fn, args, kwargs, out) -> dict:
    a = _bound(fn, args, kwargs)
    # Bytes gathered: one 4-byte hash lane per sample per closed-neighbour
    # slot, 4 B · T · (2m + n).
    return {"gather_bytes": 4 * int(a["num_samples"]) * (int(a["indices"].size) + int(a["n"]))}


def _count_acd(fn, args, kwargs, out) -> dict:
    return {"cliques": int(out.num_cliques)}


def _count_multitrial(fn, args, kwargs, out) -> dict:
    return {
        "colored": int(out.colored),
        "attempts": int(sum(it["active"] for it in out.per_iteration)),
    }


def _count_trycolor(fn, args, kwargs, out) -> dict:
    return {"colored": int(out), "attempts": int(len(_bound(fn, args, kwargs)["participants"]))}


def _count_batch(fn, args, kwargs, out) -> dict:
    return {
        "conflicts": int(out.conflicts),
        "recolored": int(out.recolored),
        "fallbacks": int(out.mode == "fallback"),
    }


# (metric name, module, attribute or Class.method, counter).  Several
# entries may share a name: their spans aggregate under it.
WRAPPED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("network.build", "repro.simulator.network", "BroadcastNetwork.__init__", None),
    ("network.apply_delta", "repro.simulator.network", "BroadcastNetwork.apply_delta", _count_delta),
    ("fingerprints.minwise", "repro.hashing.fingerprints", "minwise_fingerprints", _count_minwise),
    ("fingerprints.pack", "repro.hashing.fingerprints", "pack_fingerprints", None),
    ("minhash.sketch", "repro.decomposition.minhash", "compute_sketches", None),
    ("minhash.estimate", "repro.decomposition.minhash", "estimate_edge_similarity", None),
    ("acd.decompose", "repro.decomposition.acd", "decompose_distributed", _count_acd),
    ("cliques.info", "repro.core.cliques", "compute_clique_info", None),
    ("slack.generate", "repro.core.slack", "generate_slack", None),
    ("matching.colorful", "repro.core.matching", "colorful_matching", None),
    ("putaside.select", "repro.core.putaside", "select_putaside_sets", None),
    ("putaside.color", "repro.core.putaside", "color_putaside_sets", None),
    ("sct.trial", "repro.core.sct", "synchronized_color_trial", None),
    ("multitrial.run", "repro.core.multitrial", "multitrial", _count_multitrial),
    ("trycolor.round", "repro.core.trycolor", "try_color_round", _count_trycolor),
    ("state.adopt", "repro.core.state", "ColoringState.adopt", None),
    ("algorithm.run", "repro.core.algorithm", "BroadcastColoring.run", None),
    ("dynamic.init", "repro.dynamic.engine", "DynamicColoring.__init__", None),
    ("dynamic.apply_batch", "repro.dynamic.engine", "DynamicColoring.apply_batch", _count_batch),
    ("dynamic.detect", "repro.dynamic.engine", "DynamicColoring._detect_conflicts", None),
    ("dynamic.repair", "repro.dynamic.engine", "DynamicColoring._repair", None),
    ("dynamic.audit", "repro.dynamic.engine", "DynamicColoring.is_proper", None),
    ("dynamic.audit", "repro.dynamic.engine", "DynamicColoring.is_complete", None),
    ("dynamic.audit", "repro.dynamic.engine", "DynamicColoring.colors_used", None),
)

# Layers that only run while the program is set up: reported per set-up,
# not per op.
SETUP_LAYERS = ("network.build", "dynamic.init")


def op_layer_names() -> list[str]:
    """Wrapped layers reported per op, in table order."""
    seen: list[str] = []
    for name, *_ in WRAPPED:
        if name not in SETUP_LAYERS and name not in seen:
            seen.append(name)
    return seen


class Tracer:
    """In-memory span recorder whose wrappers are installed only around
    the calls the benchmark chooses to trace."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._next_id = 1
        self._pid = os.getpid()
        self._sites: list[tuple[Any, str, Any, Any]] = []
        for name, module, qual, counter in WRAPPED:
            owner: Any = importlib.import_module(module)
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if path:  # a method: one binding, on its class
                self._sites.append((owner, attr, original, wrapper))
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, key, original, wrapper))

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if counter is not None:
                rec["attrs"].update(counter(fn, args, kwargs, out))
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------
    def open(self, name: str, **attrs: Any) -> dict[str, Any]:
        rec = {
            "name": name,
            "ts": time.perf_counter_ns(),
            "dur": 0,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "attrs": attrs,
        }
        self._next_id += 1
        self._stack.append(rec)
        return rec

    def close(self, rec: dict[str, Any]) -> None:
        rec["dur"] = time.perf_counter_ns() - rec["ts"]
        self._stack.pop()
        self.spans.append(rec)

    @contextmanager
    def root(self, name: str, **attrs: Any):
        """A root span (``setup``, ``op`` or ``read``) with the layer
        wrappers installed for its duration."""
        self.install()
        rec = self.open(name, **attrs)
        try:
            yield rec
        finally:
            self.close(rec)
            self.uninstall()

    # -- aggregation ------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, Any]]:
        """Per root kind (``setup``, ``op``, ``read``), per span name: total self ns,
        total inclusive ns, calls, summed attrs; plus the root count."""
        by_id = {rec["id"]: rec for rec in self.spans}
        child_ns: dict[int, int] = defaultdict(int)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["dur"]
        root_of: dict[int, dict[str, Any]] = {}

        def find_root(rec: dict[str, Any]) -> dict[str, Any]:
            chain = []
            while rec["parent"] is not None and rec["id"] not in root_of:
                chain.append(rec)
                rec = by_id[rec["parent"]]
            root = root_of.get(rec["id"], rec)
            for r in chain:
                root_of[r["id"]] = root
            return root

        out: dict[str, dict[str, Any]] = {}
        for rec in self.spans:
            root = find_root(rec)
            table = out.setdefault(root["name"], {"roots": 0, "layers": {}})
            if rec is root:
                table["roots"] += 1
            row = table["layers"].setdefault(
                rec["name"], {"self_ns": 0, "incl_ns": 0, "calls": 0, "attrs": defaultdict(int)}
            )
            row["self_ns"] += rec["dur"] - child_ns[rec["id"]]
            row["incl_ns"] += rec["dur"]
            row["calls"] += 1
            for key, value in rec["attrs"].items():
                if isinstance(value, (int, float)):
                    row["attrs"][key] += value
        return out
