"""Span recorder for the traced benchmark run.

The recorder measures tapgen from outside: it replaces each public function
of the layer modules with a wrapper that records one span per call and
restores the originals afterwards.  tapgen modules import each other's
functions with ``from .x import f``, so a function is replaced in every
namespace that holds it (``tapgen.perturb.forward_cache`` as well as
``tapgen.netcore.forward_cache``), and calls inside one module, which go
through that module's globals, are caught too.

A span records its name, start, end, parent span and row count.  Spans are
kept in flat arrays in memory and written out, with a summary per span
name, when the run ends.  A layer's self time is the time its spans cover minus the
time covered by their child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("netcore", "probspace", "actionability", "perturb", "verify",
          "baselines", "bench")

# Functions taking a matrix or pair set: position of the argument whose
# length is the span's row count.  Every other function handles one row.
BATCH_ARG = {
    "netcore.predict_proba_batch": 1,
    "netcore.train_classifier": 0,
    "netcore.fit_temperature": 1,
    "verify.build_pair_dataset": 0,
    "verify.train_verifier": 0,
    "verify.same_class_prob_batch": 1,
    "verify.calibrate_gamma": 2,
}


def _rows(arg) -> int:
    return len(arg) if hasattr(arg, "__len__") else 1


class Tracer:
    """Records spans around tapgen's public functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rows = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[dict, str, object]] = []
        self._observers = {
            "perturb.generate_candidate": self._on_descent,
            "perturb.meet_budget": self._on_budget,
            "perturb.repair_on_rejection": self._on_repair,
            "netcore.train_classifier": self._on_train,
            "verify.verify_pair": self._on_verdict,
            "verify.build_pair_dataset": self._on_pairs,
            "baselines.cw_l2": self._on_cw,
        }

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, rows: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one workload phase."""
        idx = self._open(self._name_id(name), 1)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        row_arg = BATCH_ARG.get(name)
        observe = self._observers.get(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = 1 if row_arg is None else _rows(args[row_arg])
            idx = open_(name_id, rows)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                close(idx)
                if observe is not None:
                    observe(args, kwargs, None, err)
                raise
            close(idx)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    # -- counters read from arguments and results ---------------------------

    def _on_descent(self, args, kwargs, result, err) -> None:
        if err is not None:
            if type(err).__name__ == "DivergedError":
                self.counts["diverged"] += 1
            return
        oc = args[5] if len(args) > 5 else kwargs["oc"]
        self.counts["descent_iterations"] += result.iterations
        if result.iterations >= oc.max_iters:
            self.counts["max_iter_hits"] += 1
        else:
            self.counts["patience_stops"] += 1

    def _on_budget(self, args, kwargs, result, err) -> None:
        if result is not None:
            self.counts["budget_trials"] += len(result.trials)

    def _on_repair(self, args, kwargs, result, err) -> None:
        if result is not None:
            self.counts["repair_attempts"] += len(result.attempts)
            self.counts["repair_verified"] += bool(result.verified)

    def _on_train(self, args, kwargs, result, err) -> None:
        if result is not None:
            self.counts["train_epochs"] += result.metadata["epochs_run"]

    def _on_verdict(self, args, kwargs, result, err) -> None:
        if result is not None:
            self.counts["verdicts_accepted"] += bool(result.accepted)

    def _on_pairs(self, args, kwargs, result, err) -> None:
        if result is not None:
            self.counts["pairs_built"] += len(result)

    def _on_cw(self, args, kwargs, result, err) -> None:
        if result is not None:
            self.counts["cw_flips"] += bool(result.flipped)

    # -- installing and removing the wrappers -------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every public layer function wherever it is bound, in tapgen
        and in ``extra_modules`` (the benchmark's own)."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tapgen.{layer}")
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType)
                        and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        spaces = [m.__dict__ for name, m in list(sys.modules.items())
                  if name == "tapgen" or name.startswith("tapgen.")]
        spaces.extend(m.__dict__ for m in extra_modules)
        for ns in spaces:
            for attr, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, attr, value))
                    ns[attr] = hit[1]

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    @contextmanager
    def installed(self, extra_modules=()):
        self.install(extra_modules)
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries -----------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {"name": np.frombuffer(self.name_of, dtype=np.int32),
                "start": start, "dur": dur, "self": dur - child,
                "parent": parent,
                "rows": np.frombuffer(self.rows, dtype=np.int32)}

    def by_name(self) -> dict[str, dict[str, float]]:
        """count, total, self and rows summed per span name."""
        t = self.table()
        k = len(self.names)
        count = np.bincount(t["name"], minlength=k)
        total = np.bincount(t["name"], weights=t["dur"], minlength=k)
        own = np.bincount(t["name"], weights=t["self"], minlength=k)
        rows = np.bincount(t["name"], weights=t["rows"], minlength=k)
        return {name: {"count": int(count[i]), "total_s": float(total[i]),
                       "self_s": float(own[i]), "rows": int(rows[i])}
                for i, name in enumerate(self.names)}

    def top_level(self) -> list[tuple[str, float]]:
        t = self.table()
        top = np.flatnonzero(t["parent"] < 0)
        return [(self.names[t["name"][i]], float(t["dur"][i])) for i in top]

    def dump(self, path) -> None:
        """Write the full span table (npz) next to a JSON summary."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t = self.table()
        np.savez_compressed(path.with_suffix(".npz"),
                            names=np.array(self.names), name=t["name"],
                            start=t["start"] - (t["start"][0] if t["start"].size
                                                else 0.0),
                            dur=t["dur"], parent=t["parent"], rows=t["rows"])
        summary = {"spans": int(t["dur"].size), "by_name": self.by_name(),
                   "top_level": self.top_level(), "counts": dict(self.counts)}
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1))
