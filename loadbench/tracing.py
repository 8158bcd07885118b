"""Per-layer tracing from outside the program.

:class:`Recorder` wraps public functions of the program's modules and
accumulates, per layer, the time spent inside them (outermost call
only, so nested calls are not counted twice), how often they ran and
the work they were handed. Wrappers are installed for the traced
blocks of a run and removed again for the untraced ones, so the
program runs unmodified whenever end-to-end numbers are taken.

Forked children (campaign pool workers) inherit the
wrappers; each child buffers its own numbers and writes them to
``sink_dir/<pid>.json`` when it exits, and :meth:`Recorder.merge_children`
folds them in.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, class or None, attribute, layer key, counts rows)
IN_PROCESS_TARGETS = (
    ("repro.nn.batched", "BatchedModel", "forward", "nn.batched_model.fwd_bwd", True),
    ("repro.nn.batched", "BatchedModel", "backward", "nn.batched_model.fwd_bwd", False),
    ("repro.nn.optim", "BatchedSGD", "step", "nn.batched_sgd.step", False),
    ("repro.metrics.evaluation", None, "batched_forward", "nn.batched_forward", False),
    ("repro.metrics.evaluation", "BatchedEvaluator", "accuracy_rows", "metrics.evaluator", False),
    ("repro.metrics.evaluation", "BatchedEvaluator", "attack_observations", "metrics.evaluator", False),
    ("repro.metrics.evaluation", "BatchedEvaluator", "predict_proba_rows", "metrics.evaluator", False),
    ("repro.core.attacker", None, "mia_reports_batched", "privacy.mia.reports", False),
    ("repro.core.attacker", "OmniscientObserver", "__call__", "core.observer.observe", False),
    ("repro.gossip.engine", "FlatGossipSimulator", "run_round", "gossip.round", False),
    ("repro.experiments.runner", None, "save_result", "experiments.io.save", False),
    ("repro.core.study", "Study", "build", "core.study.build", False),
)


class Recorder:
    """Thread-safe per-layer accumulator behind the installed wrappers."""

    def __init__(self, sink_dir: Path | None = None) -> None:
        self.sink_dir = Path(sink_dir) if sink_dir is not None else None
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)

    # -- recording ------------------------------------------------------

    def _child_check(self) -> None:
        """First record in a forked child: start from zero and flush
        at the child's exit."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self._lock = threading.Lock()
        self.reset()
        if self.sink_dir is not None:
            from multiprocessing.util import Finalize

            Finalize(self, self._flush_child, exitpriority=100)

    def _flush_child(self) -> None:
        payload = {
            "ms": dict(self.ms),
            "calls": dict(self.calls),
            "rows": dict(self.rows),
            "samples": dict(self.samples),
        }
        path = self.sink_dir / f"{os.getpid()}.json"
        path.write_text(json.dumps(payload))

    def add(self, key: str, ms: float, rows: int = 0) -> None:
        self._child_check()
        with self._lock:
            self.ms[key] += ms
            self.calls[key] += 1
            self.rows[key] += rows

    def sample(self, key: str, value: float) -> None:
        self._child_check()
        with self._lock:
            self.samples[key].append(value)

    def merge_children(self) -> None:
        """Fold in (and delete) what exited children wrote."""
        if self.sink_dir is None:
            return
        for path in sorted(self.sink_dir.glob("*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            with self._lock:
                for key, value in payload["ms"].items():
                    self.ms[key] += value
                for key, value in payload["calls"].items():
                    self.calls[key] += value
                for key, value in payload["rows"].items():
                    self.rows[key] += value
                for key, values in payload["samples"].items():
                    self.samples[key].extend(values)

    # -- wrappers -------------------------------------------------------

    def timed(self, key: str, fn, count_rows: bool = False):
        """``fn`` wrapped to add its outermost wall time to ``key``."""
        recorder = self

        def wrapper(*args, **kwargs):
            depth = getattr(recorder._local, key, 0)
            if depth:
                return fn(*args, **kwargs)
            setattr(recorder._local, key, 1)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = (perf_counter() - start) * 1000.0
                setattr(recorder._local, key, 0)
                rows = len(args[1]) if count_rows and len(args) > 1 else 0
                recorder.add(key, elapsed, rows)

        return wrapper

    def patch(self, owner, name: str, replacement) -> None:
        """Swap ``owner.name`` for ``replacement`` until :meth:`uninstall`."""
        self._originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        for module_name, class_name, attr, key, count_rows in IN_PROCESS_TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self.patch(owner, attr, self.timed(key, getattr(owner, attr), count_rows))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)


# -- telemetry registry helpers --------------------------------------------


def series(snapshot: dict, name: str) -> list[dict]:
    return snapshot.get(name, {}).get("series", [])


def hist_sum(snapshot: dict, name: str, **labels) -> float:
    return sum(
        s["sum"]
        for s in series(snapshot, name)
        if all(s["labels"].get(k) == v for k, v in labels.items())
    )


def hist_count(snapshot: dict, name: str) -> int:
    return sum(s["count"] for s in series(snapshot, name))


def counter_total(snapshot: dict, name: str) -> float:
    return sum(s["value"] for s in series(snapshot, name))
