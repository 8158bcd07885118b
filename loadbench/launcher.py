"""Traced ``repro serve``: install the layer wrappers, then serve.

Run as ``python3 loadbench/launcher.py --stats FILE <repro serve
flags>``. Wraps the in-process layers (see :mod:`tracing`) plus the
service's own: the metrics middleware (server-side request time), job
submission and study build (queue wait), study checkpoints (time and
bytes per config), and journal appends and compactions (time and
snapshot size). Hands the remaining flags to the ``repro serve``
command unchanged and writes the numbers to FILE when the server exits.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from harness import blas_threads, peak_rss_mb  # noqa: E402
from tracing import Recorder  # noqa: E402


def install(recorder: Recorder, state: dict) -> None:
    from repro.core.config import config_hash
    from repro.core.study import Study
    from repro.service.jobs import JobManager
    from repro.service.middleware import MetricsMiddleware
    from repro.service.persistence import JobJournal

    recorder.install()
    submitted: dict[str, float] = {}

    handle = MetricsMiddleware.handle

    def timed_handle(self, ctx, request, call_next):
        start = perf_counter()
        try:
            return handle(self, ctx, request, call_next)
        finally:
            if request.method == "POST" and request.path == "/studies":
                recorder.sample("service.http.post", (perf_counter() - start) * 1000.0)

    submit = JobManager.submit

    def timed_submit(self, config, request_id=""):
        now = perf_counter()
        job, created = submit(self, config, request_id)
        if created:
            submitted[job.config_hash] = now
        return job, created

    build = Study.build

    def timed_build(self):
        queued = submitted.pop(config_hash(self.config), None)
        if queued is not None:
            recorder.sample("service.job.queue_wait", (perf_counter() - queued) * 1000.0)
        return build(self)

    checkpoint = Study.checkpoint

    def timed_checkpoint(self, path):
        start = perf_counter()
        out = checkpoint(self, path)
        recorder.sample("service.checkpoint", (perf_counter() - start) * 1000.0)
        size = os.path.getsize(out)
        key = config_hash(self.config)
        count, total = state["checkpoints"].get(key, (0, 0))
        state["checkpoints"][key] = (count + 1, total + size)
        return out

    append = JobJournal.append

    def timed_append(self, event):
        before = _identity(self.snapshot_path)
        start = perf_counter()
        append(self, event)
        elapsed = (perf_counter() - start) * 1000.0
        if _identity(self.snapshot_path) != before:
            _compacted(self.snapshot_path, elapsed)
        else:
            recorder.sample("service.journal.append", elapsed)

    compact = JobJournal.compact

    def timed_compact(self):
        start = perf_counter()
        compact(self)
        _compacted(self.snapshot_path, (perf_counter() - start) * 1000.0)

    def _compacted(path, elapsed):
        recorder.sample("service.journal.compact", elapsed)
        if path.exists():
            state["snapshot_bytes"] = max(state["snapshot_bytes"], path.stat().st_size)

    recorder.patch(MetricsMiddleware, "handle", timed_handle)
    recorder.patch(JobManager, "submit", timed_submit)
    recorder.patch(Study, "build", timed_build)
    recorder.patch(Study, "checkpoint", timed_checkpoint)
    recorder.patch(JobJournal, "append", timed_append)
    recorder.patch(JobJournal, "compact", timed_compact)


def _identity(path: Path):
    try:
        stat = path.stat()
    except FileNotFoundError:
        return None
    return stat.st_ino, stat.st_mtime_ns


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--stats":
        print("usage: launcher.py --stats FILE <repro serve flags>", file=sys.stderr)
        return 2
    stats_path = Path(argv[1])
    recorder = Recorder()
    state = {"checkpoints": {}, "snapshot_bytes": 0}
    install(recorder, state)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv[2:]])
    finally:
        recorder.uninstall()
        stats_path.write_text(
            json.dumps(
                {
                    "ms": dict(recorder.ms),
                    "calls": dict(recorder.calls),
                    "samples": dict(recorder.samples),
                    "checkpoints": state["checkpoints"],
                    "snapshot_bytes": state["snapshot_bytes"],
                    "blas_threads": blas_threads(),
                    "peak_rss_mb": peak_rss_mb(),
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
