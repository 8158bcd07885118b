"""``service-durable``: two clients against ``repro serve --state-dir``.

The server runs in its own process with default flags, so the client
threads never share its interpreter lock. Each client loops: ``POST
/studies``, read the SSE stream to its ``end`` event, ``GET`` the
result. A batch holds 24 submissions; every fourth repeats a config
that finished in an earlier batch (the response cache / dedup read
path), the rest carry a config the server has not seen (build, run,
journal and per-round checkpoint: the write path). Before each batch
the server is stopped and started again on the same state directory,
so every start replays the growing journal and snapshot.

Fresh configs come from a catalogue of 1024 whose outputs are stored
in ``references.json``; the seed permutes it. After the run every
served result must equal an in-process ``run_study`` of its config,
byte for byte, and every SSE round frame the matching record.
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from time import perf_counter

from harness import BENCH_DIR, ROOT, SRC, References, Tally, median, p90, sha
from studies import AXES

BATCH = 24
REPEAT_EVERY = 4  # one submission in four repeats a finished config
WARM_UP = 4
SERVED_ROUNDS = 6
SEED_POOL = 128
START_TIMEOUT_S = 60.0


def config_for(view: int, dynamic: bool, beta, seed: int):
    from repro.experiments.configs import scaled_config

    split = "iid" if beta is None else "dir"
    sampling = "dynamic" if dynamic else "static"
    return scaled_config("purchase100", "tiny").with_overrides(
        name=f"served-v{view}-{sampling}-{split}-s{seed}",
        rounds=SERVED_ROUNDS,
        view_size=view,
        dynamic=dynamic,
        beta=beta,
        seed=seed,
    )


def catalogue() -> list:
    return [config_for(*axes, seed) for seed in range(SEED_POOL) for axes in AXES]


def oracle(config) -> dict:
    """What the service must serve: an in-process ``run_study``."""
    from repro.core import run_study

    result = run_study(config)
    return {
        "result": sha(result.to_json()),
        "frames": [sha(record.to_json()) for record in result.rounds],
    }


def _server_child() -> None:
    """Runs in the forked child before exec. The server stops on SIGINT
    even when the caller's shell ignores it, and the kernel sends it
    SIGTERM if the benchmark process dies first."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class Server:
    """One ``repro serve`` process on the shared state directory.

    Started from the main thread only: the parent-death signal is tied
    to the thread that forks.
    """

    def __init__(self, state_dir: Path, log, stats_path: Path | None) -> None:
        if stats_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli", "serve"]
        else:
            command = [
                sys.executable,
                "-u",
                str(BENCH_DIR / "launcher.py"),
                "--stats",
                str(stats_path),
            ]
        command += ["--state-dir", str(state_dir), "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        start = perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            preexec_fn=_server_child,
        )
        try:
            line = self.process.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            host_port = line.rsplit("http://", 1)[1].strip()
            self.host, port = host_port.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - start

    def _wait_healthy(self, start: float) -> None:
        while perf_counter() - start < START_TIMEOUT_S:
            conn = HTTPConnection(self.host, self.port, timeout=10)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server never answered /healthz")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Op:
    """One submission and everything it returned."""

    __slots__ = (
        "config", "fresh", "error", "cache", "frames", "ids", "end",
        "result", "request_ms", "ttff_ms",
    )

    def __init__(self, config, fresh: bool) -> None:
        self.config = config
        self.fresh = fresh
        self.error: str | None = None
        self.cache = None
        self.frames: list[str] = []
        self.ids: list[str] = []
        self.end = None
        self.result = None
        self.request_ms = 0.0
        self.ttff_ms = 0.0


def _read_events(response):
    """Yield ``(event, id, data)`` from an SSE response."""
    event, event_id, data = None, None, []
    while True:
        raw = response.readline()
        if not raw:
            return
        line = raw.decode("utf-8").rstrip("\r\n")
        if not line:
            if data or event is not None:
                yield event, event_id, "\n".join(data)
            event, event_id, data = None, None, []
        elif line.startswith("event:"):
            event = line[6:].strip()
        elif line.startswith("id:"):
            event_id = line[3:].strip()
        elif line.startswith("data:"):
            data.append(line[5:].lstrip(" "))


def serve_one(host: str, port: int, conn: HTTPConnection, op: Op) -> None:
    """POST, stream to ``end``, GET the result; fills ``op``."""
    body = json.dumps(op.config.to_dict()).encode()
    start = perf_counter()
    conn.request("POST", "/studies", body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    op.cache = response.getheader("X-Cache")
    if not 200 <= response.status < 300:
        op.error = f"POST /studies -> {response.status}"
        return
    job = json.loads(payload)
    stream = HTTPConnection(host, port, timeout=120)
    try:
        stream.request("GET", job["stream_url"])
        events = stream.getresponse()
        if events.status != 200:
            op.error = f"GET stream -> {events.status}"
            return
        for event, event_id, data in _read_events(events):
            if event == "round":
                if not op.frames:
                    op.ttff_ms = (perf_counter() - start) * 1000.0
                op.frames.append(sha(data))
                op.ids.append(event_id)
            elif event == "end":
                op.request_ms = (perf_counter() - start) * 1000.0
                op.end = json.loads(data)
                break
    finally:
        stream.close()
    conn.request("GET", job["result_url"])
    response = conn.getresponse()
    result = response.read()
    if response.status != 200:
        op.error = f"GET result -> {response.status}"
        return
    op.result = sha(result)


def check_op(op: Op, ref: dict) -> bool:
    """Served frames, event ids, end event and result bytes against the
    in-process reference."""
    rounds = len(ref["frames"])
    return (
        op.frames == ref["frames"]
        and op.ids == [str(i) for i in range(rounds)]
        and op.end == {"status": "done", "rounds": rounds}
        and op.result == ref["result"]
    )


class ServiceWorkload:
    """A block is one server start followed by one batch."""

    name = "service-durable"
    clients = 2

    def __init__(self, seed: int, recorder, work_dir: Path) -> None:
        self.fresh_configs = catalogue()
        random.Random(f"service-durable:{seed}").shuffle(self.fresh_configs)
        self.refs = References(self.name, oracle)
        self.work_dir = work_dir
        self.state_dir = work_dir / "state"
        self.log = open(work_dir / "server.log", "w")
        self.tally = Tally()
        self.server: Server | None = None
        self.next_fresh = 0
        self.done: list = []  # finished configs, in submission order
        self.ops: list[Op] = []
        self.batches = 0
        self.setup_s: list[float] = []
        self.samples: list[Op] = []  # untraced, measured
        self.traced_ops: list[Op] = []
        self.stats_paths: list[Path] = []
        self.first_traced_fresh: list = []

    # -- server lifecycle -------------------------------------------------

    def _restart(self, traced: bool) -> Server:
        if self.server is not None:
            self.server.stop()
            self.server = None
        stats = None
        if traced:
            stats = self.work_dir / f"stats-{self.batches}.json"
            self.stats_paths.append(stats)
        self.server = Server(self.state_dir, self.log, stats)
        return self.server

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.log.close()
        self._verify()

    # -- load -------------------------------------------------------------

    def _plan(self, size: int) -> list[Op]:
        ops = []
        for i in range(size):
            if i % REPEAT_EVERY == REPEAT_EVERY - 1 and self.done:
                pick = (self.batches * size + i) // REPEAT_EVERY
                ops.append(Op(self.done[pick % len(self.done)], fresh=False))
                continue
            if self.next_fresh >= len(self.fresh_configs):
                raise RuntimeError("fresh config catalogue exhausted")
            ops.append(Op(self.fresh_configs[self.next_fresh], fresh=True))
            self.next_fresh += 1
        return ops

    def _batch(self, ops: list[Op]) -> None:
        server = self.server
        index = iter(range(len(ops)))
        lock = threading.Lock()

        def client() -> None:
            conn = HTTPConnection(server.host, server.port, timeout=120)
            try:
                while True:
                    with lock:
                        i = next(index, None)
                    if i is None:
                        return
                    try:
                        serve_one(server.host, server.port, conn, ops[i])
                    except Exception as exc:  # counted as a failed operation
                        ops[i].error = f"{type(exc).__name__}: {exc}"
                        conn.close()
                        conn = HTTPConnection(server.host, server.port, timeout=120)
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.ops.extend(ops)
        self.done.extend(op.config for op in ops if op.error is None and op.fresh)
        self.batches += 1

    def warm_up(self) -> None:
        self._restart(traced=False)
        self._batch(self._plan(WARM_UP))

    def block(self, traced: bool) -> int:
        server = self._restart(traced)
        ops = self._plan(BATCH)
        self._batch(ops)
        served = [op for op in ops if op.error is None]
        if traced:
            self.traced_ops.extend(served)
            if not self.first_traced_fresh:
                self.first_traced_fresh = [op.config for op in served if op.fresh]
        else:
            self.setup_s.append(server.setup_s)
            self.samples.extend(served)
        return len(served)

    # -- checks and metrics -----------------------------------------------

    def _verify(self) -> None:
        for op in self.ops:
            if op.error is not None:
                self.tally.fail(f"{op.config.name}: {op.error}")
            else:
                self.tally.check(
                    check_op(op, self.refs.get(op.config)),
                    f"{op.config.name}: served output differs from run_study",
                )

    @property
    def requests(self) -> int:
        return len(self.samples)

    def end_to_end(self, wall_s: float) -> dict:
        ops = self.samples
        return {
            "setup_s": median(self.setup_s),
            "request_ms_p50": median([op.request_ms for op in ops]),
            "request_ms_p90": p90([op.request_ms for op in ops]),
            "ttff_ms_p50": median([op.ttff_ms for op in ops]),
            "studies_per_s": len(ops) / wall_s,
        }

    def layers(self) -> dict:
        stats = [json.loads(p.read_text()) for p in self.stats_paths if p.exists()]

        def merged(key: str) -> list[float]:
            return [v for s in stats for v in s["samples"].get(key, [])]

        def total(field: str, key: str) -> float:
            return sum(s[field].get(key, 0) for s in stats)

        rounds = max(1, total("calls", "gossip.round"))
        checkpoint_bytes = {}
        for s in stats:
            for key, (count, size) in s["checkpoints"].items():
                old = checkpoint_bytes.get(key, (0, 0))
                checkpoint_bytes[key] = (old[0] + count, old[1] + size)
        first = [
            checkpoint_bytes[c.config_hash()]
            for c in self.first_traced_fresh
            if c.config_hash() in checkpoint_bytes
        ]
        traced = self.traced_ops
        hits = sum(1 for op in traced if op.cache == "hit")
        appends = merged("service.journal.append")
        checkpoints = merged("service.checkpoint")
        compactions = merged("service.journal.compact")
        return {
            "nn.batched_forward.ms": total("ms", "nn.batched_forward") / rounds,
            "metrics.evaluator.ms": total("ms", "metrics.evaluator") / rounds,
            "privacy.mia.reports_ms": total("ms", "privacy.mia.reports") / rounds,
            "core.observer.observe_ms": total("ms", "core.observer.observe") / rounds,
            "core.study.build_ms": total("ms", "core.study.build")
            / max(1, sum(1 for op in traced if op.fresh)),
            "service.http.post_ms_p50": median(merged("service.http.post") or [0.0]),
            "service.job.queue_wait_ms_p50": median(
                merged("service.job.queue_wait") or [0.0]
            ),
            "service.checkpoint.ms": sum(checkpoints) / max(1, len(checkpoints)),
            "service.checkpoint.bytes": sum(b for _, b in first)
            / max(1, sum(c for c, _ in first)),
            "service.journal.append_ms": sum(appends) / max(1, len(appends)),
            "service.journal.compact_ms": sum(compactions) / max(1, len(compactions)),
            "service.snapshot.bytes": max(
                [s["snapshot_bytes"] for s in stats] or [0]
            ),
            "service.cache.hit_share": hits / max(1, len(traced)),
            "process.blas_threads": max([s["blas_threads"] for s in stats] or [0]),
        }
