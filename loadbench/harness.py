"""Shared pieces of the benchmark.

Timing statistics, the run environment, the host drift probe, output
digests, the stored-reference check and the operation tally. Nothing
here imports the program at module level: ``run.py`` first makes sure
the program under test is the checkout's own ``src/`` tree.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"
WORK_ROOT = ROOT / ".loadbench-work"

# The caller's shell must not choose the thread budget the program
# runs with; the benchmark removes these and sets none of its own.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- statistics ---------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """Linear-interpolated 90th percentile."""
    values = sorted(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


# -- environment --------------------------------------------------------


def clean_thread_env(environ=os.environ) -> dict:
    """Drop the BLAS/OpenMP thread variables; returns what was removed."""
    return {name: environ.pop(name) for name in THREAD_ENV if name in environ}


def _openblas_libs() -> list:
    """Every OpenBLAS library loaded in this process, via ``ctypes``.

    numpy and scipy each bring their own copy, each with its own
    thread pool.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = []
    for line in maps.splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and ".so" in path and path not in paths:
            paths.append(path)
    libs = []
    for path in paths:
        try:
            libs.append((Path(path).name, ctypes.CDLL(path)))
        except OSError:
            continue
    return libs


def _blas_call(lib, stem: str, restype):
    for name in (
        f"scipy_openblas_{stem}64_",
        f"scipy_openblas_{stem}",
        f"openblas_{stem}64_",
        f"openblas_{stem}",
    ):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_threads_by_library() -> dict:
    """Threads each loaded OpenBLAS runs with."""
    out = {}
    for name, lib in _openblas_libs():
        value = _blas_call(lib, "get_num_threads", ctypes.c_int)
        if value is not None:
            out[name] = int(value)
    return out


def blas_threads() -> int:
    """Most threads any loaded OpenBLAS runs with (0 when unknown)."""
    return max(blas_threads_by_library().values(), default=0)


def blas_core() -> str:
    """The CPU kernel families the loaded OpenBLAS copies picked."""
    cores = []
    for _, lib in _openblas_libs():
        value = _blas_call(lib, "get_corename", ctypes.c_char_p)
        if value:
            cores.append(value.decode())
    return ",".join(sorted(set(cores))) or "unknown"


def blas_library() -> str:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """Content hash of ``src/`` — identifies the program when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    """What stored float64 digests depend on: library versions, the
    BLAS kernel family and the CPU count."""
    import numpy as np

    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_core": blas_core(),
        "cpus": os.cpu_count() or 1,
    }


def environment(removed_env: dict) -> dict:
    """The run environment recorded with every run."""
    return {
        **fingerprint(),
        "blas_threads": blas_threads_by_library(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_digest": source_digest(),
        "thread_env_removed": sorted(removed_env),
    }


# -- host drift probe ----------------------------------------------------


def host_probe_ms() -> float:
    """Fixed pure-Python loop plus fixed GEMM loop, best of three.

    Exercises no program code: a spread between runs that this probe
    shows too belongs to the machine, not to the program.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    b = rng.standard_normal((192, 192))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        for _ in range(30):
            a @ b
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def host_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs
    (all CPUs, since boot; 0 where the kernel does not report it)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


# -- resources ------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and every reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds() -> float:
    """CPU seconds of this process plus every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# -- output digests and references ------------------------------------------


def sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()[:24]


def rounds_digest(records) -> str:
    """Digest of a run's per-round records (the numbers that must be
    bit-identical across executors)."""
    return sha(json.dumps([r.to_dict() for r in records], sort_keys=True))


class References:
    """Reference digests stored in ``references.json``.

    Each workload maps a config hash to what the program's output must
    digest to, as computed by the oracle path (serial executor,
    ``jobs=1`` campaign, in-process ``run_study``). Stored values count
    only on a machine with the same :func:`fingerprint`; anywhere else,
    or for a config the file lacks, ``oracle(config)`` computes the
    reference in the run: before timing for the study and campaign
    workloads, after the measured window for the service.
    """

    def __init__(self, workload: str, oracle, path: Path = REFERENCES):
        self.oracle = oracle
        self._values: dict = {}
        if path.exists():
            payload = json.loads(path.read_text())
            if payload.get("fingerprint") == fingerprint():
                self._values = dict(payload["workloads"].get(workload, {}))
        self.computed = 0

    def get(self, config):
        key = config.config_hash()
        if key not in self._values:
            self._values[key] = self.oracle(config)
            self.computed += 1
        return self._values[key]


# -- operation tally ------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.reasons: list[str] = []

    def fail(self, reason: str, mismatch: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        self.mismatches += int(mismatch)
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        """Count one operation whose output was compared with a reference."""
        if ok:
            self.attempted += 1
        else:
            self.fail(reason, mismatch=True)
        return ok


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
