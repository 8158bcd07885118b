"""Run one workload of the benchmark and print its metrics.

    python3 loadbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and measures the checkout's own
``src/`` tree through its public API. With ``--trace 0`` the last line
of standard output is the end-to-end metrics; with ``--trace 1`` the
run alternates untraced and traced blocks and reports the per-layer
metrics of the traced ones (see ``layers.json``). Lines before it start
with ``#`` and record the environment, the host probe and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

WORKLOADS = ("study-cnn", "campaign-sweep", "service-durable")
END_TO_END_UNITS = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "ttff_ms_p50": "ms",
    "studies_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYERS = json.loads((BENCH / "layers.json").read_text())


def load_program() -> None:
    """Import the checkout's ``src/repro``, and nothing else by that name."""
    sys.path.insert(0, str(harness.SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if harness.SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {harness.SRC}")


def make_workload(name: str, seed: int, recorder, work_dir: Path, trace: bool):
    if name == "campaign-sweep":
        from campaigns import CampaignWorkload

        return CampaignWorkload(seed, recorder, work_dir, trace)
    if name == "service-durable":
        from service import ServiceWorkload

        return ServiceWorkload(seed, recorder, work_dir)
    from studies import StudyWorkload

    return StudyWorkload(name, seed, recorder, trace)


def measure(workload, seconds: float, trace: bool) -> dict:
    """Whole blocks for about ``seconds``: another block starts only if
    it is expected to end nearer the deadline than stopping now. In a
    traced run untraced and traced blocks alternate, and both kinds run
    at least once."""
    wall = {False: 0.0, True: 0.0}
    studies = {False: 0, True: 0}
    blocks = {False: 0, True: 0}
    cpu_traced = 0.0
    traced = False
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        done = blocks[False] + blocks[True]
        if done and (blocks[True] or not trace):
            if elapsed + elapsed / done / 2.0 >= seconds:
                break
        began, cpu = perf_counter(), harness.cpu_seconds()
        studies[traced] += workload.block(traced)
        wall[traced] += perf_counter() - began
        blocks[traced] += 1
        if traced:
            cpu_traced += harness.cpu_seconds() - cpu
        if trace:
            traced = not traced
    return {
        "wall_s": perf_counter() - start,
        "studies": studies,
        "block_wall_s": wall,
        "blocks": blocks,
        "cpu_traced_s": cpu_traced,
    }


def layer_metrics(workload, run: dict, probe_ms: float) -> dict:
    values = {name: 0.0 for name in LAYERS}
    values.update(workload.layers())
    rate = {
        mode: run["studies"][mode] / max(1e-9, run["block_wall_s"][mode])
        for mode in (False, True)
    }
    values["trace.overhead_pct"] = (1.0 - rate[True] / max(1e-9, rate[False])) * 100.0
    values["process.cpu_per_wall"] = run["cpu_traced_s"] / max(
        1e-9, run["block_wall_s"][True]
    )
    if not values["process.blas_threads"]:
        values["process.blas_threads"] = harness.blas_threads()
    values["host.probe_ms"] = probe_ms
    return {name: harness.metric(values[name], LAYERS[name]["unit"]) for name in LAYERS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops what it started (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    removed = harness.clean_thread_env()
    load_program()
    from tracing import Recorder

    work_dir = harness.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    (work_dir / "sink").mkdir(parents=True)
    workload = None
    try:
        print("# env " + json.dumps(harness.environment(removed), sort_keys=True))
        probe_before = harness.host_probe_ms()
        recorder = Recorder(sink_dir=work_dir / "sink")
        workload = make_workload(
            args.workload, args.seed, recorder, work_dir, bool(args.trace)
        )
        workload.warm_up()
        steal_before = harness.host_steal_s()
        run = measure(workload, args.seconds, bool(args.trace))
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        steal = harness.host_steal_s() - steal_before
        probe_after = harness.host_probe_ms()
        tally = workload.tally
        print(
            "# probe "
            + json.dumps(
                {
                    "before_ms": probe_before,
                    "after_ms": probe_after,
                    "steal_s": steal,
                    "steal_share": steal / (run["wall_s"] * (os.cpu_count() or 1)),
                }
            )
        )
        print(
            "# run "
            + json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "wall_s": run["wall_s"],
                    "blocks": {"untraced": run["blocks"][False], "traced": run["blocks"][True]},
                    "studies": {"untraced": run["studies"][False], "traced": run["studies"][True]},
                    "requests_measured": workload.requests,
                    "references_computed": workload.refs.computed,
                    "failures": tally.reasons,
                }
            )
        )
        if args.trace:
            metrics = layer_metrics(
                workload, run, (probe_before + probe_after) / 2.0
            )
        else:
            values = workload.end_to_end(run["block_wall_s"][False])
            values["peak_rss_mb"] = harness.peak_rss_mb()
            metrics = {
                name: harness.metric(values[name], unit)
                for name, unit in END_TO_END_UNITS.items()
            }
        print(
            json.dumps(
                {
                    "correct": tally.mismatches == 0,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        if workload is not None and getattr(workload, "server", None) is not None:
            workload.server.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
