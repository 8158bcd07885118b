"""Regenerate ``references.json``: the oracle output of every config a
run can use, for the machine this runs on.

    python3 loadbench/refgen.py [WORKLOAD ...]

With workload names, only those are recomputed and the rest of the
file is kept (when it was made on a machine with the same fingerprint).

The oracles are the program's own reference paths: the serial executor
for the study workloads, the in-process ``jobs=1`` study for campaign
sweeps, and an in-process ``run_study`` for served studies. A run on a
machine whose fingerprint differs computes them itself instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import campaigns  # noqa: E402
import harness  # noqa: E402
import service  # noqa: E402
import studies  # noqa: E402


def main(names: list[str]) -> int:
    harness.clean_thread_env()
    import repro.core  # noqa: F401  (loads every BLAS copy the runs load)

    catalogues = {
        "study-cnn": (studies.catalogue("study-cnn"), studies.oracle),
        "campaign-sweep": (campaigns.catalogue(), campaigns.oracle),
        "service-durable": (service.catalogue(), service.oracle),
    }
    out = {"fingerprint": harness.fingerprint(), "workloads": {}}
    if names and harness.REFERENCES.exists():
        stored = json.loads(harness.REFERENCES.read_text())
        if stored["fingerprint"] == out["fingerprint"]:
            out["workloads"] = stored["workloads"]
    for name, (configs, oracle) in catalogues.items():
        if names and name not in names:
            continue
        out["workloads"][name] = {c.config_hash(): oracle(c) for c in configs}
        print(f"{name}: {len(configs)} references", flush=True)
    harness.REFERENCES.write_text(json.dumps(out, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
