"""``campaign-sweep``: back-to-back ``Campaign.from_grid`` sweeps.

Each campaign crosses the paper's topology axes (view size 2 or 4 x
static or dynamic peer sampling) over a short Purchase100/MLP base
study on the default serial executor, runs with ``jobs=None`` (the
default pool) and persists its results to a fresh ``out_dir``. The
benchmark seed orders the sixteen base seeds; a run works through that
order four campaigns per block (a traced run repeats its first block).
Every returned result must digest to the ``jobs=1`` reference, and
every persisted file must hold the returned result.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from time import perf_counter

from harness import References, Tally, median, p90, rounds_digest

AXES = {"view_size": [2, 4], "dynamic": [False, True]}
SEED_POOL = 16
BLOCK = 4


def base_config(seed: int):
    from repro.experiments.configs import scaled_config

    return scaled_config("purchase100", "tiny", rounds=1).with_overrides(
        name=f"sweep-s{seed}", seed=seed
    )


def grid(seed: int, out_dir=None):
    from repro.experiments import Campaign

    return Campaign.from_grid(base_config(seed), out_dir=out_dir, **AXES)


def catalogue() -> list:
    return [config for seed in range(SEED_POOL) for config in grid(seed).configs]


def run_order(seed: int) -> list[int]:
    """Base seeds in the order a run with ``seed`` works through them."""
    order = list(range(SEED_POOL))
    random.Random(f"campaign-sweep:{seed}").shuffle(order)
    return order


def oracle(config) -> str:
    """Digest of the study run in-process: the ``jobs=1`` code path."""
    from repro.core import run_study

    return rounds_digest(run_study(config).rounds)


class CampaignWorkload:
    """Back-to-back campaigns, four per block."""

    name = "campaign-sweep"

    def __init__(self, seed: int, recorder, work_dir, trace: bool) -> None:
        self.order = run_order(seed)
        self.trace = trace
        self._next = 0
        self.refs = References(self.name, oracle)
        for base_seed in self.order:
            for config in grid(base_seed).configs:
                self.refs.get(config)
        self.recorder = recorder
        self.work_dir = work_dir
        self.tally = Tally()
        self.setup_s: list[float] = []
        self.request_ms: list[float] = []
        self.ttff_ms: list[float] = []
        self.studies = 0
        self._count = 0
        # Traced blocks only.
        self.queue_wait_ms: list[float] = []
        self.study_wall_ms = 0.0
        self.pool_ms = 0.0
        self.traced_studies = 0

    def warm_up(self) -> None:
        self._campaign(self.order[-1], traced=False, record=False)

    def block(self, traced: bool) -> int:
        if self.trace:  # both kinds of block replay the same campaigns
            seeds = self.order[:BLOCK]
        else:
            seeds = [self.order[i % SEED_POOL] for i in range(self._next, self._next + BLOCK)]
            self._next += BLOCK
        if traced:
            self.recorder.install()
        try:
            return sum(self._campaign(s, traced) for s in seeds)
        finally:
            if traced:
                self.recorder.uninstall()
                self.recorder.merge_children()

    def _campaign(self, base_seed: int, traced: bool, record: bool = True) -> int:
        from repro.experiments import Campaign
        from repro.telemetry import Telemetry

        self._count += 1
        out_dir = self.work_dir / f"campaign-{self._count}"
        telemetry = Telemetry(enabled=True, annotate_results=False) if traced else None
        try:
            start = perf_counter()
            campaign = grid(base_seed, out_dir)
            if traced:
                campaign = Campaign(campaign.configs, out_dir, telemetry=telemetry)
            # The manifest a run writes first, timed as set-up; run()
            # re-reads it and finds it current.
            campaign._check_and_write_manifest()
            setup = perf_counter() - start
            workers = campaign.default_jobs()
            wall_ns = time.time_ns()
            asked = perf_counter()
            results = campaign.run()
            request = perf_counter() - asked
            first_ns = min(
                os.stat(campaign.result_path(c.name)).st_mtime_ns
                for c in campaign.configs
            )
            ok = True
            for config in campaign.configs:
                result = results[config.name]
                saved = campaign.result_path(config.name).read_text()
                if (
                    rounds_digest(result.rounds) != self.refs.get(config)
                    or saved != result.to_json()
                ):
                    ok = False
                    break
        except Exception as exc:  # a failed campaign is a failed operation
            self.tally.fail(f"campaign seed {base_seed}: {type(exc).__name__}: {exc}")
            return 0
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if not self.tally.check(ok, f"campaign seed {base_seed}: {config.name} differs"):
            return 0
        if record and not traced:
            self.setup_s.append(setup)
            self.request_ms.append(request * 1000.0)
            self.ttff_ms.append((first_ns - wall_ns) / 1e6)
            self.studies += len(results)
        if traced:
            snap = telemetry.registry.snapshot()
            waits = snap["repro_campaign_queue_wait_ms"]["series"]
            walls = snap["repro_campaign_study_wall_ms"]["series"]
            self.queue_wait_ms.extend(s["sum"] for s in waits)
            self.study_wall_ms += sum(s["sum"] for s in walls)
            self.pool_ms += workers * request * 1000.0
            self.traced_studies += len(results)
        return len(results)

    @property
    def requests(self) -> int:
        return len(self.request_ms)

    def end_to_end(self, wall_s: float) -> dict:
        return {
            "setup_s": median(self.setup_s),
            "request_ms_p50": median(self.request_ms),
            "request_ms_p90": p90(self.request_ms),
            "ttff_ms_p50": median(self.ttff_ms),
            "studies_per_s": self.studies / wall_s,
        }

    def layers(self) -> dict:
        rec = self.recorder
        studies = max(1, self.traced_studies)
        return {
            "experiments.pool.busy_share": self.study_wall_ms / max(1e-9, self.pool_ms),
            "experiments.campaign.queue_wait_ms_p50": median(self.queue_wait_ms),
            "experiments.io.save_ms": rec.ms["experiments.io.save"]
            / max(1, rec.calls["experiments.io.save"]),
            "core.study.build_ms": rec.ms["core.study.build"] / studies,
        }
