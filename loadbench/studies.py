"""``study-cnn``: one caller, back-to-back studies.

The catalogue crosses the paper's axes (view size 2 or 4, static or
dynamic peer sampling, iid or Dirichlet(0.5) splits) with eight program
seeds. The benchmark seed orders it; a run works through that order
four studies per block, so every run averages over many configs rather
than repeating a few whose cost depends on their seed. A traced run
repeats its first block, which keeps its exact counts the same from run
to run. Every study's per-round records must digest to the
serial-executor reference.
"""

from __future__ import annotations

import random
from time import perf_counter

from harness import References, Tally, median, p90, rounds_digest
from tracing import counter_total, hist_count, hist_sum

AXES = [
    (view, dynamic, beta)
    for view in (2, 4)
    for dynamic in (False, True)
    for beta in (None, 0.5)
]
SEED_POOL = 8
BLOCK = 4


def base_config():
    """CIFAR-10 / CNN at the tiny preset: ~0.1 s per round here."""
    from repro.experiments.configs import scaled_config

    return scaled_config("cifar10", "tiny", executor="batched")


def config_for(workload: str, view: int, dynamic: bool, beta, seed: int):
    split = "iid" if beta is None else "dir"
    sampling = "dynamic" if dynamic else "static"
    return base_config().with_overrides(
        name=f"{workload}-v{view}-{sampling}-{split}-s{seed}",
        view_size=view,
        dynamic=dynamic,
        beta=beta,
        seed=seed,
    )


def catalogue(workload: str) -> list:
    """Every config a run of ``workload`` can use (for references)."""
    return [
        config_for(workload, *axes, seed)
        for axes in AXES
        for seed in range(SEED_POOL)
    ]


def run_order(workload: str, seed: int) -> list:
    """The catalogue in the order a run with ``seed`` works through it."""
    configs = catalogue(workload)
    random.Random(f"{workload}:{seed}").shuffle(configs)
    return configs


def oracle(config) -> str:
    """Digest of the serial executor's records: the bit-identity oracle."""
    from repro.core import run_study

    return rounds_digest(run_study(config.with_overrides(executor="serial")).rounds)


class Samples:
    def __init__(self) -> None:
        self.build_s: list[float] = []
        self.round_ms: list[float] = []
        self.ttff_ms: list[float] = []
        self.studies = 0
        self.rounds = 0


def run_one(config, refs: References, tally: Tally, samples: Samples, telemetry=None):
    """One study, timed: build, each round, time to first record."""
    from repro.core import Study

    try:
        start = perf_counter()
        study = Study(config, telemetry=telemetry)
        try:
            built = perf_counter()
            study.build()
            build_s = perf_counter() - built
            round_ms = []
            rounds = study.iter_rounds()
            while True:
                asked = perf_counter()
                try:
                    next(rounds)
                except StopIteration:
                    break
                held = perf_counter()
                if not round_ms:
                    ttff_ms = (held - start) * 1000.0
                round_ms.append((held - asked) * 1000.0)
            digest = rounds_digest(study.result().rounds)
        finally:
            study.close()
    except Exception as exc:  # a failed study is a failed operation
        tally.fail(f"{config.name}: {type(exc).__name__}: {exc}")
        return
    if tally.check(digest == refs.get(config), f"{config.name}: digest {digest}"):
        samples.studies += 1
        samples.rounds += len(round_ms)
        samples.build_s.append(build_s)
        samples.ttff_ms.append(ttff_ms)
        samples.round_ms.extend(round_ms)


class StudyWorkload:
    """Back-to-back ``Study`` sessions, four per block."""

    def __init__(self, name: str, seed: int, recorder, trace: bool) -> None:
        from repro.telemetry import Telemetry

        self.name = name
        self.trace = trace
        self.order = run_order(name, seed)
        self.refs = References(name, oracle)
        for config in self.order:
            self.refs.get(config)
        self.recorder = recorder
        self.telemetry = Telemetry(enabled=True, annotate_results=False)
        self.tally = Tally()
        self.samples = Samples()
        self.traced = Samples()
        self._next = 0

    def warm_up(self) -> None:
        run_one(self.order[-1], self.refs, self.tally, Samples())

    def _next_block(self) -> list:
        if self.trace:  # both kinds of block replay the same studies
            return self.order[:BLOCK]
        start = self._next
        self._next += BLOCK
        return [self.order[i % len(self.order)] for i in range(start, self._next)]

    def block(self, traced: bool) -> int:
        configs = self._next_block()
        if not traced:
            for config in configs:
                run_one(config, self.refs, self.tally, self.samples)
            return len(configs)
        self.recorder.install()
        try:
            for config in configs:
                run_one(config, self.refs, self.tally, self.traced, self.telemetry)
        finally:
            self.recorder.uninstall()
            self.recorder.merge_children()
        return len(configs)

    @property
    def requests(self) -> int:
        return len(self.samples.round_ms)

    def end_to_end(self, wall_s: float) -> dict:
        s = self.samples
        return {
            "setup_s": median(s.build_s),
            "request_ms_p50": median(s.round_ms),
            "request_ms_p90": p90(s.round_ms),
            "ttff_ms_p50": median(s.ttff_ms),
            "studies_per_s": s.studies / wall_s,
        }

    def layers(self) -> dict:
        rounds = max(1, self.traced.rounds)
        rec = self.recorder
        snap = self.telemetry.registry.snapshot()
        out = {
            "nn.batched_model.fwd_bwd_ms": rec.ms["nn.batched_model.fwd_bwd"] / rounds,
            "nn.batched_model.rows": rec.rows["nn.batched_model.fwd_bwd"] / rounds,
            "nn.batched_sgd.step_ms": rec.ms["nn.batched_sgd.step"] / rounds,
            "nn.batched_forward.ms": rec.ms["nn.batched_forward"] / rounds,
            "metrics.evaluator.ms": rec.ms["metrics.evaluator"] / rounds,
            "privacy.mia.reports_ms": rec.ms["privacy.mia.reports"] / rounds,
            "core.observer.observe_ms": rec.ms["core.observer.observe"] / rounds,
            "core.study.build_ms": rec.ms["core.study.build"] / max(1, self.traced.studies),
        }
        out.update(engine_layers(snap, rec.ms["gossip.round"], rounds))
        return out


def engine_layers(snap: dict, round_ms_total: float, rounds: int) -> dict:
    """Engine and executor layers from a telemetry snapshot."""
    phase = {
        name: hist_sum(snap, "repro_engine_phase_ms", phase=name) / rounds
        for name in ("deliver", "wake", "train", "aggregate")
    }
    round_ms = round_ms_total / rounds
    out = {f"gossip.phase.{name}_ms": value for name, value in phase.items()}
    out["gossip.round_ms"] = round_ms
    out["gossip.unaccounted_ms"] = round_ms - phase["deliver"] - phase["wake"]
    out["gossip.executor.calls"] = hist_count(snap, "repro_executor_batch_ms") / rounds
    out["gossip.executor.tasks"] = counter_total(snap, "repro_executor_tasks_total") / rounds
    out["gossip.executor.fallback_rows"] = (
        counter_total(snap, "repro_engine_fallback_total") / rounds
    )
    return out
