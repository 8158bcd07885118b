"""The study configuration and its stored layout.

:class:`StudyConfig` is the one in-memory description of a run: a flat,
frozen dataclass whose ``__post_init__`` validates every field. Stored
configs (service POSTs and journals, checkpoints, campaign manifests)
use a grouped JSON layout instead: :data:`LAYOUT` nests each field under
one of five group names. :meth:`StudyConfig.to_dict` writes that layout
and :meth:`StudyConfig.from_dict` reads it back, along with flat
payloads and any mix of the two.

:func:`config_hash` is the config's identity — the key of the service
cache, the job journal, checkpoints and benchmark references.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Mapping

__all__ = [
    "LAYOUT",
    "RETIRED_FIELDS",
    "StudyConfig",
    "config_hash",
]

# Stored layout: group name -> its field names, in stored order. Every
# StudyConfig field except ``name`` and ``seed`` (top-level keys)
# belongs to exactly one group.
LAYOUT: dict[str, tuple[str, ...]] = {
    "data": (
        "dataset",
        "n_train",
        "n_test",
        "image_size",
        "num_features",
        "train_per_node",
        "test_per_node",
        "beta",
    ),
    "model": (
        "model_width",
        "mlp_hidden",
        "learning_rate",
        "momentum",
        "weight_decay",
        "local_epochs",
        "batch_size",
        "label_smoothing",
        "lr_decay",
        "dropout",
    ),
    "topology": (
        "n_nodes",
        "view_size",
        "dynamic",
        "sampler",
        "protocol",
        "rounds",
        "ticks_per_round",
        "drop_prob",
        "failure_prob",
        "delay_ticks",
        "delay_jitter",
    ),
    "execution": (
        "executor",
        "n_shards",
        "shard_partition",
        "train_batch",
        "arena_dtype",
        "eval_batch",
        "max_global_test",
        "max_attack_samples",
        "keep_node_records",
    ),
    "privacy": ("dp_epsilon", "dp_delta", "dp_clip_norm", "n_canaries"),
}

# Fields that were removed, by group, at the only value each could
# still take. Stored configs carry them: from_dict drops them at these
# values, and config_hash puts them back so every stored hash still
# matches.
RETIRED_FIELDS: dict[str, dict[str, object]] = {
    "model": {"dropout_mode": "stream"},
    "execution": {"engine": "flat", "n_workers": 0},
}

# Every key a stored config may use at its top level.
_STORED_KEYS = frozenset(
    ("name", "seed", *LAYOUT, *(n for names in LAYOUT.values() for n in names))
)

# Architecture used for each dataset in Table 2.
_DATASET_MODELS = {
    "cifar10": "cnn",
    "cifar100": "resnet8",
    "fashion_mnist": "cnn",
    "purchase100": "mlp",
}
_DATASET_CLASSES = {
    "cifar10": 10,
    "cifar100": 100,
    "fashion_mnist": 10,
    "purchase100": 100,
}


def _reject_unknown_keys(where: str, keys, valid) -> None:
    """Raise a ValueError naming the offending and the valid keys, so a
    typo'd knob produces an actionable message instead of a dataclass
    ``TypeError``."""
    unknown = [k for k in keys if k not in valid]
    if unknown:
        raise ValueError(
            f"unknown {where} field(s): {', '.join(sorted(unknown))}; "
            f"valid fields are: {', '.join(sorted(valid))}"
        )


def _check_retired(group: str, key: str, value) -> bool:
    """Whether ``key`` is a retired field of ``group`` (then dropped).

    A retired field at any value other than its surviving one names a
    code path that no longer exists, so it raises a ValueError.
    """
    retired = RETIRED_FIELDS.get(group, {})
    if key not in retired:
        return False
    if value != retired[key]:
        raise ValueError(
            f"the {key!r} field was removed; stored configs may "
            f"only carry {key}={retired[key]!r}"
        )
    return True


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one experimental run.

    Construct it flat (``StudyConfig(n_nodes=8, ...)``); ``to_dict`` /
    ``from_dict`` round-trip the grouped :data:`LAYOUT` through JSON.
    """

    name: str = "study"
    # Data.
    dataset: str = "cifar10"
    n_train: int = 2_000
    n_test: int = 500
    image_size: int = 16
    num_features: int = 600
    train_per_node: int | None = 64
    test_per_node: int | None = 32
    beta: float | None = None  # None = i.i.d., else Dirichlet(beta)
    # Model.
    model_width: int = 8
    mlp_hidden: tuple[int, ...] = (256, 128, 64)
    # Communication.
    n_nodes: int = 16
    view_size: int = 2
    dynamic: bool = False
    sampler: str | None = None  # overrides `dynamic`: static/peerswap/fresh
    protocol: str = "samo"
    rounds: int = 10
    ticks_per_round: int = 100
    drop_prob: float = 0.0  # message-loss injection
    failure_prob: float = 0.0  # node-churn injection
    delay_ticks: int = 0  # network latency (ticks per message)
    delay_jitter: int = 0  # extra uniform latency in [0, jitter]
    # Execution engine (DESIGN.md "Flat-state execution engine").
    executor: str = "serial"  # "serial"/"batched"/"sharded"
    n_shards: int = 0  # shard workers; 0 = one per CPU (capped at n_nodes)
    shard_partition: str = "contiguous"  # row->shard map: contiguous/balanced
    train_batch: int = 0  # rows per blocked training op (0=all, -1=per-row)
    arena_dtype: str = "float64"  # flat-arena storage dtype
    # Local training (Table 2 columns).
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    local_epochs: int = 3
    batch_size: int = 32
    # Early-overfitting mitigations (Section 5 recommendations).
    label_smoothing: float = 0.0
    lr_decay: float = 1.0
    # Dropout regularization (MLP only). Masks come from counter-based
    # streams keyed by node/session/step, so dropout stays batchable.
    dropout: float = 0.0
    # Differential privacy (RQ7). ``dp_epsilon`` of None disables DP.
    dp_epsilon: float | None = None
    dp_delta: float = 1e-5
    dp_clip_norm: float = 1.0
    # Canary auditing (RQ3). 0 disables.
    n_canaries: int = 0
    # Evaluation.
    max_global_test: int = 512
    max_attack_samples: int = 256
    eval_batch: int = 0  # node models per blocked eval op (0=all, -1=per-node loop)
    keep_node_records: bool = False  # retain per-node evaluations
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.mlp_hidden, list):
            # Normalize JSON round-trips: lists come back as tuples.
            object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        # Data.
        if self.n_train <= 0 or self.n_test <= 0:
            raise ValueError("n_train and n_test must be positive")
        if self.image_size <= 0 or self.num_features <= 0:
            raise ValueError("image_size and num_features must be positive")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be positive (or None for i.i.d.)")
        # Model.
        if self.model_width <= 0:
            raise ValueError("model_width must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        # Topology.
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if not 0 < self.view_size < self.n_nodes:
            raise ValueError("view_size must be in (0, n_nodes)")
        if self.rounds <= 0 or self.ticks_per_round <= 0:
            raise ValueError("rounds and ticks_per_round must be positive")
        if not 0.0 <= self.drop_prob < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must be in [0, 1)")
        if self.delay_ticks < 0 or self.delay_jitter < 0:
            raise ValueError("delays must be non-negative")
        # Execution.
        if self.executor not in ("serial", "batched", "sharded"):
            raise ValueError(
                "executor must be 'serial', 'batched' or 'sharded'"
            )
        if self.n_shards < 0:
            raise ValueError("n_shards must be non-negative")
        if self.shard_partition not in ("contiguous", "balanced"):
            raise ValueError(
                "shard_partition must be 'contiguous' or 'balanced'"
            )
        if self.train_batch < -1 or self.eval_batch < -1:
            raise ValueError("train_batch and eval_batch must be >= -1")
        if self.arena_dtype not in ("float32", "float64"):
            raise ValueError("arena_dtype must be 'float32' or 'float64'")
        if self.max_global_test <= 0 or self.max_attack_samples <= 0:
            raise ValueError(
                "max_global_test and max_attack_samples must be positive"
            )
        # Privacy.
        if self.dp_epsilon is not None and self.dp_epsilon <= 0:
            raise ValueError("dp_epsilon must be positive (or None)")
        if not 0.0 < self.dp_delta < 1.0:
            raise ValueError("dp_delta must be in (0, 1)")
        if self.dp_clip_norm <= 0:
            raise ValueError("dp_clip_norm must be positive")
        if self.n_canaries < 0:
            raise ValueError("n_canaries must be non-negative")

    def to_dict(self) -> dict:
        """Grouped, JSON-ready representation (``from_dict`` inverts)."""
        out: dict = {"name": self.name, "seed": self.seed}
        for group, names in LAYOUT.items():
            out[group] = {name: getattr(self, name) for name in names}
        out["model"]["mlp_hidden"] = list(self.mlp_hidden)
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StudyConfig":
        """Build from a grouped, flat or mixed payload.

        Each field may appear once, either at the top level or inside
        its group; unknown keys raise a ValueError listing the valid
        ones, and retired fields are dropped at their surviving values.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"StudyConfig.from_dict needs a mapping, "
                f"got {type(payload).__name__}"
            )
        flat: dict = {}
        for key, value in payload.items():
            if key in LAYOUT:
                if not isinstance(value, Mapping):
                    raise ValueError(
                        f"config group {key!r} needs a mapping, "
                        f"got {type(value).__name__}"
                    )
                members = {
                    k: v
                    for k, v in value.items()
                    if not _check_retired(key, k, v)
                }
                _reject_unknown_keys(key, members, LAYOUT[key])
            elif any(_check_retired(g, key, value) for g in RETIRED_FIELDS):
                continue
            else:
                _reject_unknown_keys("StudyConfig", [key], _STORED_KEYS)
                members = {key: value}
            for name, member in members.items():
                if name in flat:
                    raise ValueError(f"config field {name!r} is given twice")
                flat[name] = member
        return cls(**flat)

    def with_overrides(self, **kwargs) -> "StudyConfig":
        """Copy with the given fields replaced; unknown keys raise a
        ValueError listing the valid names."""
        _reject_unknown_keys("StudyConfig", kwargs, self.__dataclass_fields__)
        return replace(self, **kwargs)

    def config_hash(self) -> str:
        """Canonical content hash (:func:`config_hash`)."""
        return config_hash(self)

    @property
    def architecture(self) -> str:
        if self.dataset not in _DATASET_MODELS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        return _DATASET_MODELS[self.dataset]

    @property
    def num_classes(self) -> int:
        return _DATASET_CLASSES[self.dataset]


def config_hash(config: StudyConfig | Mapping) -> str:
    """Canonical SHA-256 hex digest of a study config.

    The identity key of the service-layer response cache and job
    deduplication: a fixed config + seed determines the run bit for bit
    (float64), so two requests with the same hash may share one
    simulator. Accepts a ``StudyConfig`` or a plain mapping in any
    spelling :meth:`StudyConfig.from_dict` reads — grouped, flat, or a
    mix — so dict key ordering, group-vs-flat spellings, and
    omitted-but-default fields all hash identically. Retired fields are
    hashed at their surviving values, so hashes computed before their
    removal still match.
    """
    if isinstance(config, Mapping):
        config = StudyConfig.from_dict(config)
    payload = config.to_dict()
    for group, retired in RETIRED_FIELDS.items():
        payload[group].update(retired)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
