"""Tests for the grouped configuration layer (repro.core.config)."""

import json

import pytest

from repro import StudyConfig
from repro.core.config import (
    FLAT_TO_GROUP,
    GROUPS,
    DataConfig,
    ExecutionConfig,
    ModelConfig,
    PrivacyConfig,
    TopologyConfig,
    config_hash,
    group_field_names,
)


class TestDecomposition:
    def test_every_flat_field_belongs_to_exactly_one_group(self):
        flat = {
            name
            for name in StudyConfig.__dataclass_fields__
            if name not in ("name", "seed")
        }
        grouped = set(FLAT_TO_GROUP)
        assert flat == grouped
        counts = {}
        for cls in GROUPS.values():
            for field_name in group_field_names(cls):
                counts[field_name] = counts.get(field_name, 0) + 1
        assert all(count == 1 for count in counts.values())

    def test_group_defaults_match_flat_defaults(self):
        cfg = StudyConfig()
        for group_name, cls in GROUPS.items():
            group = cls()
            for field_name in group_field_names(cls):
                assert getattr(group, field_name) == getattr(cfg, field_name)

    def test_group_properties_reflect_flat_values(self):
        cfg = StudyConfig(n_nodes=32, dp_epsilon=5.0, dataset="purchase100")
        assert cfg.topology.n_nodes == 32
        assert cfg.privacy.dp_epsilon == 5.0
        assert cfg.data.dataset == "purchase100"
        assert isinstance(cfg.model, ModelConfig)
        assert isinstance(cfg.execution, ExecutionConfig)

    def test_from_groups_equals_flat_construction(self):
        grouped = StudyConfig.from_groups(
            name="x",
            seed=3,
            data=DataConfig(dataset="purchase100", num_features=64),
            topology=TopologyConfig(n_nodes=8, rounds=2),
            privacy=PrivacyConfig(dp_epsilon=10.0),
        )
        flat = StudyConfig(
            name="x",
            seed=3,
            dataset="purchase100",
            num_features=64,
            n_nodes=8,
            rounds=2,
            dp_epsilon=10.0,
        )
        assert grouped == flat

    def test_from_groups_rejects_wrong_group_type(self):
        with pytest.raises(ValueError, match="DataConfig"):
            StudyConfig.from_groups(data=ModelConfig())


class TestSerialization:
    def test_to_dict_is_grouped_and_json_ready(self):
        cfg = StudyConfig(name="s", n_nodes=8, mlp_hidden=(32, 16))
        payload = cfg.to_dict()
        assert set(payload) == {"name", "seed", *GROUPS}
        assert payload["topology"]["n_nodes"] == 8
        assert payload["model"]["mlp_hidden"] == [32, 16]  # JSON-able
        json.dumps(payload)  # must not raise

    def test_json_round_trip(self):
        cfg = StudyConfig(
            name="rt",
            dataset="purchase100",
            mlp_hidden=(32, 16),
            beta=0.3,
            dp_epsilon=25.0,
            executor="sharded",
            n_shards=2,
            seed=9,
        )
        restored = StudyConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert restored == cfg
        assert restored.mlp_hidden == (32, 16)  # tuple restored

    def test_from_dict_accepts_flat_keys(self):
        cfg = StudyConfig.from_dict({"name": "f", "n_nodes": 8, "rounds": 3})
        assert cfg == StudyConfig(name="f", n_nodes=8, rounds=3)

    def test_from_dict_rejects_unknown_keys_listing_valid(self):
        with pytest.raises(ValueError, match="n_nodes"):
            StudyConfig.from_dict({"nodes": 8})
        with pytest.raises(ValueError, match="dataset"):
            DataConfig.from_dict({"datset": "cifar10"})

    def test_group_round_trip(self):
        group = TopologyConfig(n_nodes=12, dynamic=True, drop_prob=0.1)
        assert TopologyConfig.from_dict(group.to_dict()) == group


class TestOverrides:
    def test_flat_override_unknown_key_lists_valid_fields(self):
        cfg = StudyConfig()
        with pytest.raises(ValueError) as excinfo:
            cfg.with_overrides(nodes=8)
        message = str(excinfo.value)
        assert "nodes" in message
        assert "n_nodes" in message  # the valid spelling is suggested

    def test_group_override_with_instance_replaces_group(self):
        cfg = StudyConfig(dp_epsilon=50.0, dp_clip_norm=2.0)
        out = cfg.with_overrides(privacy=PrivacyConfig(dp_epsilon=5.0))
        assert out.dp_epsilon == 5.0
        assert out.dp_clip_norm == 1.0  # instance replaces the whole group

    def test_group_override_with_dict_merges(self):
        cfg = StudyConfig(dp_epsilon=50.0, dp_clip_norm=2.0)
        out = cfg.with_overrides(privacy={"dp_epsilon": 5.0})
        assert out.dp_epsilon == 5.0
        assert out.dp_clip_norm == 2.0  # dict merges into the group

    def test_group_override_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="dp_epsilon"):
            StudyConfig().with_overrides(privacy={"epsilon": 5.0})

    def test_group_with_overrides_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            TopologyConfig().with_overrides(node_count=8)

    def test_mixed_flat_and_group_overrides(self):
        out = StudyConfig().with_overrides(
            rounds=7, execution=ExecutionConfig(executor="batched")
        )
        assert out.rounds == 7
        assert out.executor == "batched"


class TestValidation:
    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (DataConfig, dict(n_train=0)),
            (DataConfig, dict(beta=-1.0)),
            (ModelConfig, dict(learning_rate=0.0)),
            (ModelConfig, dict(lr_decay=0.0)),
            (ModelConfig, dict(batch_size=0)),
            (TopologyConfig, dict(n_nodes=1)),
            (TopologyConfig, dict(view_size=0)),
            (TopologyConfig, dict(drop_prob=1.0)),
            (TopologyConfig, dict(delay_ticks=-1)),
            (ExecutionConfig, dict(executor="process")),
            (ExecutionConfig, dict(executor="thread")),
            (ExecutionConfig, dict(arena_dtype="float16")),
            (ExecutionConfig, dict(train_batch=-2)),
            (PrivacyConfig, dict(dp_epsilon=-1.0)),
            (PrivacyConfig, dict(dp_delta=0.0)),
            (PrivacyConfig, dict(n_canaries=-1)),
        ],
    )
    def test_group_rejects_bad_values(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    def test_flat_construction_runs_group_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(executor="thread")
        with pytest.raises(ValueError):
            StudyConfig(n_nodes=1)

    def test_mlp_hidden_list_normalized_to_tuple(self):
        assert StudyConfig(mlp_hidden=[64, 32]).mlp_hidden == (64, 32)
        assert ModelConfig(mlp_hidden=[64, 32]).mlp_hidden == (64, 32)


# A config_hash keys the service cache, the job journals and the
# loadbench reference digests, so these values are pinned literally:
# any change to the hashed payload (a renamed, added or removed field,
# a new default, a different canonical JSON form) fails here first.
DEFAULT_HASH = "41a50678bb7508b7b6049e721236470b97b506950e0afde992acd6ca94d72dd8"
SPELLINGS_HASH = "801b66082f3e9662bbcc28cf4243bdb8116cf092d2cc8f2166394816ddc0d1ea"
CIFAR_TINY_BATCHED_HASH = (
    "3df43c6b3222574176a8133bd261c74b8a5963d937fbc2a29a78fd5d19c5568e"
)
DP_FRESH_DROPOUT_HASH = (
    "699bb1e34f26ea900340ee87e0d3c1cd4363c59735021c77e3a73b1d38334a7c"
)

# One non-default config in three spellings.
_SPELLINGS_FLAT = {
    "name": "spellings",
    "seed": 7,
    "dataset": "purchase100",
    "learning_rate": 0.05,
    "n_nodes": 8,
    "rounds": 3,
    "protocol": "base_gossip",
    "executor": "batched",
}
_SPELLINGS_GROUPED = {
    "name": "spellings",
    "seed": 7,
    "data": {"dataset": "purchase100"},
    "model": {"learning_rate": 0.05},
    "topology": {"n_nodes": 8, "rounds": 3, "protocol": "base_gossip"},
    "execution": {"executor": "batched"},
}
_SPELLINGS_MIXED = {
    "name": "spellings",
    "seed": 7,
    "data": {"dataset": "purchase100"},
    "learning_rate": 0.05,
    "topology": {"n_nodes": 8, "rounds": 3},
    "protocol": "base_gossip",
    "executor": "batched",
}

# A complete to_dict() payload as written by builds whose execution
# group still carried the "engine" and "n_workers" fields; stored
# journals and checkpoints hold configs in exactly this form.
_STORED_PAYLOAD = {
    "name": "spellings",
    "seed": 7,
    "data": {
        "dataset": "purchase100",
        "n_train": 2000,
        "n_test": 500,
        "image_size": 16,
        "num_features": 600,
        "train_per_node": 64,
        "test_per_node": 32,
        "beta": None,
    },
    "model": {
        "model_width": 8,
        "mlp_hidden": [256, 128, 64],
        "learning_rate": 0.05,
        "momentum": 0.9,
        "weight_decay": 0.0005,
        "local_epochs": 3,
        "batch_size": 32,
        "label_smoothing": 0.0,
        "lr_decay": 1.0,
        "dropout": 0.0,
        "dropout_mode": "stream",
    },
    "topology": {
        "n_nodes": 8,
        "view_size": 2,
        "dynamic": False,
        "sampler": None,
        "protocol": "base_gossip",
        "rounds": 3,
        "ticks_per_round": 100,
        "drop_prob": 0.0,
        "failure_prob": 0.0,
        "delay_ticks": 0,
        "delay_jitter": 0,
    },
    "execution": {
        "engine": "flat",
        "executor": "batched",
        "n_workers": 0,
        "n_shards": 0,
        "shard_partition": "contiguous",
        "train_batch": 0,
        "arena_dtype": "float64",
        "eval_batch": 0,
        "max_global_test": 512,
        "max_attack_samples": 256,
        "keep_node_records": False,
    },
    "privacy": {
        "dp_epsilon": None,
        "dp_delta": 1e-05,
        "dp_clip_norm": 1.0,
        "n_canaries": 0,
    },
}


class TestRetiredFields:
    """``engine`` and ``n_workers`` were removed, along with the
    ``"process"`` executor; stored configs still carry the first two at
    their surviving values."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"engine": "dict"},
            {"execution": {"engine": "dict"}},
            {"n_workers": 2},
            {"execution": {"n_workers": 2}},
        ],
    )
    def test_other_values_name_the_removal(self, payload):
        with pytest.raises(ValueError, match="was removed"):
            StudyConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "payload", [{"executor": "process"}, {"execution": {"executor": "process"}}]
    )
    def test_process_executor_rejected(self, payload):
        with pytest.raises(ValueError, match="executor"):
            StudyConfig.from_dict(payload)

    def test_surviving_values_are_dropped(self):
        cfg = StudyConfig.from_dict(
            {"engine": "flat", "execution": {"n_workers": 0}, "rounds": 3}
        )
        assert cfg == StudyConfig(rounds=3)
        assert "engine" not in cfg.to_dict()["execution"]
        assert ExecutionConfig.from_dict(
            {"engine": "flat", "n_workers": 0}
        ) == ExecutionConfig()

    def test_retired_names_are_not_fields(self):
        from repro.core.config import RETIRED_EXECUTION_FIELDS

        for name in RETIRED_EXECUTION_FIELDS:
            assert name not in StudyConfig.__dataclass_fields__
            assert name not in FLAT_TO_GROUP
        with pytest.raises(ValueError, match="unknown"):
            StudyConfig().with_overrides(engine="flat")


class TestGoldenConfigHash:
    def test_default_config(self):
        assert StudyConfig().config_hash() == DEFAULT_HASH
        assert config_hash({}) == DEFAULT_HASH

    @pytest.mark.parametrize(
        "payload",
        [_SPELLINGS_FLAT, _SPELLINGS_GROUPED, _SPELLINGS_MIXED],
        ids=["flat", "grouped", "mixed"],
    )
    def test_every_spelling_hashes_alike(self, payload):
        assert config_hash(payload) == SPELLINGS_HASH
        assert StudyConfig.from_dict(dict(payload)).config_hash() == (
            SPELLINGS_HASH
        )

    def test_scaled_preset(self):
        from repro.experiments.configs import scaled_config

        config = scaled_config("cifar10", "tiny", executor="batched")
        assert config.config_hash() == CIFAR_TINY_BATCHED_HASH

    def test_dp_fresh_sampler_dropout(self):
        config = StudyConfig(
            name="dp-fresh-dropout",
            dataset="purchase100",
            n_nodes=8,
            rounds=2,
            dp_epsilon=10.0,
            sampler="fresh",
            dropout=0.25,
            seed=5,
        )
        assert config.config_hash() == DP_FRESH_DROPOUT_HASH

    def test_stored_payload_loads_and_hashes_alike(self):
        payload = json.loads(json.dumps(_STORED_PAYLOAD))
        assert config_hash(payload) == SPELLINGS_HASH
        loaded = StudyConfig.from_dict(payload)
        assert loaded == StudyConfig.from_dict(dict(_SPELLINGS_FLAT))
        assert loaded.config_hash() == SPELLINGS_HASH
