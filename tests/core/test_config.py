"""Tests for the study configuration and its stored layout
(repro.core.config)."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import StudyConfig
from repro.core.config import LAYOUT, RETIRED_FIELDS, config_hash


class TestLayout:
    def test_every_field_belongs_to_exactly_one_group(self):
        grouped = [name for names in LAYOUT.values() for name in names]
        assert len(grouped) == len(set(grouped))
        assert set(grouped) | {"name", "seed"} == set(
            StudyConfig.__dataclass_fields__
        )

    def test_study_module_reexports_the_config(self):
        from repro.core import study

        assert study.StudyConfig is StudyConfig


class TestSerialization:
    def test_to_dict_is_grouped_and_json_ready(self):
        cfg = StudyConfig(name="s", n_nodes=8, mlp_hidden=(32, 16))
        payload = cfg.to_dict()
        assert set(payload) == {"name", "seed", *LAYOUT}
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
        with pytest.raises(ValueError) as excinfo:
            StudyConfig.from_dict({"data": {"datset": "cifar10"}})
        message = str(excinfo.value)
        assert "datset" in message
        assert "valid fields are: beta, dataset" in message

    def test_field_in_the_wrong_group_rejected(self):
        with pytest.raises(ValueError, match="unknown data field"):
            StudyConfig.from_dict({"data": {"n_nodes": 8}})

    def test_group_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="'topology' needs a mapping"):
            StudyConfig.from_dict({"topology": [8]})

    def test_field_given_twice_rejected(self):
        with pytest.raises(ValueError, match="'rounds' is given twice"):
            StudyConfig.from_dict({"rounds": 3, "topology": {"rounds": 3}})

    @pytest.mark.parametrize(
        "payload",
        [
            {"view_size": 5, "topology": {"n_nodes": 8}},
            {"topology": {"n_nodes": 8}, "view_size": 5},
        ],
        ids=["flat-first", "group-first"],
    )
    def test_partial_group_keeps_flat_fields_in_any_order(self, payload):
        # A partial group supplies only its own keys: a flat field of the
        # same group is neither reset to its default nor validated
        # against the group's defaults, whatever the key order.
        assert StudyConfig.from_dict(payload) == StudyConfig(
            n_nodes=8, view_size=5
        )


class TestOverrides:
    def test_flat_override_unknown_key_lists_valid_fields(self):
        cfg = StudyConfig()
        with pytest.raises(ValueError) as excinfo:
            cfg.with_overrides(nodes=8)
        message = str(excinfo.value)
        assert "nodes" in message
        assert "n_nodes" in message  # the valid spelling is suggested

    def test_override_replaces_fields(self):
        out = StudyConfig(dp_clip_norm=2.0).with_overrides(
            rounds=7, dp_epsilon=5.0
        )
        assert out == StudyConfig(rounds=7, dp_epsilon=5.0, dp_clip_norm=2.0)

    def test_group_names_are_not_override_keys(self):
        with pytest.raises(ValueError, match="unknown StudyConfig field"):
            StudyConfig().with_overrides(privacy={"dp_epsilon": 5.0})

    def test_override_is_validated(self):
        with pytest.raises(ValueError, match="view_size"):
            StudyConfig().with_overrides(n_nodes=2, view_size=2)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_train=0), "n_train and n_test must be positive"),
            (dict(beta=-1.0), "beta must be positive"),
            (dict(learning_rate=0.0), "learning_rate must be positive"),
            (dict(lr_decay=0.0), "lr_decay must be in"),
            (dict(batch_size=0), "batch_size must be positive"),
            (dict(dropout=1.0), "dropout must be in"),
            (dict(n_nodes=1), "need at least two nodes"),
            (dict(view_size=0), "view_size must be in"),
            (dict(drop_prob=1.0), "drop_prob must be in"),
            (dict(delay_ticks=-1), "delays must be non-negative"),
            (dict(executor="process"), "executor must be"),
            (dict(executor="thread"), "executor must be"),
            (dict(arena_dtype="float16"), "arena_dtype must be"),
            (dict(train_batch=-2), "train_batch and eval_batch must be"),
            (dict(dp_epsilon=-1.0), "dp_epsilon must be positive"),
            (dict(dp_delta=0.0), "dp_delta must be in"),
            (dict(n_canaries=-1), "n_canaries must be non-negative"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            StudyConfig(**kwargs)
        with pytest.raises(ValueError, match=message):
            StudyConfig.from_dict(kwargs)

    def test_mlp_hidden_list_normalized_to_tuple(self):
        assert StudyConfig(mlp_hidden=[64, 32]).mlp_hidden == (64, 32)


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
    """``engine`` and ``n_workers`` were removed along with the
    ``"process"`` executor, and ``dropout_mode`` along with the legacy
    dropout generator; stored configs still carry them at their
    surviving values."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"engine": "dict"},
            {"execution": {"engine": "dict"}},
            {"n_workers": 2},
            {"execution": {"n_workers": 2}},
            {"dropout_mode": "legacy"},
            {"model": {"dropout_mode": "legacy"}},
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
            {
                "engine": "flat",
                "execution": {"n_workers": 0},
                "model": {"dropout_mode": "stream"},
                "rounds": 3,
            }
        )
        assert cfg == StudyConfig(rounds=3)
        assert "engine" not in cfg.to_dict()["execution"]
        assert "dropout_mode" not in cfg.to_dict()["model"]
        assert StudyConfig.from_dict({"dropout_mode": "stream"}) == StudyConfig()

    def test_retired_names_are_not_fields(self):
        for group, retired in RETIRED_FIELDS.items():
            for name in retired:
                assert name not in StudyConfig.__dataclass_fields__
                assert name not in LAYOUT[group]
                with pytest.raises(ValueError, match="unknown"):
                    StudyConfig().with_overrides(**{name: retired[name]})


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


# One non-default value per StudyConfig field, and the config_hash of
# a config that differs from the defaults in that field only. The
# digest covers the stored grouped layout, so a field that moves to
# another group (or is renamed, or changes default) fails by name.
# Each entry: (group in the stored layout, None for a top-level key;
# value; digest).
FIELD_PINS = {
    "name": (
        None,
        "pinned",
        "8dbc11d822184dd55dc037f76a5b733bbc9cda6ac80f6de750c0f277c2bb2302",
    ),
    "seed": (
        None,
        1,
        "74ed33b63633953632f537b847bf0a0e2bfc7b93747c30b805f1226abcf25991",
    ),
    "dataset": (
        "data",
        "purchase100",
        "8e9b3510eb42be337f3908cb5a9d3e9cc8cffc9ebf4541f530e777eef336518b",
    ),
    "n_train": (
        "data",
        1000,
        "dbc799862017bd82fefd3301f16348d0f05d9488f8a6a519f70c6d6df99c5eb2",
    ),
    "n_test": (
        "data",
        250,
        "b50f46d93c1a4fd1bb0e3d6988c2960459b9bfa0de914c83a8455e49965f47e8",
    ),
    "image_size": (
        "data",
        8,
        "273103626654a002bfd9172ac127aae3f7e8a85744a3f35122b3a77b93f56ec1",
    ),
    "num_features": (
        "data",
        64,
        "5b5dec08618a584b2340096d3f046e0e408b69afcd40a6326e40212c5cfbbbf1",
    ),
    "train_per_node": (
        "data",
        16,
        "ca4046da5dd2c47a26d05a3e0d11d242e5fc906d7ac7077b20f4a5af1c29bfa7",
    ),
    "test_per_node": (
        "data",
        8,
        "21cbf7b4845fdc0d830ff3b6babddd5c7ce7817ce53c154216e234d5ad486ba3",
    ),
    "beta": (
        "data",
        0.5,
        "ba0776f4a61053dc91f0248b5440d87cc8f4d0a9c333de86ec7fbb23dcdcf871",
    ),
    "model_width": (
        "model",
        4,
        "d4fc240ad2ae9b4986410c844f23c7fc36ac6b5126f0f5001cd77f15efec8cc2",
    ),
    "mlp_hidden": (
        "model",
        (32, 16),
        "ab344867e83d26c2c40ae3e7aa68d2b943d96fee9842e13762242e4c712b5e03",
    ),
    "learning_rate": (
        "model",
        0.05,
        "a5e2095246fc997a263f2d636f455b5fcb773760095ed921ab5c6b462c66f2db",
    ),
    "momentum": (
        "model",
        0.5,
        "b5a837cbc52a3e1308560308b9d5438a137d09624f43b5bd32b6ed04d19ca582",
    ),
    "weight_decay": (
        "model",
        0.0,
        "5afbcf2d67ddfb30ed0b8d7cf548c6c9124ff3910488913fcc854a4494529de3",
    ),
    "local_epochs": (
        "model",
        1,
        "d93522c0fb98443226707127858bd75f84986c7162a17bae1073d3f811bdded2",
    ),
    "batch_size": (
        "model",
        16,
        "39b923268b03ce4f4c87ff0da9fc5b47a3e12cc96b5bd349b35bc37baad6d938",
    ),
    "label_smoothing": (
        "model",
        0.1,
        "8c7295b0ca3eef0dee54aaa028c1fc2658647fea37e6fef782dc562610d1dfce",
    ),
    "lr_decay": (
        "model",
        0.9,
        "515d22a1703f5cd055ae44c1d935b894f086beac5a1dd1408200eaefd85ed16e",
    ),
    "dropout": (
        "model",
        0.25,
        "74d17d154822d18e1d0e3a1977d663eaed931c72f775158d3f4053ba084e5bd3",
    ),
    "n_nodes": (
        "topology",
        8,
        "58243d41d13ea45bb9ffe87181bfc7ad2bc7b9be60ad6124e0c8b8976d33c6d4",
    ),
    "view_size": (
        "topology",
        3,
        "ec03f8de17b399c45e9b61882877c9b92889ceaa4c50297a6b10b0447d9a1004",
    ),
    "dynamic": (
        "topology",
        True,
        "0b9b2d01dceec1f6258f5a059b8d6f971f9de1cdd6734d02cd284f1af54a3313",
    ),
    "sampler": (
        "topology",
        "fresh",
        "af6202e180af16741d1a7aefb1f0391e99d9f0d4ae4879a8b37fff3ca4b8db31",
    ),
    "protocol": (
        "topology",
        "base_gossip",
        "ff637773b07a6d835f83b5c862da24c4c4e7e38ea389ec51d52768963af8da61",
    ),
    "rounds": (
        "topology",
        5,
        "0cdd9448c3ab7f34313b958d499f38f160d635209c8aa0a5dedeb206f8a49a54",
    ),
    "ticks_per_round": (
        "topology",
        50,
        "fdd4d6711f7312b0f9d1401574c106a3668b2aab251035ee59efe92f11de0396",
    ),
    "drop_prob": (
        "topology",
        0.1,
        "29fd429a9772521a4450557d61c0ef28ea742f0e3cf737e225c22c4d21173d52",
    ),
    "failure_prob": (
        "topology",
        0.05,
        "70f4285595d8dbc6faf574b60d4ba660bd08c58d70e4c27071bdac1cd0086f6d",
    ),
    "delay_ticks": (
        "topology",
        2,
        "c3d15594a0eef7e125c4e1d6b9de2803518cbe07414588e2f553d832d2a2ff4c",
    ),
    "delay_jitter": (
        "topology",
        1,
        "424b9275063bee7be31fd5e4f518b88681df5730bc54285c87185d8e9e5064fc",
    ),
    "executor": (
        "execution",
        "batched",
        "d40ace0cd42450de2de87c871c0ea5e59287e3023edc95c27f4493f68a72f19b",
    ),
    "n_shards": (
        "execution",
        2,
        "569048732e6642dabe79bca6c4ccb4edfe5dcca6f26d9d786bcefa1691cf554b",
    ),
    "shard_partition": (
        "execution",
        "balanced",
        "84f75a088ec17f4a72b2bb9e81ca0177b6cc7bd7580289b8cc823dc22f59eadc",
    ),
    "train_batch": (
        "execution",
        4,
        "7b9117158170443fc66b162625b6d793b24259c54bb07eafebe46f49c31a8b13",
    ),
    "arena_dtype": (
        "execution",
        "float32",
        "b5c84ad3e1587d67fe5055a4dc5b873be39dea1504e0c061256f20c8b0e1071c",
    ),
    "eval_batch": (
        "execution",
        -1,
        "697b9db4e7870500695573a5b8d531fb6f1908fb156cdcc207c58a88bdf54954",
    ),
    "max_global_test": (
        "execution",
        128,
        "b40c52c3516259f43027fc6b1f61a7d02deefd712e4d6050e08d656341d149b3",
    ),
    "max_attack_samples": (
        "execution",
        64,
        "d4dd4a3494202fd8910a40fe0d7c9cac9b9ce59a9e5f8e562cb120b18b8e310c",
    ),
    "keep_node_records": (
        "execution",
        True,
        "9238886ee9ebc036ead46cc5403ab0dcbcf0ff93d72a9b9331ae082ee0cecab3",
    ),
    "dp_epsilon": (
        "privacy",
        10.0,
        "1f39482a8320e16e7e485970a49c31245426b291b30e5076273e7cf43f374f04",
    ),
    "dp_delta": (
        "privacy",
        1e-06,
        "602e2a2a6a3a90daed5eae89aa083a34e7b54fe52494877938143cecfff10da7",
    ),
    "dp_clip_norm": (
        "privacy",
        2.0,
        "df761c606110807c3409ea3372516c3f1e7abe8335b31bdf60eeab91ec2247af",
    ),
    "n_canaries": (
        "privacy",
        4,
        "d8b73809f8bc97bea8b6150d9a8e5dc5b204da4e8eabeaecb82ed9b1100ad213",
    ),
}


class TestFieldPins:
    def test_every_field_is_pinned(self):
        assert set(FIELD_PINS) == set(StudyConfig.__dataclass_fields__)

    @pytest.mark.parametrize("field_name", sorted(FIELD_PINS))
    def test_field_layout_and_digest(self, field_name):
        group, value, digest = FIELD_PINS[field_name]
        config = StudyConfig(**{field_name: value})
        stored = config.to_dict()
        json_value = list(value) if isinstance(value, tuple) else value
        if group is None:
            assert stored[field_name] == json_value
            grouped = {field_name: value}
        else:
            assert stored[group][field_name] == json_value
            grouped = {group: {field_name: value}}
        assert config.config_hash() == digest
        assert config_hash(grouped) == digest
        assert config_hash({field_name: value}) == digest


@st.composite
def valid_configs(draw):
    """Any StudyConfig the validation accepts (not only runnable ones)."""
    n_nodes = draw(st.integers(2, 64))
    optional_size = st.one_of(st.none(), st.integers(1, 256))
    unit = st.floats(0.0, 0.99, allow_nan=False)
    positive = st.floats(1e-4, 100.0, allow_nan=False)
    return StudyConfig(
        name=draw(st.text(max_size=8)),
        seed=draw(st.integers(0, 2**31 - 1)),
        dataset=draw(
            st.sampled_from(["cifar10", "cifar100", "fashion_mnist", "purchase100"])
        ),
        n_train=draw(st.integers(1, 5000)),
        n_test=draw(st.integers(1, 5000)),
        image_size=draw(st.integers(1, 32)),
        num_features=draw(st.integers(1, 1000)),
        train_per_node=draw(optional_size),
        test_per_node=draw(optional_size),
        beta=draw(st.one_of(st.none(), positive)),
        model_width=draw(st.integers(1, 16)),
        mlp_hidden=tuple(draw(st.lists(st.integers(1, 512), max_size=4))),
        learning_rate=draw(positive),
        momentum=draw(unit),
        weight_decay=draw(unit),
        local_epochs=draw(st.integers(0, 5)),
        batch_size=draw(st.integers(1, 128)),
        label_smoothing=draw(unit),
        lr_decay=draw(st.floats(0.01, 1.0, allow_nan=False)),
        dropout=draw(unit),
        n_nodes=n_nodes,
        view_size=draw(st.integers(1, n_nodes - 1)),
        dynamic=draw(st.booleans()),
        sampler=draw(st.sampled_from([None, "static", "peerswap", "fresh"])),
        protocol=draw(st.sampled_from(["samo", "base_gossip"])),
        rounds=draw(st.integers(1, 50)),
        ticks_per_round=draw(st.integers(1, 200)),
        drop_prob=draw(unit),
        failure_prob=draw(unit),
        delay_ticks=draw(st.integers(0, 5)),
        delay_jitter=draw(st.integers(0, 5)),
        executor=draw(st.sampled_from(["serial", "batched", "sharded"])),
        n_shards=draw(st.integers(0, 8)),
        shard_partition=draw(st.sampled_from(["contiguous", "balanced"])),
        train_batch=draw(st.integers(-1, 64)),
        arena_dtype=draw(st.sampled_from(["float32", "float64"])),
        eval_batch=draw(st.integers(-1, 64)),
        max_global_test=draw(st.integers(1, 1024)),
        max_attack_samples=draw(st.integers(1, 1024)),
        keep_node_records=draw(st.booleans()),
        dp_epsilon=draw(st.one_of(st.none(), positive)),
        dp_delta=draw(st.floats(1e-9, 0.5, allow_nan=False)),
        dp_clip_norm=draw(positive),
        n_canaries=draw(st.integers(0, 16)),
    )


def _shuffled(mapping: dict, rnd) -> dict:
    items = list(mapping.items())
    rnd.shuffle(items)
    return dict(items)


class TestGeneratedConfigs:
    @given(valid_configs())
    def test_json_round_trip(self, config):
        payload = json.loads(json.dumps(config.to_dict()))
        assert StudyConfig.from_dict(payload) == config

    @given(valid_configs(), st.randoms(use_true_random=False))
    def test_every_spelling_hashes_alike(self, config, rnd):
        grouped = config.to_dict()
        flat = {}
        # Mixed: each field at the top level or inside its group, with
        # the keys of every mapping in shuffled order.
        mixed = {}
        for key, value in grouped.items():
            if not isinstance(value, dict):
                flat[key] = mixed[key] = value
                continue
            flat.update(value)
            nested = {}
            for name, field_value in value.items():
                target = mixed if rnd.random() < 0.5 else nested
                target[name] = field_value
            mixed[key] = _shuffled(nested, rnd)
        mixed = _shuffled(mixed, rnd)
        digest = config.config_hash()
        assert config_hash(flat) == digest
        assert config_hash(grouped) == digest
        assert config_hash(mixed) == digest
        assert StudyConfig.from_dict(mixed) == config
