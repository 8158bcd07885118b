"""Tests for Base Gossip (Algorithm 1) and SAMO (Algorithm 2) as the
engine runs them over arena rows."""

import numpy as np
import pytest

from repro.data import make_node_splits, make_synthetic_tabular_dataset
from repro.gossip import (
    BaseGossipProtocol,
    FlatGossipSimulator,
    LocalTrainer,
    SAMOProtocol,
    SimulatorConfig,
    TrainerConfig,
    make_protocol,
)
from repro.nn import build_mlp, get_state


def build(protocol_name, local_epochs=1):
    """Three nodes; with view size 2, node 0's view is {1, 2}."""
    model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
    trainer = LocalTrainer(
        model,
        TrainerConfig(learning_rate=0.05, momentum=0.0,
                      local_epochs=local_epochs, batch_size=8),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", 120, 20, num_features=16, num_classes=4, seed=0
    )
    splits = make_node_splits(train, 3, train_per_node=16, test_per_node=8, seed=0)
    config = SimulatorConfig(
        n_nodes=3, view_size=2, ticks_per_round=20, wake_mu=20,
        wake_sigma=2, seed=0,
    )
    return FlatGossipSimulator(
        config, make_protocol(protocol_name, trainer), splits, get_state(model)
    )


def row(sim, node_id=0):
    return np.array(sim.arena.row(node_id))


def deliver(sim, payload, receiver=0, sender=1):
    """One reception at ``receiver``, handed to the protocol at once."""
    sim._send_vector(sender, receiver, payload)
    sim._process_pending()


def sends(sim):
    """(sender, receiver) of this tick's not-yet-published sends."""
    return [(sender, receiver) for sender, receiver, _ in sim._pending]


class TestBaseGossip:
    def test_wake_sends_to_exactly_one_neighbor(self):
        sim = build("base_gossip")
        sim._base_wakes([0])
        assert len(sends(sim)) == 1
        sender, receiver = sends(sim)[0]
        assert sender == 0
        assert receiver in {1, 2}

    def test_wake_with_empty_view_sends_nothing(self):
        sim = build("base_gossip")
        sim.sampler.view = lambda node_id: set()
        sim._base_wakes([0])
        assert sends(sim) == []

    def test_wake_does_not_train(self):
        """Algorithm 1 trains only on reception."""
        sim = build("base_gossip")
        before = row(sim)
        sim._base_wakes([0])
        assert sim.nodes[0].updates_performed == 0
        np.testing.assert_array_equal(row(sim), before)

    def test_receive_aggregates_pairwise_then_trains(self):
        sim = build("base_gossip")
        own = row(sim)
        incoming = own + 2.0
        deliver(sim, incoming)
        node = sim.nodes[0]
        assert node.models_received == 1
        assert node.updates_performed == 1
        # Training perturbs the exact pairwise average a little, so the
        # state stays closer to the average than to its old self.
        average = (own + incoming) / 2
        after = row(sim)
        assert np.linalg.norm(after - average) < np.linalg.norm(after - own)

    def test_receive_does_not_buffer(self):
        sim = build("base_gossip")
        deliver(sim, row(sim))
        assert sim.nodes[0].inbox == []

    def test_every_reception_merges_and_trains(self):
        """Two receptions published in one flush are merged and trained
        one after the other, not folded into one update."""
        sim = build("base_gossip")
        own = row(sim)
        sim._send_vector(1, 0, own + 1.0)
        sim._send_vector(2, 0, own + 2.0)
        sim._process_pending()
        assert sim.nodes[0].models_received == 2
        assert sim.nodes[0].updates_performed == 2


class TestSAMO:
    def test_receive_only_buffers(self):
        sim = build("samo")
        before = row(sim)
        deliver(sim, before + 1.0)
        node = sim.nodes[0]
        assert len(node.inbox) == 1
        assert node.models_received == 1
        assert node.updates_performed == 0
        np.testing.assert_array_equal(row(sim), before)

    def test_wake_sends_to_all_neighbors(self):
        sim = build("samo")
        sim._samo_wakes([0])
        assert sorted(receiver for _, receiver in sends(sim)) == [1, 2]

    def test_wake_without_inbox_skips_merge_and_training(self):
        """Algorithm 2 line 3: only merge/train when |Theta_i| > 1."""
        sim = build("samo")
        before = row(sim)
        sim._samo_wakes([0])
        np.testing.assert_array_equal(row(sim), before)
        assert sim.nodes[0].updates_performed == 0
        assert len(sends(sim)) == 2  # still disseminates

    def test_wake_merges_buffered_models_once(self):
        """Own model and every buffered one are averaged in one merge."""
        sim = build("samo", local_epochs=0)
        own = row(sim)
        deliver(sim, own + 3.0, sender=1)
        deliver(sim, own - 6.0, sender=2)
        sim._samo_wakes([0])
        assert sim.nodes[0].updates_performed == 1
        assert sim.nodes[0].inbox == []
        np.testing.assert_allclose(row(sim), own - 1.0, rtol=0, atol=1e-12)

    def test_wake_with_inbox_merges_then_trains(self):
        sim = build("samo")
        own = row(sim)
        deliver(sim, own + 3.0, sender=1)
        deliver(sim, own - 3.0, sender=2)
        sim._samo_wakes([0])
        assert sim.nodes[0].updates_performed == 1
        # The merge lands on ``own``; training then moves it a little.
        drift = np.linalg.norm(row(sim) - own)
        assert 0 < drift < np.linalg.norm(np.full_like(own, 3.0))

    def test_sent_payload_is_snapshot(self):
        """Mutating the node after sending must not alter the payload."""
        sim = build("samo")
        sim._samo_wakes([0])
        payload = sim._pending[0][2]
        before = payload.copy()
        sim.arena.data[0] += 100.0
        np.testing.assert_array_equal(payload, before)


class TestFactory:
    def test_known_names(self):
        trainer = LocalTrainer(
            build_mlp(8, 2, hidden=(4,), rng=np.random.default_rng(0)),
            TrainerConfig(),
        )
        assert isinstance(make_protocol("base_gossip", trainer), BaseGossipProtocol)
        assert isinstance(make_protocol("samo", trainer), SAMOProtocol)

    def test_unknown_name(self):
        trainer = LocalTrainer(
            build_mlp(8, 2, hidden=(4,), rng=np.random.default_rng(0)),
            TrainerConfig(),
        )
        with pytest.raises(ValueError):
            make_protocol("epidemic", trainer)
