"""Tests for failure injection (message loss, node churn) and the
partial-aggregation protocol variant."""

import numpy as np
import pytest

from repro.data import make_node_splits, make_synthetic_tabular_dataset
from repro.gossip import (
    FlatGossipSimulator,
    LocalTrainer,
    PartialMergeGossipProtocol,
    SimulatorConfig,
    TrainerConfig,
    make_protocol,
)
from repro.nn import build_mlp, get_state


def build_simulator(drop_prob=0.0, failure_prob=0.0, sampler=None,
                    protocol_name="samo", seed=0, local_epochs=1,
                    delay_ticks=0, delay_jitter=0):
    model = build_mlp(16, 4, hidden=(8,), rng=np.random.default_rng(0))
    trainer = LocalTrainer(
        model,
        TrainerConfig(learning_rate=0.05, momentum=0.0,
                      local_epochs=local_epochs, batch_size=8),
    )
    train, _ = make_synthetic_tabular_dataset(
        "t", 300, 30, num_features=16, num_classes=4, seed=seed
    )
    splits = make_node_splits(train, 6, train_per_node=16, test_per_node=8,
                              seed=seed)
    config = SimulatorConfig(
        n_nodes=6, view_size=2, sampler=sampler,
        ticks_per_round=20, wake_mu=20, wake_sigma=2,
        drop_prob=drop_prob, failure_prob=failure_prob,
        delay_ticks=delay_ticks, delay_jitter=delay_jitter, seed=seed,
    )
    return FlatGossipSimulator(
        config, make_protocol(protocol_name, trainer), splits, get_state(model)
    )


def vectors(sim):
    """Every node's model as one row (a copy of the arena)."""
    return np.array(sim.state_matrix())


class TestMessageLoss:
    def test_no_drops_by_default(self):
        sim = build_simulator()
        sim.run(rounds=2)
        assert sim.messages_dropped == 0

    def test_drops_happen_and_are_counted(self):
        sim = build_simulator(drop_prob=0.5)
        sim.run(rounds=3)
        assert sim.messages_dropped > 0
        # Dropped messages never reach the log.
        total_attempts = sim.messages_sent + sim.messages_dropped
        assert sim.messages_sent < total_attempts

    def test_heavy_loss_still_progresses(self):
        """Gossip degrades gracefully: even at 70% loss, training
        continues and models evolve."""
        sim = build_simulator(drop_prob=0.7)
        init = vectors(sim)[0]
        sim.run(rounds=3)
        assert any(not np.allclose(v, init) for v in vectors(sim))

    def test_drop_prob_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, drop_prob=1.0)


class TestNodeChurn:
    def test_no_skips_by_default(self):
        sim = build_simulator()
        sim.run(rounds=2)
        assert sim.wakes_skipped == 0

    def test_skips_counted(self):
        sim = build_simulator(failure_prob=0.5)
        sim.run(rounds=3)
        assert sim.wakes_skipped > 0

    def test_failed_wake_sends_nothing(self):
        quiet = build_simulator(failure_prob=0.9, seed=3)
        noisy = build_simulator(failure_prob=0.0, seed=3)
        quiet.run(rounds=2)
        noisy.run(rounds=2)
        assert quiet.messages_sent < noisy.messages_sent

    def test_failure_prob_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, failure_prob=-0.1)


class TestSamplerSelection:
    def test_fresh_sampler_by_name(self):
        sim = build_simulator(sampler="fresh")
        assert sim.sampler.dynamic
        before = sim.sampler.views()
        sim.run(rounds=3)
        assert sim.sampler.views() != before

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            build_simulator(sampler="smallworld")

    def test_sampler_name_derivation(self):
        assert SimulatorConfig(n_nodes=4, view_size=2).sampler_name == "static"
        assert (
            SimulatorConfig(n_nodes=4, view_size=2, dynamic=True).sampler_name
            == "peerswap"
        )
        assert (
            SimulatorConfig(n_nodes=4, view_size=2, sampler="fresh").sampler_name
            == "fresh"
        )


class TestPartialMerge:
    def test_registered_in_factory(self):
        sim = build_simulator(protocol_name="base_gossip_partial")
        assert isinstance(sim.protocol, PartialMergeGossipProtocol)
        assert sim.protocol.merge_weight == 0.25

    @staticmethod
    def _merge_once(protocol_name, shift):
        """Deliver one model ``shift`` away from node 0's own (no local
        training) and return node 0's row before and after."""
        sim = build_simulator(protocol_name=protocol_name, local_epochs=0)
        own = vectors(sim)[0]
        sim._send_vector(1, 0, own + shift)
        sim._process_pending()
        assert sim.nodes[0].models_received == 1
        assert sim.nodes[0].updates_performed == 1
        return own, vectors(sim)[0]

    def test_partial_merge_keeps_state_closer_to_own(self):
        own, full = self._merge_once("base_gossip", 1.0)
        _, partial = self._merge_once("base_gossip_partial", 1.0)
        # Partial merge moves less toward the peer.
        assert np.linalg.norm(partial - own) < np.linalg.norm(full - own)

    def test_merge_weight_validation(self):
        model = build_mlp(8, 2, hidden=(4,), rng=np.random.default_rng(0))
        trainer = LocalTrainer(model, TrainerConfig())
        from repro.gossip import BaseGossipProtocol

        with pytest.raises(ValueError):
            BaseGossipProtocol(trainer, merge_weight=0.0)
        with pytest.raises(ValueError):
            BaseGossipProtocol(trainer, merge_weight=1.5)

    @pytest.mark.parametrize(
        "protocol_name, weight", [("base_gossip", 0.5), ("base_gossip_partial", 0.25)]
    )
    def test_exact_partial_average(self, protocol_name, weight):
        """merge_weight w gives (1-w) own + w incoming exactly."""
        own, merged = self._merge_once(protocol_name, 8.0)
        np.testing.assert_allclose(merged, own + weight * 8.0, rtol=0, atol=1e-12)


class TestMessageLatency:
    def test_zero_delay_is_instant(self):
        sim = build_simulator()
        sim.run(rounds=2)
        assert sim.messages_in_flight == 0

    def test_delayed_messages_queue_then_deliver(self):
        sim = build_simulator(local_epochs=0, delay_ticks=5)
        sim.run_round()
        sent = sim.messages_sent
        assert sent > 0
        # All sent messages eventually arrive: SAMO buffers them, so
        # total receptions equal deliveries.
        for _ in range(3):
            sim.run_round()
        received = sum(n.models_received for n in sim.nodes)
        assert received == sim.messages_sent - sim.messages_in_flight
        sim.close()

    def test_latency_slows_mixing(self):
        """Stale models mix worse: with large delays the node models
        stay further apart after the same number of rounds."""

        def spread(delay):
            sim = build_simulator(seed=4, delay_ticks=delay)
            rng = np.random.default_rng(42)
            for node in sim.nodes:
                for arr in node.state.values():  # live arena views
                    arr += rng.normal(0, 1.0, size=arr.shape)
            sim.run(rounds=4)
            vecs = vectors(sim)
            sim.close()
            return np.linalg.norm(vecs - vecs.mean(axis=0), axis=1).mean()

        assert spread(0) < spread(15)

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, delay_ticks=-1)
        with pytest.raises(ValueError):
            SimulatorConfig(n_nodes=4, view_size=2, delay_jitter=-1)

    def test_jitter_spreads_delivery(self):
        """A send at tick t is due at t + delay_ticks + U{0..jitter}."""
        sim = build_simulator(delay_ticks=2, delay_jitter=3)
        for _ in range(40):
            sim._send_vector(0, 1, sim.arena.row(0))
        due = [entry[0] for entry in sim._in_flight]
        assert set(due) <= {2, 3, 4, 5}
        assert len(set(due)) > 1
        # Each message arrives at its own due tick, never earlier.
        for tick in range(6):
            sim.clock.tick = tick
            sim._deliver_due()
            sim._process_pending()
            arrived = sim.nodes[1].models_received
            assert arrived == sum(1 for d in due if d <= tick)


class TestInFlightIsolation:
    """Messages in flight must be immune to later sender mutations."""

    def test_sender_mutation_does_not_reach_in_flight_payload(self):
        """Copy-on-enqueue: a sender training after the send must not
        rewrite the message on the wire."""
        sim = build_simulator(local_epochs=0, delay_ticks=3)
        original = vectors(sim)[0]
        sim._send_vector(0, 1, sim.arena.row(0))
        sim.arena.data[0] += 1234.5  # sender keeps training...
        for _ in range(4):  # ...while the message rides the wire
            sim.clock.advance()
        sim._deliver_due()
        sim._process_pending()
        assert len(sim.nodes[1].inbox) == 1
        np.testing.assert_array_equal(sim.nodes[1].inbox[0], original)

    def test_zero_delay_payload_frozen_at_send_time(self):
        """Instant sends are published after the tick's wakes; the
        payload is still the row as it was at send time."""
        sim = build_simulator(local_epochs=0)
        original = vectors(sim)[0]
        sim._send_vector(0, 1, sim.arena.row(0))
        sim.arena.data[0] -= 99.0
        sim._process_pending()
        np.testing.assert_array_equal(sim.nodes[1].inbox[0], original)

    def test_run_tallies_undelivered_messages(self):
        """Messages still in flight at the end of run() are counted,
        and messages due at the final tick are delivered."""
        sim = build_simulator(local_epochs=0, delay_ticks=10_000)
        sim.run(rounds=2)
        assert sim.messages_sent > 0
        assert sim.messages_undelivered == sim.messages_in_flight
        assert sim.messages_undelivered == sim.messages_sent

    def test_run_delivers_messages_due_at_final_tick(self):
        sim = build_simulator(local_epochs=0, delay_ticks=1)
        sim._send_vector(0, 1, sim.arena.row(0))  # due at tick 1
        sim.clock.advance()  # horizon ends exactly at the due tick
        sim.run(rounds=0)
        assert len(sim.nodes[1].inbox) == 1
        assert sim.messages_undelivered == sim.messages_in_flight == 0
