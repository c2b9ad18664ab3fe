"""Unit tests for the subnet abstraction and the point-to-point mesh."""

import pytest

from repro.model.config import paper_defaults
from repro.model.ring import Message, TokenRing
from repro.model.subnet import (
    SUBNET_MESH,
    SUBNET_RING,
    PointToPointNetwork,
    build_subnet,
)
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError


class TestBuildSubnet:
    def test_ring(self):
        sim = Simulator()
        assert isinstance(build_subnet(SUBNET_RING, sim, 3), TokenRing)

    def test_mesh(self):
        sim = Simulator()
        assert isinstance(build_subnet(SUBNET_MESH, sim, 3), PointToPointNetwork)

    def test_unknown(self):
        with pytest.raises(SimulationError):
            build_subnet("carrier-pigeon", Simulator(), 3)


class TestMeshDelivery:
    def test_single_message(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 3)
        log = []
        mesh.send(Message(0, 1, 2.0, deliver=lambda: log.append(sim.now)))
        sim.run()
        assert log == [2.0]

    def test_same_link_serializes(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 2)
        log = []
        for i in range(3):
            mesh.send(Message(0, 1, 1.0, deliver=lambda i=i: log.append((i, sim.now))))
        sim.run()
        assert log == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_different_links_run_in_parallel(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 3)
        log = []
        mesh.send(Message(0, 1, 5.0, deliver=lambda: log.append(("a", sim.now))))
        mesh.send(Message(2, 1, 5.0, deliver=lambda: log.append(("b", sim.now))))
        mesh.send(Message(0, 2, 5.0, deliver=lambda: log.append(("c", sim.now))))
        sim.run()
        assert [t for _, t in log] == [5.0, 5.0, 5.0]

    def test_opposite_directions_are_separate_links(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 2)
        log = []
        mesh.send(Message(0, 1, 4.0, deliver=lambda: log.append(sim.now)))
        mesh.send(Message(1, 0, 4.0, deliver=lambda: log.append(sim.now)))
        sim.run()
        assert log == [4.0, 4.0]

    def test_rejects_self_link(self):
        mesh = PointToPointNetwork(Simulator(), 3)
        with pytest.raises(SimulationError):
            mesh.send(Message(1, 1, 1.0, deliver=lambda: None))

    def test_rejects_invalid_sites(self):
        mesh = PointToPointNetwork(Simulator(), 2)
        with pytest.raises(SimulationError):
            mesh.send(Message(5, 0, 1.0, deliver=lambda: None))


class TestMeshStatistics:
    def test_utilization_counts_all_links(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 2)  # 2 directed links
        mesh.send(Message(0, 1, 3.0, deliver=lambda: None))
        sim.run(until=6.0)
        # One link busy 3 of 6 units; the other idle: (3/6)/2 = 0.25.
        assert mesh.utilization == pytest.approx(0.25)

    def test_counters(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 3)
        mesh.send(Message(0, 1, 1.0, deliver=lambda: None, size_bytes=10))
        mesh.send(Message(1, 2, 1.0, deliver=lambda: None, size_bytes=20))
        sim.run()
        assert mesh.messages_delivered == 2
        assert mesh.bytes_delivered == 30

    def test_latency_includes_link_queueing(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 2)
        for _ in range(2):
            mesh.send(Message(0, 1, 2.0, deliver=lambda: None))
        sim.run()
        assert mesh.latencies.mean == pytest.approx(3.0)

    def test_reset_statistics(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 2)
        mesh.send(Message(0, 1, 2.0, deliver=lambda: None))
        sim.run()
        mesh.reset_statistics()
        assert mesh.messages_delivered == 0
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert mesh.utilization == pytest.approx(0.0)

    def test_pending(self):
        sim = Simulator()
        mesh = PointToPointNetwork(sim, 2)
        mesh.send(Message(0, 1, 10.0, deliver=lambda: None))
        mesh.send(Message(0, 1, 10.0, deliver=lambda: None))
        assert mesh.pending_messages() == 2
        assert mesh.pending_messages(0) == 2
        assert mesh.pending_messages(1) == 0


class TestEndToEnd:
    def test_system_runs_on_mesh(self, tiny_config):
        config = tiny_config.with_network(subnet_kind="mesh")
        system = DistributedDatabase(config, make_policy("LERT"), seed=1)
        results = system.run(warmup=100.0, duration=600.0)
        assert results.completions > 20
        assert results.remote_fraction > 0

    def test_mesh_beats_ring_when_ring_congested(self):
        # Large message times congest the shared ring badly; the mesh
        # shrugs them off.
        waits = {}
        for kind in ("ring", "mesh"):
            config = paper_defaults(num_sites=8, msg_length=3.0).with_network(
                subnet_kind=kind
            )
            system = DistributedDatabase(config, make_policy("BNQ"), seed=2)
            waits[kind] = system.run(500.0, 2500.0).mean_waiting_time
        assert waits["mesh"] < waits["ring"]

    def test_config_validation(self):
        with pytest.raises(Exception):
            paper_defaults().with_network(subnet_kind="bus")

    def test_serialization_round_trip_with_mesh(self):
        from repro.codec import from_dict, to_dict
        from repro.model.config import SystemConfig

        config = paper_defaults().with_network(subnet_kind="mesh")
        assert from_dict(SystemConfig, to_dict(config)) == config
