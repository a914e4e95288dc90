"""Causal broadcast over an adversarial network."""

import pytest

from repro.core.convergence import check_convergence
from repro.core.errors import PreconditionViolation
from repro.core.ralin import execution_order_check, timestamp_order_check
from repro.proofs.registry import entry_by_name
from repro.runtime import OpBasedSystem
from repro.runtime.faults import UnreliableCausalBroadcast

import random


def adversarial_run(entry, seed, operations=12):
    rng = random.Random(seed)
    system = OpBasedSystem(entry.make_crdt(), replicas=("r1", "r2", "r3"))
    network = UnreliableCausalBroadcast(
        system, seed=seed, duplicate_probability=0.3, drop_probability=0.3
    )
    workload = entry.make_workload()
    issued = 0
    while issued < operations:
        replica = rng.choice(system.replicas)
        proposal = workload.propose(system.state(replica), rng)
        if proposal is None:
            continue
        try:
            system.invoke(replica, *proposal)
            issued += 1
        except PreconditionViolation:
            continue
        network.broadcast_new()
        for _ in range(rng.randint(0, 4)):
            network.deliver_one()
    network.run_to_quiescence()
    for replica in system.replicas:
        system.invoke(replica, "read")
    network.run_to_quiescence()
    return system, network


NAMES = ["Counter", "OR-Set", "RGA", "Wooki"]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_quiescence_despite_adversary(name, seed):
    entry = entry_by_name(name)
    system, network = adversarial_run(entry, seed)
    assert system.pending_count() == 0
    ok, offenders = check_convergence(system.replica_views())
    assert ok, offenders
    checker = (
        execution_order_check if entry.lin_class == "EO"
        else timestamp_order_check
    )
    outcome = checker(
        system.history(), entry.make_spec(), system.generation_order,
        entry.make_gamma(),
    )
    assert outcome.ok, outcome.reason


def test_adversary_actually_misbehaved():
    entry = entry_by_name("OR-Set")
    _system, network = adversarial_run(entry, seed=5, operations=15)
    assert network.stats.drops > 0
    assert network.stats.duplicates > 0
    assert network.stats.retransmissions > 0
    assert network.stats.buffered > 0


def test_exactly_once_application():
    # Duplicates never double-apply: counting delivered applications.
    entry = entry_by_name("Counter")
    system, network = adversarial_run(entry, seed=9)
    expected = sum(
        1
        for label in system.generation_order
        for replica in system.replicas
        if replica != label.origin
    )
    assert network.stats.delivered == expected


def test_reliable_network_degenerates_to_deliver_all():
    entry = entry_by_name("Counter")
    system = OpBasedSystem(entry.make_crdt(), replicas=("r1", "r2"))
    network = UnreliableCausalBroadcast(
        system, seed=0, duplicate_probability=0.0, drop_probability=0.0
    )
    system.invoke("r1", "inc")
    system.invoke("r2", "inc")
    network.run_to_quiescence()
    assert system.state("r1") == system.state("r2") == 2
