"""Causal broadcast over an adversarial network (our measurement).

The Fig. 7 semantics assumes causal, exactly-once delivery; the
`UnreliableCausalBroadcast` layer implements it over duplication,
reordering, and loss.  This benchmark measures the delivery overhead as
loss rates climb, asserting quiescence + convergence each time.
"""

import random

import pytest

from conftest import emit
from repro.core.convergence import check_convergence
from repro.core.errors import PreconditionViolation
from repro.proofs.registry import entry_by_name
from repro.runtime import OpBasedSystem
from repro.runtime.faults import UnreliableCausalBroadcast

RATES = [0.0, 0.2, 0.4]
STATS = {}


def run(drop_rate):
    entry = entry_by_name("OR-Set")
    rng = random.Random(7)
    system = OpBasedSystem(entry.make_crdt(), replicas=("r1", "r2", "r3"))
    network = UnreliableCausalBroadcast(
        system, seed=7, duplicate_probability=drop_rate,
        drop_probability=drop_rate,
    )
    workload = entry.make_workload()
    issued = 0
    while issued < 15:
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
        network.deliver_one()
    network.run_to_quiescence()
    return system, network


@pytest.mark.parametrize("rate", RATES)
def test_network_adversity_cost(benchmark, rate):
    system, network = benchmark(run, rate)
    assert system.pending_count() == 0
    ok, _ = check_convergence(system.replica_views())
    assert ok
    STATS[rate] = network.stats


def test_network_stats_table(benchmark):
    benchmark(lambda: None)
    rows = [
        f"drop/dup rate {rate:>4}: sent={s.packets_sent:>4} "
        f"dropped={s.drops:>3} duplicated={s.duplicates:>3} "
        f"retransmitted={s.retransmissions:>3} buffered={s.buffered:>3}"
        for rate, s in sorted(STATS.items())
    ]
    emit("Causal broadcast under network adversity (15 ops, 3 replicas)",
         "\n".join(rows))
    assert STATS
