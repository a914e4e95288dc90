"""The compiled transition alphabet of the exploration domains.

A domain numbers its scope's transitions once (``_Domain.alphabet``) and
answers the DFS's questions from per-transition tables: one index table
per replica permutation (and one for its inverse), and the independence
masks with the commutativity probe that remains for same-replica
deliveries of one object and same-target gossips.  These tests hold the
tables to the tuple-level definitions they replace: ``rename_transition``
and the pairwise independence relation kept below as a reference.
"""

import random

import pytest

from repro.proofs.compositional import make_store_system, parse_store_spec
from repro.proofs.mutants import LastDeliveryWinsRegister
from repro.proofs.registry import entry_by_name
from repro.runtime import OpBasedSystem, StateBasedSystem
from repro.runtime.explore_engine import _logical_ids, build_engine
from repro.runtime.symmetry import rename_transition

REPLICAS = ("r1", "r2", "r3")

#: The symmetric 3-replica ``inc; read`` programs.
INC_READ = {r: [("inc", ()), ("read", ())] for r in REPLICAS}

STORE = parse_store_spec("counter:1,orset:1")

#: One increment and one add per replica of the two-object store.
STORE_PROGRAMS = {
    r: [("inc", (), "counter"), ("add", ("a",), "or_set"),
        ("read", (), "counter")]
    for r in ("r1", "r2")
}

#: One write per replica: the mutant's deliveries do not commute.
WRITES = {r: [("write", ("a",))] for r in REPLICAS}


def _counter():
    return OpBasedSystem(
        entry_by_name("Counter").make_crdt(), replicas=REPLICAS
    )


def _g_counter():
    return StateBasedSystem(
        entry_by_name("G-Counter").make_crdt(), replicas=REPLICAS
    )


def _store():
    return make_store_system(STORE, replicas=("r1", "r2"))


def _mutant():
    return OpBasedSystem(LastDeliveryWinsRegister(), replicas=REPLICAS)


#: name -> (kind, system factory, programs, symmetry group order).
SCOPES = {
    "counter-3r": ("op", _counter, INC_READ, 6),
    "g-counter-3r": ("state", _g_counter, INC_READ, 6),
    "store-2r": ("op", _store, STORE_PROGRAMS, 2),
    "ldw-register-3r": ("op", _mutant, WRITES, 6),
}


def _domain(name, symmetry=True):
    kind, make_system, programs, _ = SCOPES[name]
    return build_engine(
        kind, make_system, programs, lambda *_: None, max_gossips=2,
        symmetry=symmetry,
    ).domain


def _expected_alphabet(kind, programs):
    invs = [("inv", r, i) for r in programs for i in range(len(programs[r]))]
    if kind == "state":
        return invs + [("gos", s, t) for s in programs for t in programs
                       if s != t]
    return invs + [
        ("del", target, (origin, i))
        for target in programs for origin in programs if origin != target
        for i in range(len(programs[origin]))
    ]


@pytest.mark.parametrize("name", sorted(SCOPES))
def test_alphabet_lists_every_transition_once(name):
    kind, _, programs, _ = SCOPES[name]
    assert _domain(name).alphabet == _expected_alphabet(kind, programs)


@pytest.mark.parametrize("name", sorted(SCOPES))
def test_index_tables_rename_like_the_tuples(name):
    order = SCOPES[name][3]
    domain = _domain(name)
    maps = domain.sym.maps
    assert len(maps) == order
    assert len(domain.rename_tables) == len(domain.unrename_tables) == order
    alphabet = domain.alphabet
    for mapping, table, inverse in zip(
        maps, domain.rename_tables, domain.unrename_tables
    ):
        for index, transition in enumerate(alphabet):
            assert alphabet[table[index]] == rename_transition(
                transition, mapping
            )
            assert inverse[table[index]] == index


def test_sleep_masks_follow_the_minimizing_element():
    domain = _domain("counter-3r")
    domain.apply(0)  # r1 invokes: the orbit's minimizer moves r1
    domain.fingerprint()
    g = domain.sym.last_index
    assert g != 0
    full = (1 << len(domain.alphabet)) - 1
    assert domain.canon_sleep(full) == full
    some = 0b1010010001
    canon = domain.canon_sleep(some)
    assert canon.bit_count() == some.bit_count()
    assert domain.uncanon_transitions(canon) == some


# ----------------------------------------------------------------------
# The independence masks against the pairwise relation they replace
# ----------------------------------------------------------------------


def _op_independent(system, a, b):
    """Op-based independence on transition tuples, probing effector
    commutation on the live system for same-replica deliveries of one
    object."""
    if a[1] != b[1]:
        return True
    if a[0] != "del" or b[0] != "del":
        return False
    lids = _logical_ids(system.generation_order)
    label_of = {lids[label.uid]: label for label in system.generation_order}
    first, second = label_of[a[2]], label_of[b[2]]
    if first.obj != second.obj:
        return True
    eff1, eff2 = system.effector_of(first), system.effector_of(second)
    if eff1 is None or eff2 is None:
        return True
    crdt = system.objects[first.obj]
    state = system.state(a[1], first.obj)
    apply = crdt.apply_effector
    return apply(apply(state, eff1), eff2) == apply(apply(state, eff2), eff1)


def _state_independent(system, budget, a, b):
    """State-based independence on transition tuples, probing merge
    commutation on the live system for same-target gossips."""
    if a[0] == "gos" and b[0] == "gos":
        if budget < 2:
            return False
        if a[2] == b[2]:
            merge = system.crdt.merge
            base = system.state(a[2])
            one, two = system.state(a[1]), system.state(b[1])
            return merge(merge(base, one), two) == merge(merge(base, two), one)
        return a[2] not in (b[1], b[2]) and b[2] not in (a[1], a[2])
    if a[0] == "inv" and b[0] == "inv":
        return a[1] != b[1]
    inv, gos = (a, b) if a[0] == "inv" else (b, a)
    return inv[1] not in (gos[1], gos[2])


def _members(mask, alphabet):
    return {alphabet[t] for t in range(len(alphabet)) if (mask >> t) & 1}


def _walk_checking_sleep(name, seed):
    """Walk one random execution of ``name`` to its end; at every node,
    compare the child sleep of every enabled transition (under the
    sleep set of all enabled transitions) with the reference relation.
    Returns how many probed pairs the reference found dependent."""
    kind = SCOPES[name][0]
    domain = _domain(name, symmetry=False)
    alphabet = domain.alphabet
    rng = random.Random(seed)
    dependent_probes = 0
    while True:
        enabled = domain.transitions()
        if not enabled:
            return dependent_probes
        sleep = sum(1 << t for t in enabled)
        for t in enabled:
            expected = set()
            for other in enabled:
                a, b = alphabet[other], alphabet[t]
                if kind == "op":
                    independent = _op_independent(domain.system, a, b)
                    probed = a[0] == b[0] == "del" and a[1] == b[1]
                else:
                    independent = _state_independent(
                        domain.system, domain.budget, a, b
                    )
                    probed = a[0] == b[0] == "gos" and a[2] == b[2]
                if independent:
                    expected.add(a)
                elif probed:
                    dependent_probes += 1
            assert _members(domain.sleep_after(sleep, t), alphabet) \
                == expected, (name, seed, alphabet[t])
        rng.shuffle(enabled)
        assert any(domain.apply(t) for t in enabled)


@pytest.mark.parametrize("name", sorted(SCOPES))
@pytest.mark.parametrize("seed", range(4))
def test_child_sleep_matches_the_reference_relation(name, seed):
    _walk_checking_sleep(name, seed)


def test_mutant_probe_fails_and_the_mask_keeps_the_pair_dependent():
    # Two writes delivered to one replica of the last-delivery-wins
    # mutant end in different states in the two orders: the probe must
    # keep such pairs out of the child sleep (checked inside the walk).
    dependent = sum(
        _walk_checking_sleep("ldw-register-3r", seed) for seed in range(4)
    )
    assert dependent > 0
