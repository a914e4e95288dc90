"""Hypothesis stateful testing of the op-based runtime.

A rule-based state machine drives an OR-Set system with arbitrary
interleavings of invocations and causal deliveries; class invariants assert
the runtime's structural guarantees after *every* step:

* visibility stays acyclic (History construction validates it);
* causal delivery: everything a replica has seen that is visible to a seen
  label is itself seen (downward closure);
* timestamps are consistent with visibility;
* read-your-writes holds;
* any two replicas with equal label sets have equal states.

Two more machines drive the snapshot discipline the explorers rely on,
op-based (a ⊗ product with two clock tables) and state-based (with
gossip): rules push a ``snapshot()`` token, restore the top token (so
one token is restored any number of times) and pop it.  Every restore
is checked against a deepcopy of what the system showed when the token
was taken — states, ``seen()``, the ``history()`` edges, the generation
order, the action logs and the clocks.

The last two machines run the same stack discipline one layer up, on
the exploration engine's domains, whose push token holds references
only (every domain write is copy-on-write): after each restore the
enabled transitions, the residual transitions and the fingerprint must
equal what the domain answered when the token was pushed, and after
every step the domain must agree with a fresh one replaying its path.
"""

import copy

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.convergence import check_convergence
from repro.core.sessions import check_session_guarantees
from repro.crdts import OpLWWRegister, OpORSet, SBGCounter, SBLWWElementSet
from repro.runtime import OpBasedSystem, StateBasedSystem
from repro.runtime.explore_engine import build_engine

REPLICAS = ("r1", "r2")
VALUES = ("a", "b")


class ORSetMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = OpBasedSystem(OpORSet(), replicas=REPLICAS)

    @rule(replica=st.sampled_from(REPLICAS), value=st.sampled_from(VALUES))
    def add(self, replica, value):
        self.system.invoke(replica, "add", (value,))

    @rule(replica=st.sampled_from(REPLICAS), value=st.sampled_from(VALUES))
    def remove(self, replica, value):
        self.system.invoke(replica, "remove", (value,))

    @rule(replica=st.sampled_from(REPLICAS))
    def read(self, replica):
        label = self.system.invoke(replica, "read")
        # read must reflect exactly the replica's current state.
        expected = frozenset(e for e, _ in self.system.state(replica))
        assert label.ret == expected

    @rule(replica=st.sampled_from(REPLICAS), pick=st.integers(0, 10 ** 6))
    def deliver(self, replica, pick):
        pending = self.system.deliverable(replica)
        if pending:
            self.system.deliver(replica, pending[pick % len(pending)])

    @invariant()
    def visibility_is_acyclic(self):
        if not hasattr(self, "system"):
            return
        self.system.history()  # History.__init__ validates acyclicity

    @invariant()
    def seen_sets_are_causally_closed(self):
        if not hasattr(self, "system"):
            return
        history = self.system.history()
        for replica in REPLICAS:
            seen = self.system.seen(replica)
            for label in seen:
                missing = history.visible_to(label) - seen
                assert not missing, (
                    f"{replica} saw {label!r} but not {missing!r}"
                )

    @invariant()
    def timestamps_follow_visibility(self):
        if not hasattr(self, "system"):
            return
        history = self.system.history()
        for src, dst in history.closure():
            if src.generates_timestamp() and dst.generates_timestamp():
                assert src.ts < dst.ts

    @invariant()
    def session_guarantees_hold(self):
        if not hasattr(self, "system"):
            return
        report = check_session_guarantees(
            self.system.history(), self.system.generation_order
        )
        assert report.all_hold, report.violations

    @invariant()
    def equal_views_equal_states(self):
        if not hasattr(self, "system"):
            return
        ok, offenders = check_convergence(self.system.replica_views())
        assert ok, offenders


ORSetMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestORSetMachine = ORSetMachine.TestCase


# ----------------------------------------------------------------------
# Snapshot / restore under the explorers' stack discipline
# ----------------------------------------------------------------------

#: ``(object, method, args)`` steps of the op-based product.
PRODUCT_STEPS = (
    ("set", "add", ("a",)),
    ("set", "remove", ("a",)),
    ("set", "read", ()),
    ("reg", "write", ("x",)),
    ("reg", "read", ()),
)


class _SnapshotStack(RuleBasedStateMachine):
    """Token stack rules shared by both semantics; subclasses build the
    system and say what a restore must bring back (:meth:`view`)."""

    def view(self):
        raise NotImplementedError

    @rule()
    def push(self):
        self.tokens.append(
            (self.system.snapshot(), copy.deepcopy(self.view()))
        )

    @precondition(lambda self: self.tokens)
    @rule()
    def restore(self):
        token, expected = self.tokens[-1]
        self.system.restore(token)
        assert self.view() == expected

    @precondition(lambda self: self.tokens)
    @rule()
    def pop(self):
        self.tokens.pop()


class OpSnapshotMachine(_SnapshotStack):
    @initialize()
    def setup(self):
        # Independent generators (⊗): the token carries two clock tables.
        self.system = OpBasedSystem(
            {"set": OpORSet(), "reg": OpLWWRegister()},
            replicas=REPLICAS, shared_timestamps=False,
        )
        self.tokens = []

    @rule(replica=st.sampled_from(REPLICAS),
          step=st.sampled_from(PRODUCT_STEPS))
    def invoke(self, replica, step):
        obj, method, args = step
        self.system.invoke(replica, method, args, obj=obj)

    @rule(replica=st.sampled_from(REPLICAS), pick=st.integers(0, 10 ** 6))
    def deliver(self, replica, pick):
        pending = self.system.deliverable(replica)
        if pending:
            self.system.deliver(replica, pending[pick % len(pending)])

    def view(self):
        system = self.system
        return (
            {(r, o): system.state(r, o)
             for r in REPLICAS for o in system.objects},
            {r: system.seen(r) for r in REPLICAS},
            system.history().vis,
            list(system.generation_order),
            list(system.trace),
            {o: [g.clock(r) for r in REPLICAS]
             for o, g in system._generators.items()},
        )


class StateSnapshotMachine(_SnapshotStack):
    @initialize()
    def setup(self):
        self.system = StateBasedSystem(SBLWWElementSet(), replicas=REPLICAS)
        self.tokens = []

    @rule(replica=st.sampled_from(REPLICAS),
          method=st.sampled_from(("add", "remove")),
          value=st.sampled_from(VALUES))
    def invoke(self, replica, method, value):
        self.system.invoke(replica, method, (value,))

    @rule(sender=st.sampled_from(REPLICAS),
          receiver=st.sampled_from(REPLICAS))
    def gossip(self, sender, receiver):
        self.system.gossip(sender, receiver)

    @rule(replica=st.sampled_from(REPLICAS), pick=st.integers(0, 10 ** 6))
    def receive_again(self, replica, pick):
        messages = self.system.messages
        if messages:
            self.system.receive(replica, messages[pick % len(messages)])

    def view(self):
        system = self.system
        return (
            {r: system.state(r) for r in REPLICAS},
            {r: system.seen(r) for r in REPLICAS},
            system.history().vis,
            list(system.generation_order),
            list(system.messages),
            list(system.events),
            [system._generator.clock(r) for r in REPLICAS],
        )


SNAPSHOT_SETTINGS = settings(
    max_examples=50, stateful_step_count=25, deadline=None
)
OpSnapshotMachine.TestCase.settings = SNAPSHOT_SETTINGS
StateSnapshotMachine.TestCase.settings = SNAPSHOT_SETTINGS
TestOpSnapshotMachine = OpSnapshotMachine.TestCase
TestStateSnapshotMachine = StateSnapshotMachine.TestCase


# ----------------------------------------------------------------------
# The exploration domains' push tokens
# ----------------------------------------------------------------------

#: Identical ``⊗`` product programs, so the domain canonicalizes under a
#: group of order 2 and probes same-object delivery pairs.
DOMAIN_PRODUCT_PROGRAMS = {
    r: [("add", ("a",), "set"), ("write", ("x",), "reg"),
        ("remove", ("a",), "set"), ("read", (), "reg")]
    for r in REPLICAS
}

#: Three G-Counter replicas, one with a longer program.
DOMAIN_GOSSIP_PROGRAMS = {
    "r1": [("inc", ()), ("inc", ()), ("read", ())],
    "r2": [("inc", ()), ("read", ())],
    "r3": [("inc", ()), ("read", ())],
}


class _DomainTokenStack(RuleBasedStateMachine):
    """Push / apply / restore / pop on ``build_engine(...).domain``;
    subclasses build the engine.

    Besides the restore check, an invariant replays the applied path on
    a fresh domain: a restored table that a later write changed in place
    may stay hidden at restore time (the restored part table still holds
    the pushed parts) and show only after the next write to that
    replica."""

    def engine(self):
        raise NotImplementedError

    @initialize()
    def setup(self):
        self.domain = self.engine().domain
        self.path = []
        self.tokens = []

    @staticmethod
    def observe(domain):
        return (domain.transitions(), domain.residual_transitions(),
                domain.fingerprint())

    @rule()
    def push(self):
        self.tokens.append(
            (self.domain.push(), len(self.path), self.observe(self.domain))
        )

    @rule(pick=st.integers(0, 10 ** 6))
    def apply(self, pick):
        enabled = self.domain.transitions()
        if enabled:
            transition = enabled[pick % len(enabled)]
            if self.domain.apply(transition):
                self.path.append(transition)

    @precondition(lambda self: self.tokens)
    @rule()
    def restore(self):
        token, length, expected = self.tokens[-1]
        self.domain.pop(token)
        del self.path[length:]
        assert self.observe(self.domain) == expected

    @precondition(lambda self: self.tokens)
    @rule()
    def pop(self):
        self.tokens.pop()

    @invariant()
    def agrees_with_a_fresh_replay(self):
        if not hasattr(self, "domain"):
            return
        fresh = self.engine().domain
        for transition in self.path:
            assert fresh.apply(transition)
        assert self.observe(self.domain) == self.observe(fresh)


class OpDomainTokenMachine(_DomainTokenStack):
    def engine(self):
        return build_engine(
            "op",
            lambda: OpBasedSystem(
                {"set": OpORSet(), "reg": OpLWWRegister()},
                replicas=REPLICAS, shared_timestamps=False,
            ),
            DOMAIN_PRODUCT_PROGRAMS, lambda *_: None, symmetry=True,
        )


class StateDomainTokenMachine(_DomainTokenStack):
    @staticmethod
    def observe(domain):
        return domain.transitions(), domain.fingerprint()

    def engine(self):
        return build_engine(
            "state",
            lambda: StateBasedSystem(SBGCounter(), replicas=tuple(
                DOMAIN_GOSSIP_PROGRAMS
            )),
            DOMAIN_GOSSIP_PROGRAMS, lambda *_: None, max_gossips=3,
        )


OpDomainTokenMachine.TestCase.settings = SNAPSHOT_SETTINGS
StateDomainTokenMachine.TestCase.settings = SNAPSHOT_SETTINGS
TestOpDomainTokenMachine = OpDomainTokenMachine.TestCase
TestStateDomainTokenMachine = StateDomainTokenMachine.TestCase
