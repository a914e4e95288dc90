"""Operational semantics of state-based CRDTs (Appendix D.2).

Three transition rules:

* **OPERATION** — a replica runs a whole method θ locally; the label is
  added to its label set ``L`` and made to see everything in ``L``.
* **GENERATE** — a replica emits a message containing its *local
  configuration* ``(L, σ)``.
* **APPLY** — a replica merges a message's state into its own
  (``merge`` = least upper bound) and unions the label sets.

Messages are never consumed: they may be applied **multiple times**, at
**any replica**, in **any order**, or never (loss) — the adversarial
delivery the paper's state-based results must tolerate (no causal-delivery
assumption).  The runtime tracks Lamport clocks across merges so that
timestamped methods (LWW-Element-Set) still produce timestamps consistent
with visibility.
"""

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.errors import PreconditionViolation, SchedulingError
from ..core.history import History
from ..core.label import Label
from ..core.timestamp import BOTTOM, TimestampGenerator
from ..crdts.base import StateBasedCRDT


@dataclass(frozen=True)
class Message:
    """A GENERATE'd message: a snapshot of a local configuration."""

    msg_id: int
    sender: str
    labels: FrozenSet[Label]
    state: Any


class StateBasedSystem:
    """A replicated system running one state-based CRDT object.

    The containers follow :class:`~repro.runtime.system.OpBasedSystem`:
    label sets are frozensets replaced on write, the generator's clock
    table is copy-on-write, and the append-only logs (visibility,
    messages, generation order, events) are snapshotted by length mark
    and rewound by truncation — sound under the explorers' DFS discipline
    (tokens are only restored along the current execution path).
    """

    def __init__(
        self,
        crdt: StateBasedCRDT,
        replicas: Sequence[str] = ("r1", "r2", "r3"),
        obj: Optional[str] = None,
    ) -> None:
        self.crdt = crdt
        self.replicas = list(replicas)
        self.obj = obj
        self._generator = TimestampGenerator()
        self._states: Dict[str, Any] = {
            r: crdt.initial_state() for r in self.replicas
        }
        self._seen: Dict[str, FrozenSet[Label]] = {
            r: frozenset() for r in self.replicas
        }
        # Append-only: an invoke's edges are always new (its label is
        # fresh), so the log never holds a duplicate edge.
        self._vis: List[Tuple[Label, Label]] = []
        self.messages: List[Message] = []
        self.generation_order: List[Label] = []
        #: Event log: ("op", replica, label, pre, post) and
        #: ("apply", replica, message, pre, post) — consumed by the
        #: Appendix D proof harness (Prop5, reachable-state sampling).
        self.events: List[Tuple] = []

    # ------------------------------------------------------------------
    # OPERATION
    # ------------------------------------------------------------------

    def invoke(self, replica: str, method: str, args: Tuple = ()) -> Label:
        state = self._states[replica]
        if not self.crdt.precondition(state, method, tuple(args)):
            raise PreconditionViolation(
                f"{method}{tuple(args)!r} precondition fails at {replica}"
            )
        if method in self.crdt.timestamped_methods:
            ts = self._generator.fresh(replica)
        else:
            ts = BOTTOM
        ret, new_state = self.crdt.apply(
            state, method, tuple(args), ts, replica
        )
        label = Label(
            method, tuple(args), ret=ret, ts=ts, obj=self.obj, origin=replica
        )
        seen_here = self._seen[replica]
        self._vis.extend([(prior, label) for prior in seen_here])
        self._seen[replica] = seen_here | {label}
        self._states[replica] = new_state
        self.generation_order.append(label)
        self.events.append(("op", replica, label, state, new_state))
        return label

    # ------------------------------------------------------------------
    # GENERATE / APPLY
    # ------------------------------------------------------------------

    def send(self, replica: str) -> Message:
        """GENERATE: snapshot ``replica``'s local configuration."""
        message = Message(
            msg_id=len(self.messages),
            sender=replica,
            labels=self._seen[replica],
            state=self._states[replica],
        )
        self.messages.append(message)
        return message

    def receive(self, replica: str, message: Message) -> None:
        """APPLY: merge a message into ``replica``'s configuration.

        Idempotent and order-insensitive by the lattice laws — applying the
        same message twice is allowed (and exercised by the tests).
        """
        if message.msg_id >= len(self.messages):
            raise SchedulingError("unknown message")
        pre = self._states[replica]
        post = self.crdt.merge(pre, message.state)
        self._states[replica] = post
        self._seen[replica] = self._seen[replica] | message.labels
        for ts in self.crdt.timestamps_in_state(message.state):
            self._generator.observe(replica, ts)
        self.events.append(("apply", replica, message, pre, post))

    def gossip(self, source: str, target: str) -> None:
        """Convenience: ``source`` sends, ``target`` applies, immediately."""
        self.receive(target, self.send(source))

    def sync_all(self, rounds: int = 2) -> None:
        """Everybody gossips with everybody, ``rounds`` times."""
        for _ in range(rounds):
            snapshots = {r: self.send(r) for r in self.replicas}
            for target in self.replicas:
                for source in self.replicas:
                    if source != target:
                        self.receive(target, snapshots[source])

    # ------------------------------------------------------------------
    # Snapshot / restore (copy-on-write branching for the explorers)
    # ------------------------------------------------------------------

    @property
    def snapshot_safe(self) -> bool:
        """True when the CRDT keeps immutable (sharable) states."""
        return self.crdt.snapshot_safe

    def snapshot(self) -> Tuple:
        """An O(#replicas) snapshot token for :meth:`restore`.

        Replica states and label sets by reference (messages, labels and
        CRDT states are immutable values shared between the live system
        and the token), append-only logs by length mark.
        """
        return (
            dict(self._states),
            dict(self._seen),
            len(self._vis),
            len(self.messages),
            len(self.generation_order),
            len(self.events),
            self._generator.snapshot(),
        )

    def restore(self, token: Tuple) -> None:
        """Rewind to a :meth:`snapshot` token (reusable any number of times
        along the explorers' DFS discipline)."""
        states, seen, vis, messages, order, events, clocks = token
        self._states = dict(states)
        self._seen = dict(seen)
        del self._vis[vis:]
        del self.messages[messages:]
        del self.generation_order[order:]
        del self.events[events:]
        self._generator.restore(clocks)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def state(self, replica: str) -> Any:
        return self._states[replica]

    def seen(self, replica: str) -> FrozenSet[Label]:
        return self._seen[replica]

    def history(self) -> History:
        return History(self.generation_order, self._vis, check=False,
                       transitive=False)

    def replica_views(self) -> Dict[str, Tuple[FrozenSet[Label], Any]]:
        """Per-replica (visible labels, state) for the convergence oracle."""
        return {r: (self._seen[r], self._states[r]) for r in self.replicas}

    def outstanding_count(self) -> int:
        """Number of (label, replica) visibilities still outstanding.

        Counts generated labels not yet in a replica's label set; zero
        iff every replica has (transitively) received every operation —
        the state-based quiescence criterion used by the lossy gossip
        driver.
        """
        return sum(
            1
            for replica in self.replicas
            for label in self.generation_order
            if label not in self._seen[replica]
        )
