"""Base classes for CRDT implementations.

Op-based CRDTs (Sec. 2, Fig. 1) split every method into a *generator* — run
once, at the origin replica, allowed to read the state — and an *effector* —
a pure state transformer broadcast to (and applied at) every replica.
Queries produce no effector; updates produce effectors whose behaviour
depends only on the generator's outputs (never on the receiving state beyond
what the effector arguments encode).

State-based CRDTs (Sec. 6, Appendix D) apply the whole method at the origin
and instead exchange *states*, merged via the least-upper-bound ``merge`` of
a join semilattice.  For the Appendix D proof methodology each operation is
additionally given a "local effector" — a proof artifact: the state delta it
performs at the origin, identified by ``effector_args``.

All states are immutable values (tuples / frozensets / FrozenDict) so that
the property-checking harness can compare, hash, and replay them freely.
"""

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional, Tuple

from ..core.freeze import freeze
from ..core.label import Label
from ..core.spec import Role


@dataclass(frozen=True)
class Effector:
    """A broadcastable effector: a named pure transformer plus arguments."""

    method: str
    args: Tuple[Any, ...] = ()

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        return f"eff:{self.method}({inner})"


@dataclass(frozen=True)
class GeneratorResult:
    """What a generator produces: a return value and (maybe) an effector."""

    ret: Any = None
    effector: Optional[Effector] = None


class OpBasedCRDT(ABC):
    """An operation-based CRDT in the paper's generator/effector style."""

    #: Data type name, e.g. ``"OR-Set"``.
    type_name: str = "op-based CRDT"
    #: Role of each method (query / update / query-update), per Sec. 3.1.
    methods: Mapping[str, Role] = {}
    #: Methods whose generator samples a timestamp.
    timestamped_methods: FrozenSet[str] = frozenset()
    #: Whether replica states are immutable values that may be *shared*
    #: between configuration snapshots.  All in-tree CRDTs use immutable
    #: tuples / frozensets / FrozenDicts, so sharing is safe; a CRDT with
    #: mutable states must set this to False, and the exploration engine
    #: falls back to ``copy.deepcopy`` branching for it.
    snapshot_safe: bool = True

    @abstractmethod
    def initial_state(self) -> Any:
        """The initial replica state σ₀."""

    def fingerprint(self, state: Any) -> Any:
        """A hashable canonical form of ``state`` (the Fingerprintable hook).

        Two states with equal fingerprints must be observably equal: the
        exploration engine merges configurations whose fingerprints agree.
        The default deep-freezes the state with :func:`repro.core.freeze`;
        override for states with non-canonical representations (e.g. caches
        or insertion-ordered containers that do not affect behaviour).
        """
        return freeze(state)

    def precondition(self, state: Any, method: str, args: Tuple) -> bool:
        """Generator precondition (Listing 1/5 ``precondition`` clauses)."""
        return True

    @abstractmethod
    def generator(
        self, state: Any, method: str, args: Tuple, ts: Any
    ) -> GeneratorResult:
        """Run the generator at the origin replica.

        ``ts`` is the freshly sampled timestamp when the method is in
        ``timestamped_methods``, otherwise ``BOTTOM``.
        """

    @abstractmethod
    def apply_effector(self, state: Any, effector: Effector) -> Any:
        """Apply an effector — a pure function of (state, effector args)."""

    def role(self, method: str) -> Role:
        return self.methods[method]


class EffectorClass(enum.Enum):
    """Appendix D classification of state-based local effectors."""

    UNIQUE = "uniquely-identified"   # D.3: unique args + partial order
    CUMULATIVE = "cumulative"        # D.4: args unique per (m, a, b, origin)
    IDEMPOTENT = "idempotent"        # D.5: apply twice = apply once


class StateBasedCRDT(ABC):
    """A state-based CRDT (Listing 6 outline + Appendix D decomposition)."""

    type_name: str = "state-based CRDT"
    methods: Mapping[str, Role] = {}
    timestamped_methods: FrozenSet[str] = frozenset()
    effector_class: EffectorClass = EffectorClass.UNIQUE
    #: See :attr:`OpBasedCRDT.snapshot_safe`.
    snapshot_safe: bool = True

    @abstractmethod
    def initial_state(self) -> Any:
        """The initial replica state σ₀."""

    def fingerprint(self, state: Any) -> Any:
        """A hashable canonical form of ``state``.

        See :meth:`OpBasedCRDT.fingerprint`.
        """
        return freeze(state)

    def precondition(self, state: Any, method: str, args: Tuple) -> bool:
        return True

    @abstractmethod
    def apply(
        self, state: Any, method: str, args: Tuple, ts: Any, replica: str
    ) -> Tuple[Any, Any]:
        """The method body θ: returns ``(return value, new state)``.

        Queries leave the state unchanged.  ``replica`` is the origin
        replica identifier (``myRep()`` in Listing 7/9).
        """

    @abstractmethod
    def merge(self, state1: Any, state2: Any) -> Any:
        """Least upper bound of two replica states."""

    def compare(self, state1: Any, state2: Any) -> bool:
        """``state1 ≤ state2`` in the join semilattice.

        Default: ``merge(s1, s2) == s2`` (the canonical lattice order).
        """
        return self.merge(state1, state2) == state2

    def role(self, method: str) -> Role:
        return self.methods[method]

    # ------------------------------------------------------------------
    # Appendix D "local effector" decomposition (proof artifacts)
    # ------------------------------------------------------------------

    @abstractmethod
    def effector_args(self, label: Label) -> Any:
        """``arg(ℓ)``: the local-effector argument of an update label.

        Returns ``None`` for queries (they have no effector).
        """

    @abstractmethod
    def apply_local(self, state: Any, arg: Any) -> Any:
        """``apply(σ, arg(ℓ))``: the universal local-effector function."""

    def arg_lt(self, arg1: Any, arg2: Any) -> bool:
        """Strict partial order on effector args (UNIQUE class only)."""
        raise NotImplementedError(
            f"{self.type_name} does not order its effector arguments"
        )

    def predicate_p(self, state: Any, arg: Any) -> bool:
        """P1/P2 (Appendix D.3/D.4): ``arg`` is maximal / fresh w.r.t. the
        effectors already folded into ``state``."""
        raise NotImplementedError

    def timestamps_in_state(self, state: Any):
        """Timestamps stored in a state (drives Lamport clocks on merge)."""
        return ()
