"""The Fig. 12 catalogue: every CRDT with its verification ingredients.

Each entry bundles what the paper's per-CRDT proofs need:

* the implementation (op-based or state-based),
* the sequential specification,
* the query-update rewriting γ (None when the identity),
* the refinement mapping ``abs`` from replica states to spec states,
* for timestamp-order CRDTs, the ``ts(σ)`` extractor used by the
  Refinement_ts guard,
* a randomized workload.

The classes (``EO`` — execution-order, ``TO`` — timestamp-order) and kinds
(``OB``/``SB``) are transcribed from Fig. 12; three extra entries (G-Counter,
G-Set, RGA-addAt) cover Appendix C/D material beyond the figure.
"""

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..core.sentinels import BEGIN, END, ROOT
from ..core.timestamp import BOTTOM
from ..crdts.opbased import (
    Op2PSet,
    OpCounter,
    OpLWWRegister,
    OpORSet,
    OpRGA,
    OpRGAAddAt,
    OpWooki,
)
from ..crdts.opbased.rga import traverse
from ..crdts.statebased import (
    SBLWWRegister,
    SB2PSet,
    SBGCounter,
    SBGSet,
    SBLWWElementSet,
    SBMVRegister,
    SBPNCounter,
)
from ..runtime.workloads import (
    CounterWorkload,
    GCounterWorkload,
    GSetWorkload,
    LWWSetWorkload,
    MVRegisterWorkload,
    ORSetWorkload,
    RGAAddAtWorkload,
    RGAWorkload,
    RegisterWorkload,
    TwoPSetWorkload,
    Workload,
    WookiWorkload,
)
from ..specs import (
    AddAt3Spec,
    CounterSpec,
    LWWRegisterSpec,
    MVRegisterRewriting,
    MVRegisterSpec,
    ORSetRewriting,
    ORSetSpec,
    RGASpec,
    SetSpec,
    WookiSpec,
)


@dataclass
class CRDTEntry:
    """One row of the (extended) Fig. 12 table plus its proof ingredients."""

    name: str
    kind: str        # "OB" | "SB"
    lin_class: str   # "EO" | "TO"
    make_crdt: Callable[[], Any]
    make_spec: Callable[[], Any]
    make_gamma: Callable[[], Any]    # returns None for identity
    abs_fn: Callable[[Any], Any]
    make_workload: Callable[[], Workload]
    state_timestamps: Optional[Callable[[Any], Any]] = None
    in_figure_12: bool = True
    source: str = ""
    #: Whether the exhaustive explorer may dedup configurations modulo
    #: replica permutation (see ``runtime/symmetry.py``).  Sound whenever
    #: the CRDT never *orders* timestamps minted by concurrent operations
    #: in a value-observable way — Lamport timestamps tie-break on the
    #: replica string, so renaming replicas is not an automorphism of the
    #: timestamp order.  Set False for last-writer-wins semantics and for
    #: Wooki (its degree/wid ordering is observable); sequence CRDTs that
    #: only reorder *equal* values under symmetric programs (RGA) stay
    #: True, guarded by the naive-vs-symmetry differential suite.
    symmetry: bool = True
    #: Operations per chaos run (``repro chaos`` / the fault-injection
    #: soak).  Sequence CRDTs get a smaller budget: their histories grow
    #: long anchors chains, and the soak multiplies runs across every
    #: (plan, seed) pair.
    chaos_operations: int = 12


def _rga_abs(state):
    nodes, tombs = state
    return ((ROOT,) + traverse(nodes, frozenset()), frozenset(tombs))


def _rga_addat_abs(state):
    nodes, tombs = state
    return (traverse(nodes, frozenset()), frozenset(tombs))


def _rga_state_timestamps(state):
    nodes, _tombs = state
    return [ts for _, ts, _ in nodes]


def _wooki_abs(state):
    sequence = tuple(char.value for char in state)
    hidden = frozenset(
        char.value for char in state
        if not char.visible and char.value not in (BEGIN, END)
    )
    return (sequence, hidden)


def _lww_register_abs(state):
    value, _ts = state
    return value


def _lww_register_state_timestamps(state):
    _value, ts = state
    return [] if ts is BOTTOM else [ts]


def _pn_counter_abs(state):
    positives, negatives = state
    return sum(positives.values()) - sum(negatives.values())


def _lww_set_abs(state):
    from ..crdts.statebased.lww_element_set import lww_contents

    return lww_contents(state)


def _lww_set_state_timestamps(state):
    adds, removes = state
    return [record[1] for record in adds | removes]


def _two_phase_abs(state):
    added, removed = state
    return added - removed


FIGURE_12_ENTRIES: List[CRDTEntry] = [
    CRDTEntry(
        name="Counter",
        kind="OB", lin_class="EO",
        make_crdt=OpCounter,
        make_spec=CounterSpec,
        make_gamma=lambda: None,
        abs_fn=lambda state: state,
        make_workload=CounterWorkload,
        source="Shapiro et al. 2011",
    ),
    CRDTEntry(
        name="PN-Counter",
        kind="SB", lin_class="EO",
        make_crdt=SBPNCounter,
        make_spec=CounterSpec,
        make_gamma=lambda: None,
        abs_fn=_pn_counter_abs,
        make_workload=CounterWorkload,
        source="Shapiro et al. 2011",
    ),
    CRDTEntry(
        name="LWW-Register",
        kind="OB", lin_class="TO",
        make_crdt=OpLWWRegister,
        make_spec=LWWRegisterSpec,
        make_gamma=lambda: None,
        abs_fn=_lww_register_abs,
        make_workload=RegisterWorkload,
        state_timestamps=_lww_register_state_timestamps,
        source="Johnson and Thomas 1975",
        symmetry=False,
    ),
    CRDTEntry(
        name="Multi-Value Reg.",
        kind="SB", lin_class="EO",
        make_crdt=SBMVRegister,
        make_spec=MVRegisterSpec,
        make_gamma=MVRegisterRewriting,
        abs_fn=lambda state: state,
        make_workload=MVRegisterWorkload,
        source="DeCandia et al. 2007",
    ),
    CRDTEntry(
        name="LWW-Element Set",
        kind="SB", lin_class="TO",
        make_crdt=SBLWWElementSet,
        make_spec=SetSpec,
        make_gamma=lambda: None,
        abs_fn=_lww_set_abs,
        make_workload=LWWSetWorkload,
        state_timestamps=_lww_set_state_timestamps,
        source="Shapiro et al. 2011",
        symmetry=False,
    ),
    CRDTEntry(
        name="2P-Set",
        kind="SB", lin_class="EO",
        make_crdt=SB2PSet,
        make_spec=SetSpec,
        make_gamma=lambda: None,
        abs_fn=_two_phase_abs,
        make_workload=TwoPSetWorkload,
        source="Shapiro et al. 2011",
    ),
    CRDTEntry(
        name="OR-Set",
        kind="OB", lin_class="EO",
        make_crdt=OpORSet,
        make_spec=ORSetSpec,
        make_gamma=ORSetRewriting,
        abs_fn=lambda state: state,
        make_workload=ORSetWorkload,
        source="Shapiro et al. 2011",
    ),
    CRDTEntry(
        name="RGA",
        kind="OB", lin_class="TO",
        make_crdt=OpRGA,
        make_spec=RGASpec,
        make_gamma=lambda: None,
        abs_fn=_rga_abs,
        make_workload=RGAWorkload,
        state_timestamps=_rga_state_timestamps,
        source="Roh et al. 2011",
        chaos_operations=10,
    ),
    CRDTEntry(
        name="Wooki",
        kind="OB", lin_class="EO",
        make_crdt=OpWooki,
        make_spec=WookiSpec,
        make_gamma=lambda: None,
        abs_fn=_wooki_abs,
        make_workload=WookiWorkload,
        source="Weiss et al. 2007",
        chaos_operations=10,
        symmetry=False,
    ),
]

EXTRA_ENTRIES: List[CRDTEntry] = [
    CRDTEntry(
        name="2P-Set (op)",
        kind="OB", lin_class="EO",
        make_crdt=Op2PSet,
        make_spec=SetSpec,
        make_gamma=lambda: None,
        abs_fn=_two_phase_abs,
        make_workload=TwoPSetWorkload,
        in_figure_12=False,
        source="Shapiro et al. 2011",
    ),
    CRDTEntry(
        name="LWW-Register (SB)",
        kind="SB", lin_class="TO",
        make_crdt=SBLWWRegister,
        make_spec=LWWRegisterSpec,
        make_gamma=lambda: None,
        abs_fn=_lww_register_abs,
        make_workload=RegisterWorkload,
        state_timestamps=_lww_register_state_timestamps,
        in_figure_12=False,
        source="Johnson and Thomas 1975",
        symmetry=False,
    ),
    CRDTEntry(
        name="G-Counter",
        kind="SB", lin_class="EO",
        make_crdt=SBGCounter,
        make_spec=CounterSpec,
        make_gamma=lambda: None,
        abs_fn=lambda state: sum(state.values()),
        make_workload=GCounterWorkload,
        in_figure_12=False,
        source="Shapiro et al. 2011",
    ),
    CRDTEntry(
        name="G-Set",
        kind="SB", lin_class="EO",
        make_crdt=SBGSet,
        make_spec=SetSpec,
        make_gamma=lambda: None,
        abs_fn=lambda state: state,
        make_workload=GSetWorkload,
        in_figure_12=False,
        source="Shapiro et al. 2011",
    ),
    CRDTEntry(
        name="RGA-addAt",
        kind="OB", lin_class="TO",
        make_crdt=OpRGAAddAt,
        make_spec=AddAt3Spec,
        make_gamma=lambda: None,
        abs_fn=_rga_addat_abs,
        make_workload=RGAAddAtWorkload,
        state_timestamps=_rga_state_timestamps,
        in_figure_12=False,
        source="Attiya et al. 2016 (Appendix C)",
        chaos_operations=10,
    ),
]

ALL_ENTRIES: List[CRDTEntry] = FIGURE_12_ENTRIES + EXTRA_ENTRIES


def entry_by_name(name: str) -> CRDTEntry:
    for entry in ALL_ENTRIES:
        if entry.name == name:
            return entry
    raise KeyError(name)
