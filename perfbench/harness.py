"""Verdict calls and their reference check.

Every verdict goes through the public entry points
(``exhaustive_verify``, ``exhaustive_verify_state``, ``verify_store``)
with the exploration options a ``repro exhaustive`` user gets by default;
the benchmark itself only chooses programs, ``jobs`` and ``spill``.
"""

import json
import os
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro import proofs
from repro.proofs.mutants import mutant_catalogue

from scopes import STORE_OBJECTS, Scope, project

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: Pinned verdicts of the mutants on their standard programs: five are
#: caught; the node-dropping RGA needs a ``remove`` the standard
#: programs do not have.
MUTANT_VERDICTS = {
    "last-delivery-wins register": False,
    "eager-remove OR-Set": False,
    "ascending-sibling RGA": False,
    "node-dropping RGA": True,
    "vector-summing PN-Counter": False,
    "keep-dominated MV-Register": False,
}


def cli_options() -> Dict[str, Any]:
    """The exploration options ``repro exhaustive`` runs with by default.

    Read from the CLI parser, so a changed default (or a removed flag)
    reaches the benchmark without an edit here.
    """
    from repro.__main__ import build_parser

    args = build_parser().parse_args(["exhaustive"])
    options: Dict[str, Any] = {}
    if hasattr(args, "por"):
        options["por"] = args.por
    if hasattr(args, "steal"):
        options["steal"] = args.steal
    if hasattr(args, "no_symmetry"):
        options["symmetry"] = False if args.no_symmetry else None
    return options


def _entry(scope: Scope):
    if scope.kind == "mutant":
        for name, make_crdt, base in mutant_catalogue():
            if name == scope.name:
                entry = proofs.entry_by_name(base)
                return replace(entry, name=f"mutant of {entry.name}",
                               make_crdt=make_crdt)
        raise KeyError(scope.name)
    return proofs.entry_by_name(scope.name)


def verify(scope: Scope, options: Dict[str, Any], jobs: int = 1,
           spill: Optional[str] = None) -> Any:
    """One verdict through the public entry point for ``scope``."""
    programs = {r: list(ops) for r, ops in scope.programs.items()}
    if scope.kind == "store":
        store = proofs.parse_store_spec(scope.name)
        return proofs.verify_store(store, programs, jobs=jobs, spill=spill,
                                   **options)
    entry = _entry(scope)
    if entry.kind == "OB":
        return proofs.exhaustive_verify(entry, programs, jobs=jobs,
                                        spill=spill, **options)
    return proofs.exhaustive_verify_state(entry, programs, jobs=jobs,
                                          spill=spill, **options)


def oracle(scope: Scope, options: Dict[str, Any]) -> Tuple[bool, int]:
    """The reference verdict: serial, sleep-set engine, same symmetry."""
    if scope.kind == "store":
        raise ValueError("store references are summed from projections")
    result = verify(scope, dict(options, por="sleep"))
    return result.ok, result.configurations


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def expected(scope: Scope, table: Dict[str, list]) -> Tuple[bool, int]:
    """Reference ``(ok, configurations)`` for ``scope``.

    Registry scopes must be RA-linearizable; a mutant's verdict is
    pinned in :data:`MUTANT_VERDICTS`; a store's count is the sum of its
    projections' counts (one per-object exhaustion each).
    """
    if scope.kind == "store":
        total = 0
        for obj, entry in STORE_OBJECTS:
            key = Scope("entry", entry, project(scope, obj)).key
            total += table[key][1]
        return True, total
    ok = (MUTANT_VERDICTS[scope.name] if scope.kind == "mutant" else True)
    return ok, table[scope.key][1]


def is_wrong(scope: Scope, result: Any, table: Dict[str, list]) -> bool:
    """Whether ``result``'s verdict or count differs from the reference."""
    want_ok, want_configurations = expected(scope, table)
    return (result.ok != want_ok
            or result.configurations != want_configurations)
