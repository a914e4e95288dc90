"""A linter for sequential specifications.

The checkers rely on structural properties of every ``SequentialSpec``:

* **queries are pure** — a query step never moves to a different state
  (Def. 3.5's condition (iii) silently assumes it: queries are *justified*,
  not replayed);
* **query verdicts are decisive** — at a given state, a query label either
  validates (returning exactly that state) or rejects;
* **prefix closure** — the spec-pruning search assumes a rejected prefix
  cannot be extended into an admitted sequence (true by construction for
  transition systems: ``replay`` of a longer sequence factors through the
  shorter one);
* **determinism report** — whether any explored update produced multiple
  successors (allowed — Wooki, addAt2 — but worth surfacing);
* **statelessness** — ``step``/``replay`` never mutate the spec object
  itself.  The incremental checkers construct one spec per registry entry
  and share it across every visited configuration (and one
  :class:`~repro.core.spec.FrontierCache` on top of it), which is only
  sound if replay keeps all state in the replayed values;
* **uid-independence** — ``step`` reads a label's *content* only, never
  its ``uid``.  The frontier trie keys prefixes by
  :func:`~repro.core.spec.label_content_key`, sharing replay results
  between fresh-uid copies of the same logical operation.

``lint_spec`` explores the spec's reachable states under a caller-provided
label alphabet and checks each property, reporting violations.
"""

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Sequence, Set

from .label import Label, fresh_uid
from .spec import Role, SequentialSpec

_MISSING = object()


@dataclass
class SpecLintReport:
    """Outcome of linting one specification."""

    spec_name: str
    ok: bool = True
    nondeterministic: bool = False
    states_explored: int = 0
    violations: List[str] = field(default_factory=list)

    def record(self, message: str) -> None:
        self.ok = False
        if len(self.violations) < 10:
            self.violations.append(message)


def lint_spec(
    spec: SequentialSpec,
    update_alphabet: Sequence[Label],
    query_probes: Callable[[object], Iterable[Label]],
    max_states: int = 200,
) -> SpecLintReport:
    """Explore reachable spec states and check the structural properties.

    ``update_alphabet`` — update labels to drive exploration with;
    ``query_probes(state)`` — query labels (with candidate returns) to
    evaluate at each reachable state.
    """
    report = SpecLintReport(spec.name)
    try:
        snapshot = copy.deepcopy(vars(spec))
    except Exception:  # pragma: no cover - exotic un-copyable spec state
        snapshot = None
    frontier = [spec.initial()]
    seen: Set = set(frontier)

    while frontier and report.states_explored < max_states:
        state = frontier.pop()
        report.states_explored += 1

        for query in query_probes(state):
            if spec.role(query.method) is not Role.QUERY:
                report.record(f"probe {query!r} is not a query")
                continue
            successors = list(spec.step(state, query))
            if len(successors) > 1:
                report.record(
                    f"query {query!r} has several successors at {state!r}"
                )
            for nxt in successors:
                if nxt != state:
                    report.record(
                        f"query {query!r} changed the state: "
                        f"{state!r} -> {nxt!r}"
                    )

        for update in update_alphabet:
            if spec.role(update.method) is Role.QUERY:
                report.record(f"alphabet label {update!r} is a query")
                continue
            successors = list(spec.step(state, update))
            if len(set(successors)) > 1:
                report.nondeterministic = True
            renamed = replace(update, uid=fresh_uid())
            if set(spec.step(state, renamed)) != set(successors):
                report.record(
                    f"step of {update!r} depends on the label uid "
                    "(frontier caching would be unsound)"
                )
            for nxt in successors:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

    if snapshot is not None and vars(spec) != snapshot:
        changed = sorted(
            name for name in set(snapshot) | set(vars(spec))
            if snapshot.get(name, _MISSING) != vars(spec).get(name, _MISSING)
        )
        report.record(
            f"replay mutated the specification object (fields: {changed}); "
            "specs must be stateless to be shared across configurations"
        )
    return report
