"""Regression gate between two bench JSON artifacts.

``repro bench diff OLD NEW`` (and ``make bench-diff``) compares two
bench documents — ``BENCH_explore.json``'s shape, arbitrarily nested
dicts of sections — metric by metric, classifying
each leaf by name:

* **exact** — semantic results: configuration/state counts, orbit
  counts, verdict lists.  Any change is a regression: if the engine
  legitimately explores differently, the committed baseline must be
  regenerated in the same change, which is exactly the review signal
  the gate exists to produce.
* **time** (lower is better) — ``*seconds``, ``*_mib`` memory peaks.
  Regression when ``new > old × (1 + tolerance)``.
* **rate** (higher is better) — ``speedup``, ``configs_per_sec``,
  ``*_ratio``, ``*_reduction``.  Regression when
  ``new < old × (1 − tolerance)``.
* **info** — everything else (eviction counts, cache sizes, scope
  strings): differences are reported but never gate.

Timing tolerances default to 30% because shared CI runners are noisy;
``--tolerance`` tightens or loosens both directions.  Metrics missing
from the new document are warnings (a refactor may drop a section),
metrics missing from the old are informational.  The exit contract:
**nonzero iff at least one regression**, zero on self-compare.
"""

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Default relative tolerance for time/rate metrics.
DEFAULT_TOLERANCE = 0.30

#: Leaf names compared exactly (semantic results, not costs).
_EXACT_NAMES = frozenset({
    "configurations", "distinct_configurations", "naive_configurations",
    "checks", "orbits", "verdicts", "states_visited", "unique_digests",
    "symmetry_group",
})

_EXACT_SUFFIXES = ("_configurations", "_states")

#: Higher-is-better leaf names / suffixes.
_RATE_NAMES = frozenset({
    "speedup", "configs_per_sec", "op_based_speedup", "overall_speedup",
    "modeled_speedup",
})
_RATE_SUFFIXES = ("_ratio", "_reduction", "_speedup")


def classify(name: str) -> str:
    """The comparison class for one leaf metric name."""
    if name in _EXACT_NAMES or name.endswith(_EXACT_SUFFIXES):
        return "exact"
    if name.endswith("seconds") or name.endswith("_mib"):
        return "time"
    if name in _RATE_NAMES or name.endswith(_RATE_SUFFIXES):
        return "rate"
    return "info"


@dataclass
class DiffRow:
    """One compared metric: where, what, and the verdict."""

    path: str
    kind: str
    status: str  # ok | regression | improved | changed | missing | added
    old: Any = None
    new: Any = None
    detail: str = ""

    @property
    def gating(self) -> bool:
        return self.status == "regression"


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_leaf(path: str, name: str, old: Any, new: Any,
                  tolerance: float) -> DiffRow:
    kind = classify(name)
    if old == new:
        return DiffRow(path, kind, "ok", old, new)
    if not (_is_number(old) and _is_number(new)):
        status = "regression" if kind == "exact" else "changed"
        return DiffRow(path, kind, status, old, new, "value changed")
    if kind == "exact":
        return DiffRow(path, kind, "regression", old, new,
                       "exact metric diverged — regenerate the baseline "
                       "if intentional")
    if kind == "info":
        return DiffRow(path, kind, "changed", old, new)
    rel = (new - old) / old if old else (1.0 if new else 0.0)
    if kind == "time":
        if rel > tolerance:
            return DiffRow(path, kind, "regression", old, new,
                           f"+{rel:.0%} slower (tolerance {tolerance:.0%})")
        if rel < -tolerance:
            return DiffRow(path, kind, "improved", old, new,
                           f"{-rel:.0%} faster")
    else:  # rate: higher is better
        if rel < -tolerance:
            return DiffRow(path, kind, "regression", old, new,
                           f"{-rel:.0%} lower (tolerance {tolerance:.0%})")
        if rel > tolerance:
            return DiffRow(path, kind, "improved", old, new,
                           f"+{rel:.0%} higher")
    return DiffRow(path, kind, "ok", old, new, f"within tolerance ({rel:+.0%})")


def _walk(old: Any, new: Any, prefix: str, tolerance: float,
          rows: List[DiffRow]) -> None:
    if isinstance(old, Mapping) and isinstance(new, Mapping):
        for key in sorted(set(old) | set(new)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in new:
                rows.append(DiffRow(path, classify(str(key)), "missing",
                                    old=old[key],
                                    detail="absent from NEW"))
            elif key not in old:
                rows.append(DiffRow(path, classify(str(key)), "added",
                                    new=new[key],
                                    detail="absent from OLD"))
            else:
                _walk(old[key], new[key], path, tolerance, rows)
        return
    name = prefix.rsplit(".", 1)[-1]
    rows.append(_compare_leaf(prefix, name, old, new, tolerance))


def diff_benches(old: Mapping[str, Any], new: Mapping[str, Any],
                 tolerance: Optional[float] = None,
                 sections: Optional[List[str]] = None) -> List[DiffRow]:
    """Compare two bench documents; rows for every leaf, sorted by path.

    ``sections`` restricts the comparison to the named top-level
    sections — the gating-CI mode, where only the sections a job just
    regenerated should decide its exit code.  A requested section
    absent from NEW gates (the refresh silently dropped it); one absent
    from both documents is an error in the request itself.
    """
    if sections is not None:
        missing = [s for s in sections if s not in old and s not in new]
        if missing:
            raise ValueError(
                f"unknown bench section(s): {', '.join(missing)}"
            )
        rows: List[DiffRow] = []
        for section in sections:
            if section not in new:
                rows.append(DiffRow(
                    section, "exact", "regression", old=old.get(section),
                    detail="requested section absent from NEW",
                ))
            elif section not in old:
                rows.append(DiffRow(
                    section, "exact", "added", new=new.get(section),
                    detail="absent from OLD",
                ))
            else:
                _walk(old[section], new[section], section,
                      DEFAULT_TOLERANCE if tolerance is None else tolerance,
                      rows)
        return rows
    rows = []
    _walk(old, new, "", DEFAULT_TOLERANCE if tolerance is None else tolerance,
          rows)
    return rows


def summarize(rows: List[DiffRow]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row.status] = counts.get(row.status, 0) + 1
    return counts


def format_bench_diff(rows: List[DiffRow], old_path: str,
                      new_path: str) -> str:
    """Human-readable report; regressions first, then notable changes."""
    counts = summarize(rows)
    lines = [
        f"bench diff: {old_path} -> {new_path}",
        "  " + ", ".join(
            f"{counts.get(s, 0)} {s}"
            for s in ("ok", "improved", "changed", "added", "missing",
                      "regression")
            if counts.get(s, 0)
        ),
    ]

    def fmt(value: Any) -> str:
        if _is_number(value):
            return f"{value:g}"
        return json.dumps(value) if value is not None else "-"

    order = {"regression": 0, "missing": 1, "improved": 2, "changed": 3,
             "added": 4}
    notable = sorted(
        (row for row in rows if row.status != "ok"),
        key=lambda row: (order.get(row.status, 9), row.path),
    )
    for row in notable:
        lines.append(
            f"  [{row.status:>10}] {row.path}: "
            f"{fmt(row.old)} -> {fmt(row.new)}"
            + (f"  ({row.detail})" if row.detail else "")
        )
    regressions = counts.get("regression", 0)
    lines.append(
        f"  verdict: {'REGRESSION' if regressions else 'ok'}"
        f" ({regressions} gating)"
    )
    return "\n".join(lines)


def bench_diff_paths(old_path: str, new_path: str,
                     tolerance: Optional[float] = None,
                     sections: Optional[List[str]] = None
                     ) -> Tuple[str, int]:
    """Load, diff, and render two bench files.

    Returns ``(report, exit_code)`` with exit 1 iff a regression gates.
    ``sections`` restricts both gating and report to the named
    top-level sections.
    """
    with open(old_path, "r", encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, "r", encoding="utf-8") as handle:
        new = json.load(handle)
    rows = diff_benches(old, new, tolerance, sections=sections)
    report = format_bench_diff(rows, old_path, new_path)
    return report, (1 if any(row.gating for row in rows) else 0)


__all__ = [
    "DEFAULT_TOLERANCE",
    "DiffRow",
    "bench_diff_paths",
    "classify",
    "diff_benches",
    "format_bench_diff",
    "summarize",
]
