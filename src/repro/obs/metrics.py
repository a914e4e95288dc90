"""Structured metrics with snapshot and deterministic merge.

The verification pipeline is process-parallel (:mod:`repro.proofs.steal`
ships frontier tasks to worker processes), so metrics cannot be a
single shared mutable registry.  Instead each process owns a
:class:`MetricsRegistry`, and registries communicate by **snapshot**: a
plain-JSON dict that pickles through the worker pipe exactly like the
fingerprint sets do.  Merging snapshots is deterministic — every merge
operation is commutative and associative (counters sum, gauges take
``max``/``min``, histogram buckets sum element-wise) — so the union of the
workers' metrics is independent of scheduling, exactly like the union of
their fingerprint sets.

Instruments are created lazily by name + labels and carry a
``deterministic`` flag separating two contracts (see
``docs/observability.md``):

* **deterministic** instruments describe the *verification outcome*
  (distinct configurations, per-scope verdicts).  The pipeline records
  them exactly once per scope — post-merge in the parallel paths — so a
  serial run and a ``--jobs N`` run produce identical values.
* **work** instruments (the default) describe *how much machinery ran*
  (states visited, cache hits, queue wait).  Frontier-split workers
  legitimately re-explore shared subtree states, so their totals may
  exceed the serial run's; they explain cost, not results.
"""

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Snapshot schema identifier, bumped on incompatible layout changes.
SNAPSHOT_SCHEMA = "repro.metrics/1"

#: Default histogram bucket upper bounds (seconds-oriented, exponential).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.001, 0.0025, 0.01, 0.025, 0.1, 0.25, 1.0, 2.5, 10.0,
)


def instrument_key(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` key — labels sorted, so the key is
    identical in every process regardless of creation order."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing sum; merges by addition."""

    kind = "counter"
    __slots__ = ("name", "labels", "deterministic", "value")

    def __init__(self, name: str, labels: Mapping[str, Any],
                 deterministic: bool) -> None:
        self.name = name
        self.labels = dict(labels)
        self.deterministic = deterministic
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def dump(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "deterministic": self.deterministic,
            "value": self.value,
        }


class Gauge:
    """A point-in-time value; merges by ``max`` (default) or ``min``.

    Only order-independent policies are offered — a "last write wins"
    gauge would make the merged snapshot depend on worker scheduling.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "deterministic", "policy", "value")

    def __init__(self, name: str, labels: Mapping[str, Any],
                 deterministic: bool, policy: str) -> None:
        if policy not in ("max", "min"):
            raise ValueError(f"unknown gauge policy {policy!r}")
        self.name = name
        self.labels = dict(labels)
        self.deterministic = deterministic
        self.policy = policy
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        if self.value is None:
            self.value = value
        elif self.policy == "max":
            self.value = max(self.value, value)
        else:
            self.value = min(self.value, value)

    def dump(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "deterministic": self.deterministic,
            "policy": self.policy,
            "value": self.value,
        }


class Histogram:
    """Fixed-bound bucketed distribution; merges bucket-wise.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot is
    the overflow bucket.  ``sum``/``count``/``min``/``max`` ride along so
    the renderer can report a mean and range without the raw samples.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "deterministic", "bounds", "counts",
                 "sum", "count", "min", "max")

    def __init__(self, name: str, labels: Mapping[str, Any],
                 deterministic: bool,
                 bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.labels = dict(labels)
        self.deterministic = deterministic
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def dump(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "deterministic": self.deterministic,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """One process's instruments, keyed by canonical name+labels.

    ``counter``/``gauge``/``histogram`` get-or-create; re-requesting a key
    with a different kind (or gauge policy / histogram bounds) raises, so
    a metric name means one thing everywhere.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self):
        return iter(self._instruments.values())

    def _get(self, cls, key: str, make):
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"{key} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        instrument = make()
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, deterministic: bool = False,
                **labels: Any) -> Counter:
        key = instrument_key(name, labels)
        return self._get(
            Counter, key, lambda: Counter(name, labels, deterministic)
        )

    def gauge(self, name: str, policy: str = "max",
              deterministic: bool = False, **labels: Any) -> Gauge:
        key = instrument_key(name, labels)
        gauge = self._get(
            Gauge, key, lambda: Gauge(name, labels, deterministic, policy)
        )
        if gauge.policy != policy:
            raise TypeError(
                f"{key} already registered with policy {gauge.policy!r}"
            )
        return gauge

    def histogram(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
                  deterministic: bool = False, **labels: Any) -> Histogram:
        key = instrument_key(name, labels)
        hist = self._get(
            Histogram, key,
            lambda: Histogram(name, labels, deterministic, bounds),
        )
        if hist.bounds != tuple(bounds):
            raise TypeError(f"{key} already registered with other bounds")
        return hist

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-JSON copy of every instrument (picklable, orderable)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "instruments": {
                key: self._instruments[key].dump()
                for key in sorted(self._instruments)
            },
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot (e.g. a worker's) into this registry.

        Deterministic: merging the same multiset of snapshots in any
        order yields identical instrument values.
        """
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema "
                f"{snapshot.get('schema')!r}"
            )
        for dumped in snapshot["instruments"].values():
            kind = dumped["kind"]
            labels = dumped["labels"]
            deterministic = dumped["deterministic"]
            if kind == "counter":
                self.counter(
                    dumped["name"], deterministic=deterministic, **labels
                ).inc(dumped["value"])
            elif kind == "gauge":
                gauge = self.gauge(
                    dumped["name"], policy=dumped["policy"],
                    deterministic=deterministic, **labels,
                )
                if dumped["value"] is not None:
                    gauge.set(dumped["value"])
            elif kind == "histogram":
                hist = self.histogram(
                    dumped["name"], bounds=tuple(dumped["bounds"]),
                    deterministic=deterministic, **labels,
                )
                hist.counts = [
                    a + b for a, b in zip(hist.counts, dumped["counts"])
                ]
                hist.sum += dumped["sum"]
                hist.count += dumped["count"]
                for attr, pick in (("min", min), ("max", max)):
                    theirs = dumped[attr]
                    if theirs is not None:
                        ours = getattr(hist, attr)
                        setattr(
                            hist, attr,
                            theirs if ours is None else pick(ours, theirs),
                        )
            else:
                raise ValueError(f"unknown instrument kind {kind!r}")


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge snapshots into one (order-independent)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


def deterministic_totals(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """The deterministic instruments' values, keyed canonically.

    This is the section of a metrics artifact that a serial run and a
    ``--jobs N`` run are guaranteed to agree on (pinned by
    ``tests/proofs/test_metrics_parallel.py``).

    Tolerant of older artifacts: instruments dumped before a field
    existed (pre-PR-6 snapshots) are read with defaults instead of
    raising, so ``repro stats`` can always render a historical file.
    """
    return {
        key: dumped.get("value")
        for key, dumped in snapshot.get("instruments", {}).items()
        if dumped.get("deterministic")
        and dumped.get("kind") in ("counter", "gauge")
    }


def dumps(snapshot: Mapping[str, Any]) -> str:
    """Serialize a snapshot to JSON (stable key order)."""
    return json.dumps(snapshot, indent=2, sort_keys=True)
