"""Parent-side rendering of heartbeat records: live status + stalls.

The :class:`ProgressMonitor` is the consumer half of
:mod:`repro.obs.heartbeat`: workers emit records into a channel (a
``multiprocessing.Queue`` for the parallel pool, a direct call for
serial runs), the coordinator feeds them here, and the monitor

* keeps the latest record per worker and renders a one-line fleet
  summary to ``stream`` (stderr by default) at most every ``interval``
  seconds,
* appends every record to a JSONL artifact when ``log_path`` is given
  (``--heartbeat-log``), prefixed by a schema header, and
* flags **stalls**: a worker that has sent nothing for
  ``stall_factor × interval`` seconds gets a warning naming its last
  known task — the signal that distinguishes "deep subtree" from
  "wedged worker" in a long campaign.

Everything here is presentation: no record influences metrics, results,
or the deterministic totals.
"""

import io
import json
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, TextIO

from .heartbeat import DEFAULT_INTERVAL, HEARTBEAT_SCHEMA, HeartbeatEmitter


def _fmt(value: Any, spec: str = "") -> str:
    if value is None:
        return "?"
    return format(value, spec)


class ProgressMonitor:
    """Aggregates heartbeat records and renders the live status line."""

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 stream: Optional[TextIO] = None,
                 log_path: Optional[str] = None,
                 stall_factor: float = 3.0,
                 clock=time.monotonic) -> None:
        self.interval = max(
            float(DEFAULT_INTERVAL if interval is None else interval), 0.01
        )
        self.stream = stream if stream is not None else sys.stderr
        self.stall_factor = stall_factor
        self.warnings: List[str] = []
        self._clock = clock
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._seen: Dict[str, float] = {}
        self._stalled: set = set()
        self._last_render = 0.0
        self._last_line = ""
        self._log = None
        if log_path:
            self._log = open(log_path, "w", encoding="utf-8")
            self._log.write(
                json.dumps({"schema": HEARTBEAT_SCHEMA}, sort_keys=True)
                + "\n"
            )

    # -- intake ---------------------------------------------------------

    def feed(self, record: Mapping[str, Any]) -> None:
        """Absorb one heartbeat record without rendering."""
        worker = str(record.get("worker", "?"))
        self._workers[worker] = dict(record)
        self._seen[worker] = self._clock()
        self._stalled.discard(worker)
        if self._log is not None:
            self._log.write(json.dumps(dict(record)) + "\n")

    def ingest(self, record: Mapping[str, Any]) -> None:
        """Feed + render if due — the sink for serial (in-process) runs."""
        self.feed(record)
        self.maybe_render()

    def local_emitter(self) -> HeartbeatEmitter:
        """An emitter beating straight into :meth:`ingest`: the
        heartbeat source of an in-process run."""
        return HeartbeatEmitter(worker="w0", sink=self.ingest,
                                interval=self.interval)

    def drain(self, queue: Any) -> int:
        """Non-blocking drain of a multiprocessing heartbeat queue."""
        import queue as queue_mod
        drained = 0
        while True:
            try:
                record = queue.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break
            self.feed(record)
            drained += 1
        return drained

    # -- rendering ------------------------------------------------------

    def maybe_render(self, force: bool = False) -> None:
        now = self._clock()
        if not force and now - self._last_render < self.interval:
            return
        self._last_render = now
        self._check_stalls(now)
        line = self.status_line()
        if line:
            print(line, file=self.stream)
            self._last_line = line

    def status_line(self) -> str:
        if not self._workers:
            return ""
        records = self._workers.values()
        configs = sum(r["configs"] for r in records
                      if r.get("configs") is not None)
        rates = [r["configs_per_sec"] for r in records
                 if r.get("configs_per_sec") is not None]
        frontiers = [r["frontier"] for r in records
                     if r.get("frontier") is not None]
        queues = [r["queue"] for r in records if r.get("queue") is not None]
        dedups = [r["dedup_ratio"] for r in records
                  if r.get("dedup_ratio") is not None]
        spills = sum(r["spill"] for r in records
                     if r.get("spill") is not None)
        parts = [
            f"{len(self._workers)}w",
            f"{configs} cfg",
            f"{_fmt(sum(rates) if rates else None, '.0f')} cfg/s",
            f"depth {_fmt(max(frontiers) if frontiers else None)}",
            f"queue {_fmt(sum(queues) if queues else None)}",
            f"dedup {_fmt(sum(dedups) / len(dedups) if dedups else None, '.0%')}",
        ]
        if spills:
            parts.append(f"spill {spills}")
        if self._stalled:
            parts.append(f"STALLED {len(self._stalled)}")
        return "[progress] " + " · ".join(parts)

    def _check_stalls(self, now: float) -> None:
        threshold = self.stall_factor * self.interval
        for worker, seen in self._seen.items():
            if now - seen <= threshold or worker in self._stalled:
                continue
            self._stalled.add(worker)
            task = self._workers.get(worker, {}).get("task")
            warning = (
                f"[progress] worker {worker} silent for {now - seen:.0f}s"
                f" (last task: {task if task is not None else 'unknown'})"
            )
            self.warnings.append(warning)
            print(warning, file=self.stream)

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        """Final render, unless the last line printed already shows the
        final state, and log flush."""
        if self._workers and self.status_line() != self._last_line:
            self.maybe_render(force=True)
        if self._log is not None:
            self._log.close()
            self._log = None


def progress_monitor(progress: Optional[float],
                     heartbeat_log: Optional[str],
                     stream: Optional[TextIO] = None
                     ) -> Optional[ProgressMonitor]:
    """The monitor behind ``--progress [SECS]`` and ``--heartbeat-log
    PATH``, or None when both are off.

    With only a log path the monitor still records every heartbeat but
    renders its status lines into a discarded buffer.
    """
    if progress is None and heartbeat_log is None:
        return None
    return ProgressMonitor(
        interval=progress,
        stream=stream if progress is not None else io.StringIO(),
        log_path=heartbeat_log,
    )


__all__ = ["ProgressMonitor", "progress_monitor"]
