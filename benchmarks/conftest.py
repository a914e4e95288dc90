"""Shared helpers for the benchmark harness.

Every benchmark both *times* its reproduction (pytest-benchmark) and
*asserts* the paper's qualitative result, so `pytest benchmarks/
--benchmark-only` doubles as the experiment runner.  Run with ``-s`` to see
the regenerated tables.
"""

import json
from pathlib import Path

#: The benchmark artifact every perf section is merged into.
ARTIFACT_PATH = Path(__file__).resolve().parent.parent / "BENCH_explore.json"


def update_artifact(sections: dict) -> None:
    """Replace the given top-level keys of ``BENCH_explore.json`` and keep
    every other section, so one bench target never drops another's."""
    artifact = json.loads(ARTIFACT_PATH.read_text()) \
        if ARTIFACT_PATH.exists() else {}
    artifact.update(sections)
    ARTIFACT_PATH.write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )


def emit(title: str, body: str) -> None:
    """Print a regenerated table/figure block."""
    bar = "=" * max(len(title), 20)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
