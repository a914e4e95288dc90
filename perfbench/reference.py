"""Rebuild ``reference.json``: oracle verdicts for every generable scope.

Run from the repository root::

    python3 perfbench/reference.py

The oracle is not the path the benchmark times: it runs serially with
the sleep-set engine (the library's differential oracle) at the same
symmetry setting as the CLI default.  Each entry maps a scope key to
``[ok, configurations]``.  Registry scopes must all be RA-linearizable
and the mutants must match their pinned verdicts; the script exits 1
otherwise and leaves the old table in place.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import scopes  # noqa: E402

WORKLOADS = ("registry_2r", "sym_3r", "skew_4r_spill")


def build() -> int:
    options = harness.cli_options()
    table = {}
    bad = []
    for workload in WORKLOADS:
        started = time.perf_counter()
        for scope in scopes.universe(workload):
            if scope.key in table:
                continue
            ok, configurations = harness.oracle(scope, options)
            table[scope.key] = [ok, configurations]
            want = (harness.MUTANT_VERDICTS[scope.name]
                    if scope.kind == "mutant" else True)
            if ok != want:
                bad.append(scope.key)
        print(f"{workload}: {len(table)} scopes so far, "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    if bad:
        for key in bad:
            print(f"unexpected verdict: {key}", file=sys.stderr)
        return 1
    with open(harness.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(",\n".join(
            f"{json.dumps(key, ensure_ascii=False)}: {json.dumps(value)}"
            for key, value in sorted(table.items())))
        handle.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(build())
