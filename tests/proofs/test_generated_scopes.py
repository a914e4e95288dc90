"""Generated-scope differential: the serial walks and the frontier
split agree on every drawn scope.

The fixed differential suites run the standard 2-replica programs and a
few 3-replica scopes.  Here Hypothesis draws the scope — an entry over
2–3 replicas with programs from always-valid alphabets
(``tests/strategies/scopes.py``) — and a split schedule (frontier
depth, task order, session count), and checks that ``(ok,
configurations)`` is the same for serial sleep sets, serial source-DPOR
and the split source-DPOR run, with replica symmetry on and off.
``QUICK_SETTINGS`` runs in tier-1; ``-m slow`` runs
``DETERMINISM_SETTINGS``.
"""

import pytest
from hypothesis import given

from repro.proofs.exhaustive import exhaustive_verify, exhaustive_verify_state
from tests.strategies import (
    DETERMINISM_SETTINGS,
    QUICK_SETTINGS,
    run_split,
    scopes,
    split_schedules,
)

MAX_GOSSIPS = 2


def _serial(entry, programs, por, symmetry):
    if entry.kind == "OB":
        result = exhaustive_verify(entry, programs, por=por,
                                   symmetry=symmetry)
    else:
        result = exhaustive_verify_state(entry, programs,
                                         max_gossips=MAX_GOSSIPS, por=por,
                                         symmetry=symmetry)
    return result.ok, result.configurations


def _paths_agree(scope, schedule):
    entry, programs = scope
    for symmetry in (None, False):
        expected = _serial(entry, programs, "sleep", symmetry)
        assert _serial(entry, programs, "source", symmetry) == expected
        ok, configurations, _ = run_split(
            entry, programs, schedule, symmetry=symmetry,
            max_gossips=MAX_GOSSIPS,
        )
        assert (ok, configurations) == expected


@QUICK_SETTINGS
@given(scope=scopes(), schedule=split_schedules())
def test_paths_agree(scope, schedule):
    _paths_agree(scope, schedule)


@pytest.mark.slow
@DETERMINISM_SETTINGS
@given(scope=scopes(), schedule=split_schedules())
def test_paths_agree_determinism_tier(scope, schedule):
    _paths_agree(scope, schedule)
