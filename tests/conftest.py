"""Shared helpers for the test suite."""

import pytest

from repro.core.history import History
from repro.core.label import Label
from repro.core.timestamp import BOTTOM, Timestamp


def lbl(method, *args, ret=None, ts=None, obj=None, origin=None):
    """Terse label constructor for hand-built histories."""
    return Label(
        method,
        tuple(args),
        ret=ret,
        ts=ts if ts is not None else BOTTOM,
        obj=obj,
        origin=origin,
    )


def chain_history(*labels):
    """A totally-ordered (sequential) history over ``labels``."""
    edges = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    return History(labels, edges)


def ts(counter, replica="r1"):
    return Timestamp(counter, replica)


@pytest.fixture
def make_label():
    return lbl


@pytest.fixture
def make_chain():
    return chain_history


@pytest.fixture
def real_workers(monkeypatch):
    """Make the pool spawn ``jobs`` real worker processes on any host.

    The pool never runs more workers than ``os.cpu_count()`` reports,
    so on a host with fewer cores a ``jobs=2`` run would fall back to
    the serial engine.  This reports 4 cores, more than any ``jobs`` a
    test passes.
    """
    monkeypatch.setattr("repro.proofs.parallel.os.cpu_count", lambda: 4)
