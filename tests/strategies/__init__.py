"""Hypothesis strategies for property-based tests.

Re-exports the scope and split-schedule strategies and the settings
tiers::

    from tests.strategies import QUICK_SETTINGS, scopes, split_schedules
"""

from tests.strategies.schedules import (
    SplitSchedule,
    run_split,
    split_schedules,
)
from tests.strategies.scopes import scopes
from tests.strategies.settings import DETERMINISM_SETTINGS, QUICK_SETTINGS

__all__ = [
    "DETERMINISM_SETTINGS",
    "QUICK_SETTINGS",
    "SplitSchedule",
    "run_split",
    "scopes",
    "split_schedules",
]
