"""Hypothesis settings tiers for the generated-scope properties.

- ``QUICK_SETTINGS``: 20 examples, part of the tier-1 suite.
- ``DETERMINISM_SETTINGS``: 500 examples, run under ``-m slow``.

Both derandomize, so a failure reproduces on every run and host, and
drop the per-example deadline: one example explores a whole scope
several times over.
"""

from hypothesis import settings

QUICK_SETTINGS = settings(max_examples=20, derandomize=True, deadline=None)
DETERMINISM_SETTINGS = settings(max_examples=500, derandomize=True,
                                deadline=None)
