"""Hypothesis profiles for the test suite.

``tier1`` (the default) derandomises every ``@given`` test and keeps no
example database, so two runs execute the same examples.  ``explore``
draws fresh random examples; ``scripts/smoke.sh`` reruns the property
tests under it (``pytest --hypothesis-profile=explore``).  A test's own
``@settings(max_examples=...)`` still applies under either profile.

The ``fresh_registry`` fixture installs an empty process metrics
registry for one test, the only way to point the instrumented layers
at one.
"""

import pytest
from hypothesis import settings

from repro.obs.metrics import MetricsRegistry, set_registry

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")


@pytest.fixture
def fresh_registry():
    """An empty process-wide metrics registry, restored after the test."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
