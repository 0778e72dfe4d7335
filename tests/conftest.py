"""Hypothesis profiles for the test suite.

``tier1`` (the default) derandomises every ``@given`` test and keeps no
example database, so two runs execute the same examples.  ``explore``
draws fresh random examples; ``scripts/smoke.sh`` reruns the property
tests under it (``pytest --hypothesis-profile=explore``).  A test's own
``@settings(max_examples=...)`` still applies under either profile.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("tier1")
