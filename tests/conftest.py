"""Hypothesis profiles for the test suite.

Tier-1 loads "tier1": every run draws the same examples, seeded from each
test's own code, and keeps no example database, so a failure follows the
change that brings it and reproduces on any machine.  Each test keeps its
max_examples.  "randomized" draws fresh examples; select it with
--hypothesis-profile=randomized and replay a run with --hypothesis-seed.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False, database=None)
settings.load_profile("tier1")
