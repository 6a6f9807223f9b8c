"""Shared test settings.

Every property test draws its examples from a seed derived from the test
itself, so a run sees the same examples on every machine and a failure
reproduces.  A test's own ``@settings(...)`` keeps this unless it says
otherwise.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
