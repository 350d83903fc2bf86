"""Shared test settings.

Property tests draw their examples derandomized and without a deadline or
an example database, so every run of the suite checks the same examples.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")
