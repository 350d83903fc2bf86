"""Shared test settings and helpers.

Property tests draw their examples derandomized and without a deadline or
an example database, so every run of the suite checks the same examples.
"""

import numpy as np
from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


def assert_rounding_close(got, want):
    """got equals want up to the rounding of float sums taken in another
    order or at other array shapes (relative 1e-12, absolute 1e-15)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15)
