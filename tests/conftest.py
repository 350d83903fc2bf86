"""Shared test settings and helpers.

Property tests draw their examples derandomized and without a deadline or
an example database, so every run of the suite checks the same examples.
The chain builders below (boundary of a chain, snapping to a dyadic grid,
triangulated axis boxes) serve only the tests.
"""

import numpy as np
from hypothesis import settings

from roughforms.errors import DegenerateSimplexError
from roughforms.geometry import (
    Chain,
    Simplex,
    _signed_simplex,
    boundary,
    staircase_blocks,
)

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


def boundary_chain(chain):
    """Boundary of a chain, term by term."""
    terms = []
    for c, s in chain:
        for c2, f in boundary(s):
            terms.append((c * c2, f))
    return Chain(terms)


def snap_to_grid(simplex, n):
    """Round each coordinate to the dyadic grid 2^-n, ties toward -inf."""
    scale = 2.0**n
    v = simplex.vertices * scale
    snapped = np.ceil(v - 0.5) / scale
    return Simplex(snapped)


def axis_box_chain(base, axes, extents):
    """Triangulate an axis-parallel k-box into k! simplices.

    ``axes`` lists the k coordinate directions the box spans (1-based labels
    matching x1..xd), ``extents`` the signed side lengths along them; the
    remaining coordinates stay pinned at ``base``. Signs of the extents flow
    through the staircase determinants, so integrating dx^axes over the
    result gives the signed product of the extents.
    """
    base = np.asarray(base, dtype=float)
    axes = tuple(int(a) - 1 for a in axes)
    if any(a < 0 or a >= base.shape[0] for a in axes):
        raise ValueError("coordinate label out of range 1..d")
    extents = np.asarray(extents, dtype=float)
    if len(axes) != extents.shape[0]:
        raise ValueError("axes and extents must have equal length")
    if any(e == 0.0 for e in extents):
        raise DegenerateSimplexError("axis box has a zero extent")
    steps = np.zeros((1, len(axes), base.shape[0]))
    steps[0, range(len(axes)), axes] = extents
    blocks = staircase_blocks(base[None], steps)
    return Chain(_signed_simplex(verts[0], sign) for sign, verts in blocks)
