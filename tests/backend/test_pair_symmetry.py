"""All-pairs tables are antisymmetric wherever the minimum image is odd.

What ``BatchedDistTableAA.settle`` rests on: ``aa_pairs(R)[w, j, k]``
equals ``[w, k, j]`` exactly, the displacement negated, so the upper
triangle of a forward-updated table is a copy of its current lower
triangle (and the forward column, written as the negated row, is what a
pair pass writes).  Equality is ``np.array_equal``: a zero's sign aside,
bit for bit.  Half-cell separations are where ``rint`` ties; the
skewed cell's 27-image scan keeps the first shortest candidate, and an
exact tie between two images breaks the symmetry there — so the skewed
cell reports ``min_image_odd`` False and its tables keep the pair pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernel_cases import LATTICES
from repro.backend import get_backend
from repro.batched.distances import BatchedDistTableAA
from repro.batched.walkerbatch import WalkerBatch

B = get_backend()
ODD = ("cubic", "open", "orthorhombic")
#: a box that holds every cell of LATTICES
EDGE = np.array([5.0, 6.0, 7.0])


def _positions(seed, W, n, on_grid):
    """Random positions, or positions on a quarter-cell grid: every
    separation is then an exact multiple of a quarter cell, so the half
    cells — the ``rint`` ties — and whole cells occur often."""
    rng = np.random.default_rng(seed)
    if on_grid:
        return rng.integers(-8, 9, (W, n, 3)) * (EDGE / 4.0)
    return rng.uniform(-1.0, 1.0, (W, n, 3)) * EDGE


def _antisymmetric(R, lattice):
    dist, disp = B.aa_pairs(R, lattice)
    return (np.array_equal(dist, dist.transpose(0, 2, 1)),
            np.array_equal(disp, -disp.transpose(0, 3, 2, 1)))


@given(key=st.sampled_from(ODD), seed=st.integers(0, 2 ** 32 - 1),
       W=st.integers(1, 3), n=st.integers(2, 7), on_grid=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pairs_are_antisymmetric_where_the_image_is_odd(key, seed, W, n,
                                                        on_grid):
    lattice = LATTICES[key]
    assert lattice.min_image_odd
    assert _antisymmetric(_positions(seed, W, n, on_grid), lattice) \
        == (True, True)


@given(seed=st.integers(0, 2 ** 32 - 1), W=st.integers(1, 3),
       n=st.integers(2, 7), on_grid=st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_skewed_distances_stay_symmetric(seed, W, n, on_grid):
    """Tied images have equal squared norms, so the distance is the
    same whichever one the scan keeps."""
    sym, _ = _antisymmetric(_positions(seed, W, n, on_grid),
                            LATTICES["skewed"])
    assert sym


@pytest.mark.parametrize("sep", [[3.0, 0.0, 0.0], [0.2, 3.0, 0.0],
                                 [0.0, 0.15, 3.0]])
def test_a_scan_tie_breaks_skewed_antisymmetry(sep):
    """Half a cell along a lattice vector: the reduced displacement and
    its image through that vector tie, and the two orientations keep
    different ones."""
    R = np.array([[[0.0, 0.0, 0.0], sep]])
    assert _antisymmetric(R, LATTICES["skewed"]) == (True, False)


def test_generic_skewed_pairs_are_antisymmetric():
    """Away from exact ties the scan is odd too."""
    R = _positions(7, 3, 9, on_grid=False)
    assert _antisymmetric(R, LATTICES["skewed"]) == (True, True)


def test_only_the_skewed_cell_declines_the_mirror():
    assert {key for key, lat in LATTICES.items()
            if not lat.min_image_odd} == {"skewed"}


class _PairCounter:
    def __init__(self):
        self.calls = 0

    def aa_pairs(self, R, lattice):
        self.calls += 1
        return B.aa_pairs(R, lattice)


@pytest.mark.parametrize("key", sorted(LATTICES))
def test_settle_mirrors_only_where_the_image_is_odd(key, monkeypatch):
    lattice = LATTICES[key]
    W, n = 2, 6
    batch = WalkerBatch.from_positions(_positions(3, W, n, False))
    table = BatchedDistTableAA(W, n, lattice)
    table.evaluate(batch)
    counter = _PairCounter()
    monkeypatch.setattr("repro.batched.distances.active", lambda: counter)
    table.settle(batch)
    assert counter.calls == (0 if lattice.min_image_odd else 1)
    dist, disp = B.aa_pairs(batch.R, lattice)
    assert np.array_equal(table.distances[:, :, :n], dist)
    assert np.array_equal(table.displacements[:, :, :, :n], disp)
