"""repro.jastrow.rows: the one row-sum body under all four Jastrow
classes equals, bit for bit, the per-walker expressions the scalar
classes used to spell out themselves, and keeps the W-independence its
docstring states."""

import numpy as np
import pytest

from repro.distances.base import BIG_DISTANCE
from repro.jastrow import vp
from repro.jastrow.rows import (j1_groups, j2_groups, rows_v, rows_vg,
                                rows_vgl)

K = 7  # the moved electron (spin group 1 of the 10-electron fixture)


def _case(jsetup, which, dtype, W):
    """(groups, rows_r (W, n), rows_dr (W, 3, n)) in storage ``dtype``,
    straddling the cutoff, J2 rows carrying the BIG self entry."""
    rng = np.random.default_rng(11)
    if which == "j2":
        groups, n = j2_groups(jsetup.j2_otf, jsetup.j2_otf.group_of[K]), \
            jsetup.n
    else:
        groups, n = j1_groups(jsetup.j1_otf), jsetup.ions.n
    rows_r = rng.uniform(0.2, 4.0, (W, n))
    if which == "j2":
        rows_r[:, K] = BIG_DISTANCE
    rows_dr = rng.normal(size=(W, 3, n))
    return groups, rows_r.astype(dtype), rows_dr.astype(dtype)


def _scalar_v(groups, row_r):
    total = 0.0
    for f, s in groups:
        total += float(np.sum(f.evaluate_v(row_r[s])))
    return total


def _scalar_vgl(groups, row_r, row_dr):
    u_sum, grad, lap = 0.0, np.zeros(3), 0.0
    for f, s in groups:
        r = row_r[s]
        u, du, d2u = f.evaluate_vgl(r)
        u_sum += float(np.sum(u))
        w = du / r
        grad += row_dr[:, s] @ w
        lap -= float(np.sum(d2u + 2.0 * w))
    return u_sum, grad, lap


@pytest.mark.parametrize("W", [1, 5])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("which", ["j1", "j2"])
class TestRowsEqualPerWalkerExpressions:
    def test_rows_v(self, jsetup, which, dtype, W):
        groups, rows_r, _ = _case(jsetup, which, dtype, W)
        got = rows_v(groups, rows_r)
        assert got.shape == (W,) and got.dtype == np.float64
        for w in range(W):
            assert got[w] == _scalar_v(groups, rows_r[w])

    def test_rows_vgl_and_vg(self, jsetup, which, dtype, W):
        groups, rows_r, rows_dr = _case(jsetup, which, dtype, W)
        u, g, lap = rows_vgl(groups, rows_r, rows_dr)
        assert u.shape == (W,) and g.shape == (W, 3) and lap.shape == (W,)
        for w in range(W):
            su, sg, sl = _scalar_vgl(groups, rows_r[w], rows_dr[w])
            assert u[w] == su and lap[w] == sl
            assert np.array_equal(g[w], sg)
        u2, g2 = rows_vg(groups, rows_r, rows_dr)
        assert np.array_equal(u2, u) and np.array_equal(g2, g)
        # the value channel is the rows_v sum (the sweep's u_old reuse)
        assert np.array_equal(u, rows_v(groups, rows_r))


def test_scalar_and_batched_classes_are_callers(jsetup):
    """The `_row*` fronts unwrap the W = 1 block result."""
    groups, rows_r, rows_dr = _case(jsetup, "j2", np.float64, 1)
    j2 = jsetup.j2_otf
    assert j2._row_v(rows_r[0], K) == rows_v(groups, rows_r)[0]
    u, g = j2._row_vg(rows_r[0], rows_dr[0], K)
    bu, bg = rows_vg(groups, rows_r, rows_dr)
    assert u == bu[0] and np.array_equal(g, bg[0])
    assert isinstance(u, float) and g.shape == (3,)


@pytest.mark.parametrize("W", [1, 5, 48])
@pytest.mark.parametrize("columns", ["slice", "index"])
def test_block_rows_against_one_row_calls(jsetup, columns, W):
    """Row ``w`` of a W-row block against ``rows_vgl`` on that row
    alone, over 16 columns in two groups: slice groups (J2's spin
    groups) are bitwise in every channel; index-array groups (J1's
    species, here interleaved) in the value and Laplacian, their
    gradient only to rounding."""
    rng = np.random.default_rng(13)
    f0, f1 = jsetup.j1f[0], jsetup.j1f[1]
    if columns == "slice":
        groups = [(f0, slice(0, 8)), (f1, slice(8, 16))]
    else:
        groups = [(f0, np.arange(0, 16, 2)), (f1, np.arange(1, 16, 2))]
    rows_r = rng.uniform(0.2, 4.0, (W, 16))
    rows_dr = rng.normal(size=(W, 3, 16))
    u, g, lap = rows_vgl(groups, rows_r, rows_dr)
    for w in range(W):
        u1, g1, lap1 = rows_vgl(groups, rows_r[w:w + 1], rows_dr[w:w + 1])
        assert u[w] == u1[0] and lap[w] == lap1[0]
        if columns == "slice":
            assert np.array_equal(g[w], g1[0])
        else:
            assert np.allclose(g[w], g1[0], rtol=1e-14, atol=1e-15)


def test_unsorted_owner_slab_through_vp_row_sums(jsetup):
    """`vp.j2_row_sums` picks each row's functors by its owner's group,
    contiguous run or gathered; `vp.j1_row_sums` ignores the owners."""
    rng = np.random.default_rng(12)
    j2, j1 = jsetup.j2_otf, jsetup.j1_otf
    ks = np.array([8, 1, 6, 3, 0, 9, 2])  # spin groups interleaved
    rows = rng.uniform(0.2, 4.0, (len(ks), jsetup.n))
    rows[np.arange(len(ks)), ks] = BIG_DISTANCE
    got = vp.j2_row_sums(j2, rows, ks)
    for m, k in enumerate(ks):
        assert got[m] == _scalar_v(j2_groups(j2, j2.group_of[k]), rows[m])
    ion_rows = rng.uniform(0.2, 4.0, (len(ks), jsetup.ions.n))
    got = vp.j1_row_sums(j1, ion_rows, ks)
    for m in range(len(ks)):
        assert got[m] == _scalar_v(j1_groups(j1), ion_rows[m])
