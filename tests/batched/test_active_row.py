"""The drift reads an exact row: compute-on-the-fly tables refresh row k
before the gradient, on both execution stacks.

At every move of a sweep the drift gradient each Jastrow component
hands the sweep, and the old-row value sum its ratio divides by, must
equal what a fresh row at the current positions gives — bitwise in
fp64 (the same row kernel and row sums), within a band in fp32 (the
per-walker CURRENT build; the batched stack is fp64 only).  A table
that refreshes row k only when the proposed move is made leaves the
gradient reading a row whose partners moved earlier in the sweep.
"""

import math

import numpy as np
import pytest

from repro.backend import get_backend
from repro.batched import JastrowSystemSpec
from repro.batched.driver import BatchedCrowdDriver
from repro.core.system import QmcSystem
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.drivers.base import QMCDriverBase
from repro.jastrow import rows
from repro.particles.walker import Walker
from repro.precision.policy import FULL
from repro.wavefunction.trialwf import TrialWaveFunction

N = 32
W = 4
TAU = 0.3
#: storage dtype of each cell; the batched stack stores fp64 only
DTYPES = {"fp64": np.float64, "fp32": np.float32}


def _in_table(table, k, m, r, dr):
    """Fresh rows ``(W, m)``/``(W, 3, m)`` written as row ``k`` of a
    copy of ``table``'s storage and read back as the table's row views:
    the row sums' bits depend on the operand layout, so the fresh row
    is given the layout the component reads."""
    if hasattr(table, "row_r"):  # the batched OTF table: its active row
        dist, disp = table.row_r.copy(), table.row_dr.copy()
        dist[:, :m], disp[:, :, :m] = r, dr
        return dist[:, :m], disp[:, :, :m]
    dist, disp = table.distances.copy(), table.displacements.copy()
    if dist.ndim == 2:  # a per-walker table: one walker
        dist[k, :m], disp[k, :, :m] = r[0], dr[0]
        return dist[k, :m][None], disp[k, :, :m][None]
    dist[:, k, :m], disp[:, k, :, :m] = r, dr
    return dist[:, k, :m], disp[:, k, :, :m]


def _fresh_aa(aa, soa, rk, k, n):
    r, dr = get_backend().aa_row(soa[:, :, :n], rk, aa.lattice, k)
    return _in_table(aa, k, n, np.asarray(r), np.asarray(dr))


def _fresh_ab(ab, rk, k):
    """Either stack's AB table: the same shared source block."""
    r, dr = get_backend().ab_row(ab._src_soa[:, : ab.ns], rk, ab.lattice)
    return _in_table(ab, k, ab.ns, np.asarray(r), np.asarray(dr))


def _expected(j2, j1, aa_rows, ab_rows, k):
    """Per component ``(u_old, grad)`` from fresh ``(W, n)`` rows."""
    return (rows.rows_vg(rows.j2_groups(j2, j2.group_of[k]), *aa_rows),
            rows.rows_vg(rows.j1_groups(j1), *ab_rows))


def _check(got, want, exact, what):
    got = np.asarray(got, dtype=np.float64)  # a missing sum: nan
    want = np.asarray(want)
    if exact:
        assert np.array_equal(got, want), (
            f"{what}: max |diff| {np.max(np.abs(got - want)):.3g}")
    else:
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4,
                                   err_msg=what)


@pytest.mark.parametrize("dtype", ["fp64"])
def test_batched_drift_reads_a_fresh_row(dtype):
    spec = JastrowSystemSpec(n=N, seed=3, aa_flavor="otf")
    drv = BatchedCrowdDriver(spec, W, master_seed=5, timestep=TAU)
    j2, j1 = drv.components
    aa, ab = drv.tables
    assert aa.row_r.dtype == DTYPES[dtype]
    checked = []

    def watch(c, index):
        sweep_grad = c.sweep_grad

        def checked_grad(tables, k):
            batch = drv.batch
            want = _expected(
                j2, j1,
                _fresh_aa(aa, batch.Rsoa, batch.R[:, k], k, N),
                _fresh_ab(ab, batch.R[:, k], k), k)[index]
            u_old, g = sweep_grad(tables, k)
            _check(g, want[1], True, f"{c.name} drift gradient, k={k}")
            _check(u_old, want[0], True, f"{c.name} old-row sum, k={k}")
            checked.append(k)
            return u_old, g
        c.sweep_grad = checked_grad

    watch(j2, 0)
    watch(j1, 1)
    for _ in range(2):
        drv.sweep()
        drv.measure()
    assert len(checked) == 2 * 2 * N
    assert drv.n_accept > 0


def _per_walker_system(dtype):
    """``(P, J2 + J1 wavefunction, ham, policy, positions)`` of an OTF
    per-walker system with ``N`` electrons: the spec's in fp64, the
    CURRENT build of Graphite x0.125 (fp32 storage, ``MIXED``) in fp32."""
    if dtype == "fp64":
        spec = JastrowSystemSpec(n=N, seed=3, aa_flavor="otf")
        P, twf, ham = spec.build_scalar()
        return P, twf, ham, FULL, spec.initial_positions(1)[0]
    parts = QmcSystem.from_workload("Graphite", scale=0.125, seed=3,
                                    with_nlpp=False).build(CodeVersion.CURRENT)
    P = parts.electrons
    assert P.n == N
    by_name = {c.name: c for c in parts.twf.components}
    twf = TrialWaveFunction([by_name["J2"], by_name["J1"]])
    return (P, twf, parts.ham, VERSION_CONFIGS[CodeVersion.CURRENT].precision,
            P.R.copy())


@pytest.mark.parametrize("dtype", ["fp64", "fp32"])
def test_per_walker_drift_reads_a_fresh_row(dtype):
    P, twf, ham, precision, positions = _per_walker_system(dtype)
    j2, j1 = twf.components
    aa, ab = P.distance_tables
    assert aa.distances.dtype == DTYPES[dtype]
    exact = precision is FULL
    driver = QMCDriverBase(P, twf, ham, np.random.default_rng(5),
                           timestep=TAU, precision=precision)
    walker = Walker.from_positions(positions, dtype=precision.value_dtype)
    P.load_walker(walker)
    twf.evaluate_log(P)
    twf.register_data(P, walker.buffer)
    twf.update_buffer(P, walker.buffer)
    checked = []
    grad, ratio_grad = twf.grad, twf.ratio_grad
    held = {}

    def checked_grad(P_, k):
        rk = P.R[k][None]
        want = _expected(
            j2, j1,
            _fresh_aa(aa, P.Rsoa.data[None], rk, k, N),
            _fresh_ab(ab, rk, k), k)
        g = grad(P_, k)
        total = np.zeros(3)
        for _, gc in want:
            total += gc[0]
        _check(g, total, exact, f"drift gradient, k={k}")
        held["u_old"] = [u[0] for u, _ in want]
        checked.append(k)
        return g

    def checked_ratio_grad(P_, k):
        rho, g = ratio_grad(P_, k)
        u_new = (
            rows.rows_v(rows.j2_groups(j2, j2.group_of[k]),
                        aa.temp_r[None, :N])[0],
            rows.rows_v(rows.j1_groups(j1), ab.temp_r[None, : ab.ns])[0])
        want = 1.0
        for un, uo in zip(u_new, held.pop("u_old")):
            want *= math.exp(-(un - uo))
        _check(rho, want, exact, f"ratio (old-row sums), k={k}")
        return rho, g

    twf.grad = checked_grad
    twf.ratio_grad = checked_ratio_grad
    for _ in range(2):
        driver.load_walker(walker)
        driver.sweep()
        driver.store_walker(walker)
    assert len(checked) == 2 * N
    assert driver.n_accept > 0

