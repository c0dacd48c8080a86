"""J1 carries its 5N per-electron scalars on both execution stacks.

``U`` (N), ``dU`` (N, 3) and ``d2U`` (N) per walker are filled by the
from-scratch pass, committed by each accepted move and gathered with
the tables after the DMC comb.  They must equal a fresh row pass over
the carried AB table bit for bit — the sanitizers check exactly that.
The per-walker buffer carries them instead of a placeholder, in fp64
and in the fp32 CURRENT build.
"""

import numpy as np
import pytest

from repro.batched import JastrowSystemSpec
from repro.batched.driver import BatchedCrowdDriver
from repro.core.system import QmcSystem
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.drivers.base import QMCDriverBase
from repro.drivers.generation import DMCPolicy
from repro.parallel.crowds import _host_crowd
from repro.parallel.shm import SharedWalkerState
from repro.precision.policy import FULL
from repro.sanitizers import SanitizerError
from repro.wavefunction.trialwf import TrialWaveFunction

W = 6
N = 12


def _assert_fresh(j1, table):
    for name, held, fresh in zip(("U", "dU", "d2U"), (j1.U, j1.dU, j1.d2U),
                                 j1.fresh_rows(table)):
        assert np.array_equal(held, fresh), name


@pytest.mark.parametrize("flavor", ["soa", "otf"])
@pytest.mark.parametrize("timestep", [0.3, 1.5])
def test_batched_arrays_equal_a_row_pass(flavor, timestep):
    spec = JastrowSystemSpec(n=N, seed=4, aa_flavor=flavor)
    drv = BatchedCrowdDriver(spec, W, 13, timestep=timestep)
    j1, ab = drv.components[1], drv.tables[1]
    _assert_fresh(j1, ab)
    for _ in range(3):
        drv.sweep()
        _assert_fresh(j1, ab)
        drv.measure()
    assert 0 < drv.n_accept < drv.n_moves


def _crowds(spec, n_crowds):
    state = SharedWalkerState(W, spec.n)
    state.R[...] = spec.initial_positions(W)
    return state, [_host_crowd(spec, state, c, n_crowds, 11, 0.1, True, 1)
                   for c in range(n_crowds)]


def _comb(state, seed):
    picks, clone = DMCPolicy.comb_picks(
        state.weight, state.nw,
        np.random.default_rng(seed).uniform(0.0, 1.0 / state.nw))
    state.resample(picks, clone)


@pytest.mark.parametrize("n_crowds", [1, 2])
def test_gather_follows_the_comb(n_crowds):
    """After the comb each crowd's arrays are its slots' walkers' —
    copied from the slot a walker sat in, or refreshed from the pair
    pass when it sat in the other crowd."""
    spec = JastrowSystemSpec(n=N, seed=4, aa_flavor="soa")
    state, crowds = _crowds(spec, n_crowds)
    e_trial = float(np.mean(state.local_energy))
    for step in (1, 2, 3):
        for crowd in crowds:
            crowd.run_generation(step, e_trial)
        _comb(state, step)
        for crowd in crowds:
            crowd.gather_tables()
            crowd._stale = False
            _assert_fresh(crowd.components[1], crowd.tables[1])


class TestCarriedJ1Checker:
    """Both sanitizer suites compare the carried arrays with a fresh
    ``rows_vgl`` pass and name walker, electron and channel."""

    @pytest.mark.parametrize("n_crowds", [1, 2])
    def test_armed_dmc_generations_pass(self, sanitize, n_crowds):
        spec = JastrowSystemSpec(n=N, seed=4, aa_flavor="soa")
        state, crowds = _crowds(spec, n_crowds)
        e_trial = float(np.mean(state.local_energy))
        for step in (1, 2, 3):
            for crowd in crowds:
                crowd.run_generation(step, e_trial)
            _comb(state, step)

    def test_batched_corruption(self, sanitize):
        drv = BatchedCrowdDriver(JastrowSystemSpec(n=N, seed=4), W, 13,
                                 timestep=0.3)
        j1 = drv.components[1]
        drv.sweep()
        j1.dU[2, 5, 1] = np.nextafter(j1.dU[2, 5, 1], 9.0)
        with pytest.raises(SanitizerError,
                           match=r"BatchedOneBodyJastrow walker #2 electron "
                                 r"5 channel dU axis 1"):
            drv.measure()

    def test_per_walker_corruption(self, sanitize):
        P, twf, ham = JastrowSystemSpec(n=N, seed=4).build_scalar()
        driver = QMCDriverBase(P, twf, ham, np.random.default_rng(5),
                               timestep=0.3)
        driver.population = driver.create_walkers(2)
        walker = driver.population[1]
        driver.load_walker(walker)
        driver.sweep()
        j1 = twf.components[1]
        j1.d2U[3] += 1e-12
        with pytest.raises(SanitizerError,
                           match=r"OneBodyJastrowOtf walker #1 electron 3 "
                                 r"channel d2U"):
            driver.store_walker(walker)


def _per_walker_system(dtype):
    """``(P, J2 + J1 wavefunction, ham, policy)``: the spec's in fp64,
    the CURRENT build of Graphite x0.125 (fp32 storage) in fp32."""
    if dtype == "fp64":
        return (*JastrowSystemSpec(n=N, seed=4).build_scalar(), FULL)
    parts = QmcSystem.from_workload("Graphite", scale=0.125, seed=4,
                                    with_nlpp=False).build(CodeVersion.CURRENT)
    assert parts.electrons.Rsoa.data.dtype == np.float32
    by_name = {c.name: c for c in parts.twf.components}
    return (parts.electrons, TrialWaveFunction([by_name["J2"], by_name["J1"]]),
            parts.ham, VERSION_CONFIGS[CodeVersion.CURRENT].precision)


@pytest.mark.parametrize("dtype", ["fp64", "fp32"])
def test_per_walker_buffer_carries_the_arrays(dtype):
    P, twf, ham, precision = _per_walker_system(dtype)
    driver = QMCDriverBase(P, twf, ham, np.random.default_rng(5),
                           timestep=0.3, precision=precision)
    a, b = driver.create_walkers(2)
    assert a.buffer.dtype == precision.value_dtype
    n = P.n
    j1 = twf.components[1]
    assert j1.storage_bytes == 5 * n * 8
    # J1's 5N fp64 scalars (their bytes, whatever the buffer's value
    # precision) plus J2's placeholder scalar
    assert a.buffer.nbytes == 5 * n * 8 + a.buffer.dtype.itemsize
    for _ in range(2):
        driver.load_walker(a)
        driver.sweep()
        driver.store_walker(a)
    held = j1.U.copy(), j1.dU.copy(), j1.d2U.copy()
    driver.load_walker(b)
    driver.load_walker(a)
    for h, got in zip(held, (j1.U, j1.dU, j1.d2U)):
        assert np.array_equal(h, got)
    _assert_fresh(j1, P.distance_tables[1])
