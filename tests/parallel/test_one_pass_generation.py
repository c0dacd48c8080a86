"""A batched DMC generation pays for one from-scratch pass.

What a generation computes, and when (docs/batched_walkers.md): the comb
carries ``logpsi``/``local_energy`` with the positions, so after it a
crowd rebuilds only position-derived structures; ``measure`` is the one
from-scratch wavefunction pass (and writes ``logpsi`` beside the ``R``
it describes); the sweep evaluates value + gradient channels only.  The
exception — NLPP quadrature rotations are keyed on the walker slot —
keeps the full post-branch refresh.
"""

import collections
import os

import numpy as np
import pytest

from repro.backend import KERNEL_NAMES, get_backend, use_backend
from repro.batched.system import JastrowSystemSpec
from repro.drivers.generation import DMCPolicy
from repro.output.runstate import load_run_checkpoint
from repro.output.stream import StreamSet
from repro.parallel.crowds import ParallelCrowdDriver, _host_crowd
from repro.parallel.shm import SharedWalkerState
from repro.particles.walker import Walker

N = 8
WALKERS = 6
SEED = 11
TAU = 0.1


class _PhaseCounter:
    """Kernel-seam proxy counting calls per (phase, kernel); the phase is
    ``sweep`` while ``sweep_run`` is open, else whatever the test set."""

    def __init__(self, inner):
        self.calls = collections.Counter()
        self.phase = "other"
        for name in KERNEL_NAMES:
            setattr(self, name, self._wrap(name, getattr(inner, name)))

    def _wrap(self, name, fn):
        def call(*args, **kwargs):
            self.calls[self.phase, name] += 1
            if name != "sweep_run":
                return fn(*args, **kwargs)
            outer, self.phase = self.phase, "sweep"
            try:
                # sweep kernels dispatch through active(), i.e. this proxy
                return fn(*args, **kwargs)
            finally:
                self.phase = outer
        return call


def _serial_crowd(spec):
    """The serial path of ParallelCrowdDriver, one step at a time."""
    state = SharedWalkerState(WALKERS, spec.n)
    state.R[...] = spec.initial_positions(WALKERS)
    crowd = _host_crowd(spec, state, 0, 1, SEED, TAU, True, spec.precision, 1)
    return state, crowd


def _branch(state, rng):
    picks, clone = DMCPolicy.comb_picks(
        state.weight, state.nw, rng.uniform(0.0, 1.0 / state.nw))
    state.resample(picks, clone)


class TestKernelCounts:
    @pytest.mark.parametrize("with_nlpp", [False, True])
    def test_steady_state_dmc_generation(self, with_nlpp):
        spec = JastrowSystemSpec(n=N, seed=7, aa_flavor="soa",
                                 with_nlpp=with_nlpp)
        state, crowd = _serial_crowd(spec)
        rng = np.random.default_rng(3)
        e_trial = float(np.mean(state.local_energy))
        crowd.run_generation(1, e_trial)
        _branch(state, rng)
        counter = _PhaseCounter(get_backend())
        measure = crowd._measure

        def measuring():
            counter.phase = "measure"
            try:
                return measure()
            finally:
                counter.phase = "other"
        crowd._measure = measuring
        with use_backend(counter):
            crowd.run_generation(2, e_trial)
        j2, j1 = crowd.components
        per_pass = N * (len(j2.group_slices) + len(j1.species_masks))
        vgl = {phase: count for (phase, name), count in counter.calls.items()
               if name == "functor_vgl"}
        if with_nlpp:
            # slot-keyed E_L: the post-branch pass stays (full refresh)
            assert vgl == {"other": per_pass, "measure": per_pass}
        else:
            # one from-scratch wavefunction pass, inside measure only
            assert vgl == {"measure": per_pass}
        # the sweep evaluates value and value+gradient channels only
        assert counter.calls["sweep", "functor_vg"] == 2 * per_pass
        # post-branch resync + measure: two evaluates per table
        assert counter.calls["other", "aa_pairs"] == 1
        assert counter.calls["other", "ab_pairs"] == 1
        assert counter.calls["measure", "aa_pairs"] == 1
        assert counter.calls["measure", "ab_pairs"] == 1

    def test_setup_is_one_pass(self):
        spec = JastrowSystemSpec(n=N, seed=7, aa_flavor="soa")
        counter = _PhaseCounter(get_backend())
        with use_backend(counter):
            _, crowd = _serial_crowd(spec)
        j2, j1 = crowd.components
        per_pass = N * (len(j2.group_slices) + len(j1.species_masks))
        assert counter.calls["other", "functor_vgl"] == per_pass
        assert counter.calls["other", "aa_pairs"] == 1


def _from_scratch(spec, R):
    """(logpsi, E_L) per walker through the scalar machinery that
    ``repro.batched.reference.run_reference`` drives."""
    P, twf, ham = spec.build_scalar()
    logpsi = np.empty(len(R))
    el = np.empty(len(R))
    for w, positions in enumerate(R):
        P.load_walker(Walker.from_positions(positions))
        P.update_tables()
        logpsi[w] = twf.evaluate_log(P)
        el[w] = ham.evaluate(P, twf)
    return logpsi, el


def _dmc(root, workers, steps, every, resume=None, with_nlpp=False):
    spec = JastrowSystemSpec(n=N, seed=7, with_nlpp=with_nlpp)
    ckpt_path = os.path.join(root, "run.ckpt")
    os.makedirs(root, exist_ok=True)
    if resume is None:
        streams = StreamSet(checkpoint_path=ckpt_path, checkpoint_every=every)
    else:
        streams = StreamSet.resume(resume, checkpoint_path=ckpt_path,
                                   checkpoint_every=every)
    drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=workers,
                              timestep=TAU)
    with drv, streams:
        res = drv.run(steps, mode="dmc", streams=streams, resume=resume)
    return spec, res, ckpt_path


def _npz_members(path):
    with np.load(path, allow_pickle=False) as data:
        return {key: (data[key].dtype.str, data[key].shape,
                      data[key].tobytes()) for key in data.files}


@pytest.mark.parametrize("workers", [0, 2])
class TestWalkerBlockIsTheTruth:
    def test_checkpointed_logpsi_and_el_describe_checkpointed_R(
            self, workers, tmp_path):
        spec, _, ckpt_path = _dmc(str(tmp_path), workers, steps=4, every=4)
        block = load_run_checkpoint(ckpt_path).shared_state
        logpsi, el = _from_scratch(spec, block["R"])
        assert np.array_equal(block["logpsi"], logpsi)
        assert np.array_equal(block["local_energy"], el)

    def test_resumed_checkpoint_equals_uninterrupted(self, workers,
                                                     tmp_path):
        _, res_a, full = _dmc(str(tmp_path / "a"), workers, steps=8, every=4)
        _, _, part = _dmc(str(tmp_path / "b"), workers, steps=4, every=4)
        _, res_b, part = _dmc(str(tmp_path / "b"), workers, steps=4, every=4,
                              resume=load_run_checkpoint(part))
        assert res_b.energies == res_a.energies[4:]
        # npz zip headers carry wall-clock stamps: compare every member
        assert _npz_members(part) == _npz_members(full)


def test_nlpp_dmc_trace_independent_of_worker_count(tmp_path):
    """Slot-keyed E_L (NLPP rotations) keeps the full post-branch
    refresh; the comb-carried value would depend on where a walker sat."""
    _, serial, _ = _dmc(str(tmp_path / "s"), 0, steps=4, every=0,
                        with_nlpp=True)
    _, pooled, _ = _dmc(str(tmp_path / "p"), 2, steps=4, every=0,
                        with_nlpp=True)
    assert pooled.energies == serial.energies
    assert pooled.trial_energies == serial.trial_energies
