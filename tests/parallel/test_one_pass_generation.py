"""A batched DMC generation pays for one from-scratch pass, and no
from-scratch distance-table pass.

What a generation computes, and when (docs/batched_walkers.md): the comb
carries ``logpsi``/``local_energy`` with the positions and records its
picks, so after it a crowd gathers its distance tables from the slots
the picks name; ``measure`` settles the carried tables (the AB table is
current, the forward-update AA table mirrors its lower triangle) and is
the one from-scratch wavefunction pass (writing ``logpsi`` beside the
``R`` it describes); the sweep evaluates value + gradient channels only.
The compute-on-the-fly AA table stores no pair block: measure streams
its rows through the row kernel, each once.  The one exception keeps a
pair pass: a walker from another crowd, over its slot alone.  NLPP
quadrature rotations are keyed on the walker slot, so that post-branch
step keeps its wavefunction pass.
"""

import collections
import os

import numpy as np
import pytest

from repro.backend import KERNEL_NAMES, get_backend, use_backend
from repro.batched.system import JastrowSystemSpec
from repro.drivers.base import QMCDriverBase
from repro.drivers.generation import DMCPolicy, resample
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
    ``sweep`` while ``sweep_run`` is open, else whatever the test set.
    ``walkers`` counts the walkers each pair kernel call covered."""

    def __init__(self, inner):
        self.calls = collections.Counter()
        self.walkers = collections.Counter()
        self.phase = "other"
        for name in KERNEL_NAMES:
            setattr(self, name, self._wrap(name, getattr(inner, name)))

    def _wrap(self, name, fn):
        def call(*args, **kwargs):
            self.calls[self.phase, name] += 1
            if name in ("aa_pairs", "ab_pairs"):
                self.walkers[self.phase, name] += len(args[-2])
            if name != "sweep_run":
                return fn(*args, **kwargs)
            outer, self.phase = self.phase, "sweep"
            try:
                # sweep kernels dispatch through active(), i.e. this proxy
                return fn(*args, **kwargs)
            finally:
                self.phase = outer
        return call


def _crowds(spec, n_crowds=1):
    """ParallelCrowdDriver's crowds, one step at a time: crowd c of
    ``n_crowds`` over one heap block (``n_crowds == 1``: the serial
    path), exactly as the worker processes host them over shm."""
    state = SharedWalkerState(WALKERS, spec.n)
    state.R[...] = spec.initial_positions(WALKERS)
    crowds = [_host_crowd(spec, state, c, n_crowds, SEED, TAU, 1)
              for c in range(n_crowds)]
    return state, crowds


def _branch(state, rng):
    picks, clone = DMCPolicy.comb_picks(
        state.weight, state.nw, rng.uniform(0.0, 1.0 / state.nw))
    resample(state, state.source, picks, clone)
    return picks


def _in_phase(counter, phase, fn):
    """``fn`` with the counter's phase set to ``phase`` while it runs."""
    def call(*args, **kwargs):
        outer, counter.phase = counter.phase, phase
        try:
            return fn(*args, **kwargs)
        finally:
            counter.phase = outer
    return call


def _steady_state(spec, n_crowds=1, activating=False):
    """Per-phase kernel counts of generation 2 — after one generation
    and one comb — summed over the crowds, and the comb's picks.
    ``activating`` gives the tables' ``set_active`` a phase of its own."""
    state, crowds = _crowds(spec, n_crowds)
    e_trial = float(np.mean(state.local_energy))
    for crowd in crowds:
        crowd.run_generation(1, e_trial)
    picks = _branch(state, np.random.default_rng(3))
    counter = _PhaseCounter(get_backend())
    for crowd in crowds:
        crowd._measure = _in_phase(counter, "measure", crowd._measure)
        if activating:
            for t in crowd.tables:
                t.set_active = _in_phase(counter, "set_active", t.set_active)
    with use_backend(counter):
        for crowd in crowds:
            crowd.run_generation(2, e_trial)
    return counter, crowds, state, picks


def _per_pass(crowd):
    j2, j1 = crowd.components
    return N * (len(j2.group_slices) + len(j1.species_masks))


def _rows(components):
    """Functor calls per row of each component: (J2, J1)."""
    j2, j1 = components
    return len(j2.group_slices), len(j1.species_masks)


def _pair_calls(counter):
    return {key: count for key, count in counter.calls.items()
            if key[1] in ("aa_pairs", "ab_pairs")}


class TestKernelCounts:
    @pytest.mark.parametrize("with_nlpp", [False, True])
    def test_steady_state_dmc_generation(self, with_nlpp):
        spec = JastrowSystemSpec(n=N, seed=7, aa_flavor="soa",
                                 with_nlpp=with_nlpp)
        counter, (crowd,), _, _ = _steady_state(spec)
        j2_row, j1_row = _rows(crowd.components)
        vgl = {phase: count for (phase, name), count in counter.calls.items()
               if name == "functor_vgl"}
        # J1 carries its per-electron value/gradient/Laplacian: measure
        # re-evaluates the J2 rows only; the sweep's one J1 row per move
        # is the proposed one, whose vgl an accept commits
        if with_nlpp:
            # slot-keyed E_L: the post-branch wavefunction pass stays,
            # over the gathered tables (J1 from its gathered arrays)
            assert vgl == {"other": N * j2_row, "measure": N * j2_row,
                           "sweep": N * j1_row}
        else:
            assert vgl == {"measure": N * j2_row, "sweep": N * j1_row}
        # per move: 2 J2 value+gradient rows (old and proposed), the
        # old row's value sum handed on, so no value-only row at all
        assert counter.calls["sweep", "functor_vg"] == 2 * N * j2_row
        assert counter.calls["sweep", "functor_v"] == 0
        # carried tables: a gather after the comb, a mirror in measure
        assert _pair_calls(counter) == {}

    def test_otf_measure_streams_its_rows(self):
        spec = JastrowSystemSpec(n=N, seed=7, aa_flavor="otf")
        counter, (crowd,), _, _ = _steady_state(spec, activating=True)
        # no pair pass anywhere: measure computes each row once
        assert _pair_calls(counter) == {}
        assert counter.calls["measure", "aa_row"] == N
        # one row refresh per move, in set_active before the drift,
        # plus the proposed row; the refreshed row is evaluated once
        assert counter.calls["set_active", "aa_row"] == N
        assert counter.calls["sweep", "aa_row"] == N
        j2_row, _ = _rows(crowd.components)
        assert counter.calls["measure", "functor_vgl"] == N * j2_row
        assert counter.calls["sweep", "functor_vg"] == 2 * N * j2_row
        assert counter.calls["sweep", "functor_v"] == 0

    @pytest.mark.parametrize("flavor", ["soa", "otf"])
    def test_per_walker_sweep(self, flavor):
        """The per-walker twin: one sweep evaluates 2N J2 rows (the
        old row once, its value sum handed from ``grad`` to
        ``ratio_grad``) and N J1 rows (the proposed one), where a
        stateless J1 and a twice-evaluated old J2 row made 3N and 3N."""
        spec = JastrowSystemSpec(n=N, seed=7, aa_flavor=flavor)
        P, twf, ham = spec.build_scalar()
        driver = QMCDriverBase(P, twf, ham, np.random.default_rng(5),
                               timestep=TAU)
        driver.population = driver.create_walkers(1)
        driver.load_walker(driver.population[0])
        counter = _PhaseCounter(get_backend())
        with use_backend(counter):
            assert driver.sweep() > 0
        j2_row, j1_row = _rows(twf.components)
        assert counter.calls["other", "functor_vg"] == 2 * N * j2_row
        assert counter.calls["other", "functor_vgl"] == N * j1_row
        assert counter.calls["other", "functor_v"] == 0
        aa_rows = 2 * N if flavor == "otf" else N
        assert counter.calls["other", "aa_row"] == aa_rows

    @pytest.mark.parametrize("with_nlpp", [False, True])
    def test_two_crowds_pass_only_the_migrated_slots(self, with_nlpp):
        """Crowd c of 2 hosts walkers w % 2 == c: a slot whose comb
        source is in the other crowd gets a pair pass, every other slot
        a copy; after it the crowds' ``source`` entries are identity."""
        spec = JastrowSystemSpec(n=N, seed=7, aa_flavor="soa",
                                 with_nlpp=with_nlpp)
        counter, crowds, state, picks = _steady_state(spec, n_crowds=2)
        migrated = int(np.count_nonzero(picks % 2 != np.arange(WALKERS) % 2))
        assert 0 < migrated < WALKERS
        assert not any(phase == "measure" for phase, _ in counter.walkers)
        assert counter.walkers["other", "aa_pairs"] == migrated
        assert counter.walkers["other", "ab_pairs"] == migrated
        assert np.array_equal(state.source, np.arange(WALKERS))
        if with_nlpp:
            # the post-branch pass over both crowds: J2 rows, J1 from
            # its gathered arrays (one J1 row pass refreshes the slots
            # whose walker came from the other crowd)
            j2_row, j1_row = _rows(crowds[0].components)
            assert counter.calls["other", "functor_vgl"] == \
                2 * N * (j2_row + j1_row)

    def test_setup_is_one_pass(self):
        spec = JastrowSystemSpec(n=N, seed=7, aa_flavor="soa")
        counter = _PhaseCounter(get_backend())
        with use_backend(counter):
            _, (crowd,) = _crowds(spec)
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
