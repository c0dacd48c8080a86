"""Driver-level differential gate: the batched crowd driver must
reproduce the genuine per-walker machinery move for move.

Contract (docs/batched_walkers.md):

* accept/reject sequences are EXACTLY equal — the Metropolis arithmetic
  (row sums, math.exp ratios, RNG draw order) is bitwise-shared;
* per-step energies agree within 1e4 * eps of float64 (the sanitizer
  convention);
* final configurations agree to 1e-12 — drift gradients go through
  BLAS, where batched-gemm vs per-walker-gemv costs the odd ulp.
"""

import numpy as np
import pytest

from repro.batched import BatchedCrowdDriver, JastrowSystemSpec, run_reference
from repro.output.stream import StreamSet, TraceReader

W = 6
STEPS = 3
SEED = 42
TOL = 1e4 * float(np.finfo(np.float64).eps)
#: one value, the batched stack's one storage dtype; the id names it
FP64 = pytest.mark.parametrize("dtype", [pytest.param(np.float64, id="fp64")])


def _run_pair(flavor, use_drift, n=16, steps=STEPS, streams=None,
              dtype=np.float64):
    spec = JastrowSystemSpec(n=n, seed=7, aa_flavor=flavor)
    ref = run_reference(spec, W, steps, SEED, timestep=0.5,
                        use_drift=use_drift)
    drv = BatchedCrowdDriver(spec, W, SEED, timestep=0.5,
                             use_drift=use_drift)
    assert drv.batch.Rsoa.dtype == dtype
    drv.move_log = []
    result = drv.run(steps, streams=streams)
    return ref, drv, result


@pytest.mark.parametrize("flavor", ["soa", "otf"])
@pytest.mark.parametrize("use_drift", [False, True],
                         ids=["diffusion", "drift"])
@FP64
class TestDifferentialDriver:
    def test_accept_reject_sequences_exact(self, flavor, use_drift, dtype):
        ref, drv, _ = _run_pair(flavor, use_drift, dtype=dtype)
        batched = np.array(drv.move_log)  # (steps*n, W)
        for w in range(W):
            assert ref.move_log[w] == list(batched[:, w])

    def test_energies_within_policy_tolerance(self, flavor, use_drift,
                                              dtype):
        ref, drv, result = _run_pair(flavor, use_drift, dtype=dtype)
        np.testing.assert_allclose(drv.batch.local_energy,
                                   ref.energies[-1], rtol=TOL, atol=TOL)
        np.testing.assert_allclose(result.energies,
                                   np.mean(ref.energies, axis=1),
                                   rtol=TOL, atol=TOL)

    def test_final_positions_agree(self, flavor, use_drift, dtype):
        ref, drv, _ = _run_pair(flavor, use_drift, dtype=dtype)
        np.testing.assert_allclose(drv.batch.R, ref.positions,
                                   rtol=0, atol=1e-12)

    def test_move_counters_match(self, flavor, use_drift, dtype):
        ref, drv, result = _run_pair(flavor, use_drift, dtype=dtype)
        assert drv.n_moves == ref.n_moves
        assert drv.n_accept == ref.n_accept
        assert result.extra["moves"] == float(ref.n_moves)
        assert result.extra["accepted"] == float(ref.n_accept)


class TestFullPrecisionIsBitwise:
    """In full precision the energy trace is not merely close — the
    sum/exp arithmetic is identical, so it is bitwise equal."""

    @pytest.mark.parametrize("flavor", ["soa", "otf"])
    @pytest.mark.parametrize("use_drift", [False, True],
                             ids=["diffusion", "drift"])
    def test_per_step_energies_bitwise(self, flavor, use_drift):
        ref, drv, result = _run_pair(flavor, use_drift)
        assert np.array_equal(drv.batch.local_energy, ref.energies[-1])

    def test_estimator_series_match(self, tmp_path):
        """The batched run's trace holds the per-walker path's samples:
        (step, walker)-ordered, term by term."""
        path = str(tmp_path / "run.trace")
        with StreamSet(trace_path=path) as streams:
            ref, _, _ = _run_pair("soa", True, streams=streams)
        expected = dict(ref.components, LocalEnergy=ref.energies)
        with TraceReader(path) as trace:
            # Row-sum terms are bitwise; Kinetic carries the BLAS G/L ulps.
            for name in ("LocalEnergy", "ElecElec", "ElecIon"):
                np.testing.assert_array_equal(trace.series(name),
                                              expected[name].ravel())
            np.testing.assert_allclose(trace.series("Kinetic"),
                                       expected["Kinetic"].ravel(),
                                       rtol=1e-12, atol=1e-12)


class TestSanitized:
    """One differential pass with the runtime sanitizers armed: layout,
    dtype, and forward-update invariants hold along the batched
    trajectory (REPRO_SANITIZE=1 equivalent)."""

    @pytest.mark.parametrize("flavor", ["soa", "otf"])
    def test_sanitized_differential(self, sanitize, flavor):
        ref, drv, _ = _run_pair(flavor, True, steps=2)
        assert drv.sanitizers is not None  # actually armed
        batched = np.array(drv.move_log)
        for w in range(W):
            assert ref.move_log[w] == list(batched[:, w])
        assert np.array_equal(drv.batch.local_energy, ref.energies[-1])


class TestBatchedDriverSurface:
    def test_result_fields(self):
        spec = JastrowSystemSpec(n=16, seed=7)
        drv = BatchedCrowdDriver(spec, 4, 1)
        res = drv.run(2)
        assert res.method == "VMC(batched)"
        assert len(res.energies) == 2
        assert res.populations == [4, 4]
        assert 0 < res.acceptance <= 1
        assert res.extra["moves"] == 2 * 4 * 16
        assert "LocalEnergy" in res.online.names()
        assert res.throughput > 0

    def test_rng_streams_independent_of_batch(self):
        """Stream w depends only on (master_seed, w): prefixes of a
        bigger crowd reproduce a smaller crowd exactly."""
        spec = JastrowSystemSpec(n=16, seed=7)
        small = BatchedCrowdDriver(spec, 3, 5)
        small.run(2)
        big = BatchedCrowdDriver(spec, 6, 5)
        big.run(2)
        assert np.array_equal(big.batch.R[:3], small.batch.R)
        assert np.array_equal(big.batch.local_energy[:3],
                              small.batch.local_energy)
