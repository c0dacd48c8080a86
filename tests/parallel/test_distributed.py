"""Tests for the distributed (multi-rank) DMC driver."""

import numpy as np
import pytest

from repro.core.system import QmcSystem
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.drivers.dmc import DMCDriver
from repro.parallel.distributed import DistributedDMCDriver


@pytest.fixture(scope="module")
def parts():
    sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                   with_nlpp=False)
    return sys_.build(CodeVersion.CURRENT, value_dtype=np.float64)


class TestDistributedDMC:
    def test_runs_over_ranks(self, parts):
        drv = DistributedDMCDriver(parts, ranks=3,
                                   rng=np.random.default_rng(1))
        res = drv.run(walkers_per_rank=2, steps=4)
        assert res.method == "DMC(distributed)"
        assert len(res.energies) == 4
        assert np.all(np.isfinite(res.energies))
        assert res.extra["final_population"] >= 1

    def test_allreduce_pattern(self, parts):
        """One allreduce per generation plus two at setup (Sec. 8's
        'allreduce to compute running averages')."""
        drv = DistributedDMCDriver(parts, ranks=2,
                                   rng=np.random.default_rng(2))
        drv.run(walkers_per_rank=2, steps=5)
        assert drv.stats.allreduces == 2 + 5

    def test_load_balanced_after_each_generation(self, parts):
        drv = DistributedDMCDriver(parts, ranks=3,
                                   rng=np.random.default_rng(3))
        res = drv.run(walkers_per_rank=3, steps=5)
        # After balancing, final per-rank counts differ by at most 1.
        # (reconstruct from the comm: all walkers accounted for)
        total = res.extra["final_population"]
        assert total >= 3  # survived

    def test_migration_bytes_counted(self, parts):
        drv = DistributedDMCDriver(parts, ranks=4,
                                   rng=np.random.default_rng(4))
        res = drv.run(walkers_per_rank=2, steps=6)
        if res.extra["migrated_walkers"] > 0:
            assert res.extra["comm_bytes"] > 0
            # Each migrated walker costs at least its positions.
            assert res.extra["comm_bytes"] >= \
                res.extra["migrated_walkers"] * parts.electrons.R.nbytes

    def test_single_rank_degenerates_to_plain_dmc_shape(self):
        """One rank is plain DMC: same feedback constant, age damping and
        periodic recompute (the shared policy), so the energy and E_T
        traces equal ``DMCDriver``'s — up to the order of the weighted
        sums behind the rank's allreduce."""
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                       with_nlpp=False)
        steps = 17  # past MIXED's recompute at generation 16
        drv = DistributedDMCDriver(sys_.build(CodeVersion.CURRENT), ranks=1,
                                   rng=np.random.default_rng(5))
        res = drv.run(walkers_per_rank=4, steps=steps)
        assert drv.stats.migrated_walkers == 0
        assert len(res.populations) == steps
        parts = sys_.build(CodeVersion.CURRENT)
        rank_rng = np.random.default_rng(
            np.random.default_rng(5).integers(2 ** 63))
        plain = DMCDriver(
            parts.electrons, parts.twf, parts.ham, rank_rng, timestep=0.005,
            precision=VERSION_CONFIGS[CodeVersion.CURRENT].precision
        ).run(walkers=4, steps=steps)
        assert res.populations == plain.populations
        np.testing.assert_allclose(res.energies, plain.energies,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.trial_energies, plain.trial_energies,
                                   rtol=0, atol=1e-12)

    def test_invalid_ranks(self, parts):
        with pytest.raises(ValueError):
            DistributedDMCDriver(parts, ranks=0,
                                 rng=np.random.default_rng(0))

    def test_message_size_reflects_version(self):
        """Ref walkers ship their 5N^2 buffers; Current walkers are lean —
        the Fig. 8/9 message-size story visible on the wire."""
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                       with_nlpp=False)
        bytes_per_walker = {}
        for version in (CodeVersion.REF, CodeVersion.CURRENT):
            parts = sys_.build(version, value_dtype=np.float64)
            drv = DistributedDMCDriver(parts, ranks=2,
                                       rng=np.random.default_rng(7),
                                       version=version)
            res = drv.run(walkers_per_rank=2, steps=6)
            if res.extra["migrated_walkers"]:
                bytes_per_walker[version] = (res.extra["comm_bytes"]
                                             / res.extra["migrated_walkers"])
        if len(bytes_per_walker) == 2:
            assert bytes_per_walker[CodeVersion.REF] > \
                5 * bytes_per_walker[CodeVersion.CURRENT]
