"""Tests for the strong-scaling cluster model (Fig. 1's engine)."""

import pytest

from repro.parallel.cluster import ARIES, OMNIPATH, Interconnect, SimCluster


class TestInterconnect:
    def test_transfer_time(self):
        ic = Interconnect("x", latency_s=1e-6, bandwidth_gbs=10.0)
        assert ic.transfer_time(0.0) == pytest.approx(1e-6)
        assert ic.transfer_time(10e9, messages=0) == pytest.approx(1.0)


class TestSimCluster:
    def _cluster(self, thr=40.0):
        return SimCluster(thr, ARIES, walker_nbytes=1.5e6)

    def test_invalid_throughput(self):
        with pytest.raises(ValueError):
            SimCluster(0.0, ARIES, 1e6)

    def test_efficiency_monotone_decreasing(self):
        pts = self._cluster().scaling_curve(131072,
                                            [32, 64, 128, 256, 512, 1024])
        effs = [p.efficiency for p in pts]
        assert effs[0] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(effs, effs[1:]))

    def test_paper_efficiency_band(self):
        """NiO-64 at pop 131072: ~90% at 1024 nodes (paper Sec. 8)."""
        pts = self._cluster().scaling_curve(131072, [32, 1024])
        assert 0.85 <= pts[-1].efficiency <= 0.97

    def test_high_walkers_per_node_high_efficiency(self):
        """BDW-style runs (more walkers per task) stay near 98%."""
        pts = self._cluster(6.0).scaling_curve(131072, [64, 256])
        assert pts[-1].efficiency >= 0.95

    def test_throughput_increases_with_nodes(self):
        pts = self._cluster().scaling_curve(131072, [32, 64, 128])
        thr = [p.throughput for p in pts]
        assert thr[0] < thr[1] < thr[2]

    def test_speedup_ratio_preserved_at_scale(self):
        """Current/Ref node-throughput ratio survives to 1024 nodes
        (the paper's claim: node speedup translates to multi-node)."""
        ref = SimCluster(12.0, ARIES, 24e6).scaling_curve(131072, [32, 1024])
        cur = SimCluster(40.0, ARIES, 1.5e6).scaling_curve(131072,
                                                           [32, 1024])
        node_ratio = 40.0 / 12.0
        cluster_ratio = cur[-1].throughput / ref[-1].throughput
        assert cluster_ratio == pytest.approx(node_ratio, rel=0.1)

    def test_generation_time_parts(self):
        t, comp, comm = self._cluster().generation_time(64, 131072)
        assert t == pytest.approx(comp + comm)
        assert comp > 0 and comm > 0


class TestDiscreteSimulation:
    def test_counts_conserved_and_comm_counted(self):
        c = SimCluster(40.0, ARIES, walker_nbytes=1.5e6)
        stats = c.simulate_generations(16, 1024, generations=8)
        assert stats["allreduces"] == 8
        assert stats["messages"] == 2 * (stats["messages"] // 2)
        assert stats["bytes"] == pytest.approx(
            stats["migrated_walkers"] * 1.5e6)
        assert stats["migrated_walkers"] >= 0

    @pytest.mark.parametrize("seed, args, expected", [
        (5, (16, 1024, 8), (8, 106, 483_000_000, 322, 28, 2.515625)),
        (3, (64, 131072, 10),
         (10, 611, 16_540_500_000, 11_027, 277, 17.2296875)),
    ])
    def test_pinned_statistics(self, seed, args, expected):
        """Exact counts and RNG draws: one allreduce per generation, one
        message of ``n * walker_nbytes`` bytes per plan entry."""
        c = SimCluster(40.0, ARIES, walker_nbytes=1.5e6, seed=seed)
        nodes, population, generations = args
        stats = c.simulate_generations(nodes, population,
                                       generations=generations)
        assert tuple(stats[k] for k in (
            "allreduces", "messages", "bytes", "migrated_walkers",
            "max_imbalance", "migrated_per_gen_per_node")) == expected

    def test_single_node_no_migration(self):
        c = SimCluster(40.0, ARIES, walker_nbytes=1e6)
        stats = c.simulate_generations(1, 128, generations=5)
        assert stats["migrated_walkers"] == 0
        assert stats["bytes"] == 0
