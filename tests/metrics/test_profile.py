"""Tests for the paper view: HotspotProfile, category_view, profile_run."""

import time

import numpy as np
import pytest

from repro.core.system import QmcSystem
from repro.core.version import CodeVersion
from repro.drivers.vmc import VMCDriver
from repro.metrics.profile import (PAPER_CATEGORIES, HotspotProfile,
                                   KernelOps, category_view)
from repro.metrics.registry import METRICS, MetricsRegistry


class TestHotspotProfile:
    def test_normalized_includes_other(self):
        prof = HotspotProfile({"A": 0.5, "B": 0.25}, total=1.0)
        norm = prof.normalized()
        assert norm["A"] == pytest.approx(0.5)
        assert norm["Other"] == pytest.approx(0.25)
        assert sum(norm.values()) == pytest.approx(1.0)

    def test_fraction_zero_total(self):
        prof = HotspotProfile({}, total=0.0)
        assert prof.fraction("A") == 0.0

    def test_top(self):
        prof = HotspotProfile({"A": 0.1, "B": 0.6, "C": 0.3}, total=1.0)
        top = prof.top(2)
        assert top[0][0] == "B"
        assert top[1][0] == "C"

    def test_format_table(self):
        prof = HotspotProfile({"J2": 0.5}, total=1.0, label="x")
        s = prof.format_table()
        assert "J2" in s and "50.00 %" in s


class TestProfileRun:
    def test_structural_scopes_fold_into_other(self):
        reg = MetricsRegistry()
        with reg.profile_run("VMC", "label") as prof:
            with reg.scope("sweep"):
                time.sleep(0.002)
                with reg.scope("J2"):
                    time.sleep(0.004)
                with reg.scope("NLPP"):
                    with reg.scope("J2"):  # innermost category wins
                        time.sleep(0.004)
        assert prof.label == "label"
        assert set(prof.seconds) == {"J2", "NLPP", "Other"}
        assert prof.seconds["J2"] >= 0.008
        assert prof.seconds["Other"] >= 0.002
        assert prof.seconds["NLPP"] < 0.004
        assert sum(prof.seconds.values()) == pytest.approx(prof.total,
                                                           rel=1e-12)
        assert sum(prof.normalized().values()) == pytest.approx(1.0)

    def test_categories_are_a_parameter_of_the_view(self):
        reg = MetricsRegistry(enabled=True)
        with reg.profile_run("bench", categories=("aa_row",)) as prof:
            with reg.scope("aa_row"):
                pass
            with reg.scope("J2"):
                pass
        assert set(prof.seconds) == {"aa_row", "Other"}

    def test_arms_only_for_the_block_and_leaves_no_trace(self):
        reg = MetricsRegistry(enabled=False)
        with reg.profile_run("run") as prof:
            assert reg.enabled
            with reg.scope("J1"):
                pass
        assert not reg.enabled
        assert "J1" in prof.seconds
        assert reg.flat() == {}  # a disarmed registry stays empty

    def test_armed_registry_keeps_the_run_in_its_tree(self):
        reg = MetricsRegistry(enabled=True)
        with reg.scope("bench:case"):
            for _ in range(2):
                with reg.profile_run("fused") as prof:
                    with reg.scope("Sweep"):
                        pass
        assert reg.enabled
        flat = reg.flat()
        assert flat["bench:case/fused"]["calls"] == 2
        assert flat["bench:case/fused/Sweep"]["calls"] == 2
        # ... while each profile holds one run only
        assert prof.total < flat["bench:case/fused"]["inclusive_s"]

    @pytest.mark.parametrize("armed", [False, True])
    def test_restores_arming_when_the_body_raises(self, armed):
        reg = MetricsRegistry(enabled=armed)
        with pytest.raises(RuntimeError):
            with reg.profile_run("run"):
                with reg.scope("J2"):
                    raise RuntimeError("boom")
        assert reg.enabled is armed
        with reg.scope("after"):  # the stack unwound completely
            pass
        assert ("run/after" not in reg.flat())

    def test_category_seconds_sums_to_the_node(self):
        reg = MetricsRegistry(enabled=True)
        with reg.scope("VMC"):
            reg.add_seconds("J2", 2.0)
            with reg.scope("measure"):
                reg.add_seconds("J2", 1.0)
                reg.add_seconds("Ewald", 0.5)
        vmc = reg._merged_root().children["VMC"]
        secs, ops = category_view(vmc)
        assert secs["J2"] == pytest.approx(3.0)
        assert set(secs) == {"J2", "Other"}
        assert ops == {}  # nothing recorded work

    def test_ops_fold_by_innermost_category_like_seconds(self):
        reg = MetricsRegistry()
        with reg.profile_run("VMC") as prof:
            with reg.scope("sweep"):
                reg.record(flops=1.0, rbytes=2.0)
                with reg.scope("J2"):
                    reg.record(flops=10.0, rbytes=20.0, wbytes=5.0)
                with reg.scope("NLPP"):
                    reg.record(flops=3.0)
                    with reg.scope("J2"):
                        reg.record(flops=10.0, wbytes=1.0)
            reg.record(wbytes=4.0)
        assert prof.ops == {"J2": KernelOps(20.0, 20.0, 6.0),
                            "NLPP": KernelOps(3.0, 0.0, 0.0),
                            "Other": KernelOps(1.0, 2.0, 4.0)}
        assert prof.ops["J2"].arithmetic_intensity == pytest.approx(20 / 26)


@pytest.fixture(scope="module")
def graphite():
    sys_ = QmcSystem.from_workload("Graphite", scale=0.0625, seed=21,
                                   with_nlpp=False)
    return sys_.build(CodeVersion.CURRENT)


def _driver(parts, cls=VMCDriver):
    return cls(parts.electrons, parts.twf, parts.ham,
               np.random.default_rng(3), timestep=0.3)


class TestDriverProfiles:
    def test_generation_that_raises_restores_arming(self, graphite):
        """A driver whose ``_advance`` raises must not leave the registry
        armed for the rest of the process."""
        class Exploding(VMCDriver):
            def _advance(self, step, e_trial):
                if step == 2:
                    raise RuntimeError("walker lost")
                return super()._advance(step, e_trial)

        drv = _driver(graphite, Exploding)
        before = METRICS.enabled
        with pytest.raises(RuntimeError, match="walker lost"):
            drv.run(walkers=1, steps=3, profile=True)
        assert METRICS.enabled is before
        # later unprofiled runs record nothing
        res = _driver(graphite).run(walkers=1, steps=1)
        assert res.profile is None
        assert before or METRICS.flat() == {}

    def test_profile_under_armed_registry_is_the_runs_own_subtree(
            self, graphite):
        """REPRO_METRICS=1 plus profile=True: consecutive runs share one
        ``VMC`` node in the global tree but report independent profiles."""
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        try:
            profiles = [
                _driver(graphite).run(walkers=1, steps=steps,
                                      profile=True).profile
                for steps in (3, 1)]
            flat = METRICS.flat()
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()
        long, short = profiles
        for prof in profiles:
            assert set(prof.seconds) <= set(PAPER_CATEGORIES)
            assert sum(prof.seconds.values()) == pytest.approx(prof.total)
        assert flat["VMC"]["calls"] == 2
        assert flat["VMC"]["inclusive_s"] == pytest.approx(
            long.total + short.total)
        # the second run did a third of the work and says so — it does
        # not inherit the first run's seconds
        assert short.total < 0.8 * long.total
        assert short.seconds["J2"] < 0.8 * long.seconds["J2"]
