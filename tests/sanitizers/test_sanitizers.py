"""Runtime sanitizer tests: each checker catches its injected fault."""

import numpy as np
import pytest

from repro.containers.vsc import VectorSoaContainer
from repro.distances.factory import create_aa_table
from repro.sanitizers import (
    DtypeSanitizer, ForwardUpdateChecker, LayoutSanitizer, SanitizerError,
    force_sanitizers, sanitizers_enabled,
)
from repro.precision.policy import FULL, MIXED


class TestDtypeSanitizer:
    def test_catches_injected_float64_upcast_under_mixed(self):
        san = DtypeSanitizer(MIXED)
        with pytest.raises(SanitizerError, match="float64"):
            san.check_array("row", np.zeros(8))  # injected silent upcast

    def test_value_dtype_passes_under_mixed(self):
        DtypeSanitizer(MIXED).check_array("row", np.zeros(8, np.float32))

    def test_full_precision_policy_is_vacuous(self):
        DtypeSanitizer(FULL).check_array("row", np.zeros(8))

    def test_wrap_checks_kernel_results(self):
        san = DtypeSanitizer(MIXED)
        bad = san.wrap(lambda: np.zeros(4), label="kernel")
        with pytest.raises(SanitizerError):
            bad()
        good = san.wrap(lambda: (np.zeros(4, np.float32), 1.0))
        good()

    def test_accumulators_must_be_double(self):
        with pytest.raises(SanitizerError, match="accum"):
            DtypeSanitizer(MIXED).check_accum(
                "esum", np.zeros(3, dtype=np.float32))


class TestLayoutSanitizer:
    def test_clean_container_passes(self):
        LayoutSanitizer().check_container(VectorSoaContainer(5, 3))

    def test_catches_dirty_padding(self):
        vsc = VectorSoaContainer(5, 3)
        vsc.data[:, vsc.n:] = 1.0  # injected padding corruption
        with pytest.raises(SanitizerError, match="padding"):
            LayoutSanitizer().check_container(vsc)

    def test_catches_noncontiguous_table(self, electrons):
        aa = create_aa_table(electrons.n, electrons.lattice, "soa")
        aa.evaluate(electrons)
        aa.distances = aa.distances[:, ::2]  # injected strided view
        with pytest.raises(SanitizerError, match="contiguous"):
            LayoutSanitizer().check_table(aa)

    def test_catches_nan_distances(self, electrons):
        aa = create_aa_table(electrons.n, electrons.lattice, "soa")
        aa.evaluate(electrons)
        aa.distances[1, 2] = np.nan
        with pytest.raises(SanitizerError, match="NaN"):
            LayoutSanitizer().check_table(aa)


class TestForwardUpdateChecker:
    def _attach(self, P, flavor="soa"):
        aa = create_aa_table(P.n, P.lattice, flavor)
        P.add_table(aa)
        P.update_tables()
        return aa

    def test_committed_move_passes(self, electrons, rng):
        P = electrons
        aa = self._attach(P)
        k = 2
        P.make_move(k, P.lattice.wrap(P.R[k] + 0.2 * rng.normal(size=3)))
        P.accept_move(k)
        checker = ForwardUpdateChecker()
        checker.check_row(aa, P, k)
        checker.check_column(aa, P, k)

    def test_catches_stale_column_after_rejected_move(self, electrons, rng):
        """The injected fault: the table commits its row+forward-column
        update even though the ParticleSet rejects the move."""
        P = electrons
        aa = self._attach(P)
        k = 3
        P.make_move(k, P.lattice.wrap(P.R[k] + 0.5 * rng.normal(size=3)))
        aa.update(k)  # <- fault: commit on the reject path
        P.reject_move(k)
        with pytest.raises(SanitizerError, match="stale"):
            ForwardUpdateChecker().check_column(aa, P, k)

    def test_catches_corrupted_forward_entry(self, electrons, rng):
        P = electrons
        aa = self._attach(P)
        k = 1
        P.make_move(k, P.lattice.wrap(P.R[k] + 0.2 * rng.normal(size=3)))
        P.accept_move(k)
        aa.distances[k + 2, k] += 0.25  # injected drift in d(k+2, k)
        with pytest.raises(SanitizerError, match="stale"):
            ForwardUpdateChecker().check_column(aa, P, k)


class TestToggleAndDrivers:
    def test_env_and_force_toggles(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizers_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitizers_enabled()
        force_sanitizers(True)
        try:
            assert sanitizers_enabled()
        finally:
            force_sanitizers(None)

    def test_vmc_runs_clean_under_sanitizers(self, sanitize):
        """The full CURRENT pipeline satisfies every runtime invariant."""
        from repro.core.system import QmcSystem, run_vmc
        from repro.core.version import CodeVersion

        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=False)
        res = run_vmc(sys_, CodeVersion.CURRENT, walkers=1, steps=2, seed=5)
        assert np.all(np.isfinite(res.energies))
