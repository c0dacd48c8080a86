"""The kernel seam: one singleton, kernels resolved by attribute at call
time, and the ``use_backend`` substitution a counting proxy or a test
fake goes through.

``benchmarks/e2e/spans.py`` counts dispatches by wrapping attributes on
``get_backend()``; a refactor that binds kernels at import time would
zero its ``backend.dispatches_per_sweep`` silently.  The seam tests here
make that a tier-1 failure instead.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.backend
from repro.backend import KERNEL_NAMES, active, get_backend, use_backend
from repro.backend.numpy_backend import NumpyBackend
from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
from repro.batched.reference import use_loop_sweep
from repro.drivers.vmc import VMCDriver
from repro.lattice.cell import CrystalLattice
from repro.sanitizers import sanitizers_enabled


class _Counter:
    """Depth-0 kernel entries, counted per kernel name."""

    def __init__(self):
        self.calls = dict.fromkeys(KERNEL_NAMES, 0)
        self._depth = 0

    @property
    def dispatches(self):
        return sum(self.calls.values())

    def wrap(self, name, fn):
        def call(*args, **kwargs):
            if self._depth == 0:
                self.calls[name] += 1
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        return call


@contextmanager
def patched_singleton():
    """Wrap every kernel attribute on ``get_backend()`` itself — the way
    ``benchmarks/e2e/spans.py`` instruments a run."""
    backend, counter = get_backend(), _Counter()
    for name in KERNEL_NAMES:
        setattr(backend, name, counter.wrap(name, getattr(backend, name)))
    try:
        yield counter
    finally:
        for name in KERNEL_NAMES:
            delattr(backend, name)


class _Proxy:
    """A substitute for ``use_backend``: same kernels, counted."""

    def __init__(self):
        self.counter = _Counter()
        for name in KERNEL_NAMES:
            setattr(self, name,
                    self.counter.wrap(name, getattr(get_backend(), name)))


def _driver(nw=3, n=8):
    return BatchedCrowdDriver(JastrowSystemSpec(n=n, seed=3), nw, 11)


def test_public_surface_is_the_kept_one():
    assert sorted(repro.backend.__all__) == [
        "KERNEL_NAMES", "active", "get_backend", "use_backend"]


class TestResolution:
    def test_default_is_numpy(self):
        assert isinstance(get_backend(), NumpyBackend)
        assert active() is get_backend()

    def test_instances_are_cached(self):
        assert get_backend() is get_backend()

    def test_every_kernel_name_is_a_method(self):
        for name in KERNEL_NAMES:
            assert callable(getattr(get_backend(), name)), name


class TestScoping:
    def test_use_backend_overrides_and_restores(self):
        proxy = _Proxy()
        with use_backend(proxy) as b:
            assert b is proxy and active() is proxy
        assert active() is get_backend()
        with pytest.raises(RuntimeError):
            with use_backend(proxy):
                raise RuntimeError("boom")
        assert active() is get_backend()

    def test_scopes_nest(self):
        outer, inner = _Proxy(), _Proxy()
        with use_backend(outer):
            with pytest.raises(RuntimeError):
                with use_backend(inner):
                    assert active() is inner
                    raise RuntimeError("boom")
            assert active() is outer
        assert active() is get_backend()


class TestCallTimeDispatch:
    """Wrappers set on the singleton are seen by every call site."""

    def test_fused_sweep_is_one_dispatch(self):
        drv = _driver()
        with patched_singleton() as counter:
            drv.sweep()
        assert counter.dispatches == 1
        assert counter.calls["sweep_run"] == 1

    def test_loop_sweep_dispatches_per_electron(self):
        drv = use_loop_sweep(_driver())
        with patched_singleton() as counter:
            drv.sweep()
        assert counter.calls["sweep_run"] == 0
        assert counter.dispatches >= 10 * drv.n

    def test_patch_is_undone(self):
        with patched_singleton():
            pass
        assert not vars(get_backend())

    def test_scalar_functor_call_site(self):
        from repro.jastrow.functor import BsplineFunctor
        f = BsplineFunctor.from_shape(rcut=2.0, cusp=-0.25)
        r = np.linspace(0.1, 2.5, 7)
        with patched_singleton() as counter:
            f.evaluate_v(r)
            f.evaluate_vgl(r)
        assert counter.calls["functor_v"] == 1
        assert counter.calls["functor_vgl"] == 1

    def test_scalar_table_row_call_sites(self):
        """The per-walker SoA tables are W = 1 callers of the row
        kernels: an OTF AA move is the ``set_active`` refresh plus the
        proposed row."""
        P, _, _ = JastrowSystemSpec(n=8, seed=3).build_scalar()
        aa, ab = P.distance_tables
        rnew = P.R[2] + 0.2
        with patched_singleton() as counter:
            P.set_active(2)
            aa.move(P, rnew, 2)
            ab.move(P, rnew, 2)
        assert counter.calls["aa_row"] == 2
        assert counter.calls["ab_row"] == 1
        assert counter.dispatches == 3

    def test_scalar_determinant_call_site(self):
        from repro.determinant.dirac import DiracDeterminant
        from repro.lattice.cell import CrystalLattice
        from repro.particles.particleset import ParticleSet
        from repro.spo.sposet import PlaneWaveSPOSet
        rng = np.random.default_rng(4)
        lat = CrystalLattice.cubic(6.0)
        P = ParticleSet("e", rng.uniform(0, 6, (8, 3)), lat)
        det = DiracDeterminant(PlaneWaveSPOSet(lat, 8), 0, 8)
        det.recompute(P)
        P.make_move(2, P.R[2] + 0.2)
        with patched_singleton() as counter:
            det.ratio(P, 2)
        assert counter.calls["det_ratio"] == 1


@pytest.mark.skipif(
    sanitizers_enabled(),
    reason="the armed brute-force checks legitimately use the AoS oracle")
class TestNoAosMinimumImageInCurrentSweep:
    """Every Current-flavour distance row goes through the SoA minimum
    image; ``min_image_disp`` is left to the Ref flavours, the cold
    Hamiltonian terms and ``ratio_at``."""

    @pytest.fixture(autouse=True)
    def _aos_raises(self, monkeypatch):
        def raise_(self, dr):
            raise AssertionError("AoS min_image_disp inside a sweep")
        monkeypatch.setattr(CrystalLattice, "min_image_disp", raise_)

    @pytest.mark.parametrize("flavor", ["soa", "otf"])
    def test_batched_sweep(self, flavor):
        drv = BatchedCrowdDriver(
            JastrowSystemSpec(n=8, seed=3, aa_flavor=flavor), 3, 11)
        assert drv.sweep() > 0

    def test_scalar_sweep(self):
        P, twf, ham = JastrowSystemSpec(n=8, seed=3).build_scalar()
        twf.evaluate_log(P)
        drv = VMCDriver(P, twf, ham, np.random.default_rng(5))
        assert drv.sweep() > 0


class TestDriverIntegration:
    def test_driver_backend_override_reproduces_default(self):
        """A delegating proxy substituted through ``use_backend`` sees
        the run and leaves it bitwise the default path."""
        a = _driver()
        a.run(2)
        b = _driver()
        proxy = _Proxy()
        with use_backend(proxy):
            b.run(2)
        assert proxy.counter.calls["sweep_run"] == 2
        assert np.array_equal(a.batch.R, b.batch.R)
        assert np.array_equal(a.batch.local_energy, b.batch.local_energy)

    def test_driver_has_no_backend_parameter(self):
        with pytest.raises(TypeError):
            BatchedCrowdDriver(JastrowSystemSpec(n=8, seed=3), 2, 1,
                               backend="numpy")
