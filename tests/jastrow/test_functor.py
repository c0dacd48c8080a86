"""Tests for the cutoff B-spline Jastrow functor."""

import numpy as np
import pytest

from repro.jastrow.functor import BsplineFunctor


class TestShape:
    def test_cusp_condition(self):
        f = BsplineFunctor.from_shape(3.0, cusp=-0.5, decay=1.0)
        eps = 1e-6
        d0 = (f.evaluate_v(np.array([eps]))[0]
              - f.evaluate_v(np.array([0.0]))[0]) / eps
        assert d0 == pytest.approx(-0.5, abs=1e-3)

    def test_zero_at_cutoff(self):
        f = BsplineFunctor.from_shape(3.0, cusp=-0.25)
        r = np.array([2.999999, 3.0, 3.5, 100.0])
        v = f.evaluate_v(r)
        assert abs(v[0]) < 1e-5
        assert np.all(v[1:] == 0.0)

    def test_smooth_at_cutoff(self):
        """u'(rcut-) ~ 0 so the functor switches off without a kink."""
        f = BsplineFunctor.from_shape(3.0, cusp=-0.5)
        _, du, _ = f.evaluate_vgl(np.array([2.9999]))
        assert abs(du[0]) < 1e-3

    def test_amplitude_mode(self):
        f = BsplineFunctor.from_shape(2.5, cusp=0.0, amplitude=-0.6,
                                      decay=0.8)
        assert f.evaluate_v(np.array([0.0]))[0] == pytest.approx(-0.6,
                                                                 abs=1e-6)

    def test_monotone_decay_magnitude(self):
        f = BsplineFunctor.from_shape(3.0, cusp=-0.5, decay=1.0)
        r = np.linspace(0, 2.9, 30)
        v = f.evaluate_v(r)
        assert np.all(np.diff(np.abs(v)) <= 1e-9)

    def test_bad_rcut_raises(self):
        from repro.splines.cubic1d import CubicBSpline1D
        sp = CubicBSpline1D(0, 1, np.zeros(8))
        with pytest.raises(ValueError):
            BsplineFunctor(sp, rcut=-1.0)

    @pytest.mark.parametrize("rcut", [0.9, 1.1])
    def test_rcut_off_the_spline_end_raises(self, rcut):
        """The kernels encode the cutoff as the zero tail interval past
        x1, so a cutoff anywhere else is refused."""
        from repro.splines.cubic1d import CubicBSpline1D
        sp = CubicBSpline1D(0, 1, np.zeros(8))
        with pytest.raises(ValueError, match="x1"):
            BsplineFunctor(sp, rcut=rcut)
        assert BsplineFunctor(sp, rcut=1).rcut == sp.x1


class TestEvaluation:
    @pytest.fixture
    def functor(self):
        return BsplineFunctor.from_shape(2.5, cusp=-0.5, decay=1.0)

    def test_scalar_matches_vector(self, functor):
        for r in [0.0, 0.5, 1.7, 2.4999, 2.5, 3.0]:
            assert functor.evaluate_v_scalar(r) == pytest.approx(
                functor.evaluate_v(np.array([r]))[0], abs=1e-13)
            s = functor.evaluate_vgl_scalar(r)
            v = [a[0] for a in functor.evaluate_vgl(np.array([r]))]
            assert np.allclose(s, v, atol=1e-12)

    def test_vgl_zero_beyond_cutoff(self, functor):
        u, du, d2u = functor.evaluate_vgl(np.array([2.5, 5.0, 1e30]))
        assert np.all(u == 0) and np.all(du == 0) and np.all(d2u == 0)

    def test_vgl_derivative_fd(self, functor):
        r = np.linspace(0.1, 2.3, 9)
        u, du, d2u = functor.evaluate_vgl(r)
        eps = 1e-6
        fd = (functor.evaluate_v(r + eps) - functor.evaluate_v(r - eps)) \
            / (2 * eps)
        assert np.allclose(du, fd, atol=1e-5)

    def test_curve_for_fig3(self, functor):
        r, u = functor.curve(51)
        assert r.shape == u.shape == (51,)
        assert r[0] == 0.0 and r[-1] == functor.rcut
        assert u[-1] == pytest.approx(0.0, abs=1e-6)

