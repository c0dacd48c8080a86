"""Symmetry/invariance property tests for the NLPP quadrature."""

import numpy as np
import pytest

from repro.hamiltonian.nlpp import sphere_quadrature


class TestQuadratureInvariances:
    @pytest.mark.parametrize("npts", [6, 12])
    def test_rotation_invariance_of_p2_integral(self, npts):
        """sum w P_2(u.r_q) is rotation invariant for the exact rules."""
        dirs, w = sphere_quadrature(npts)
        rng = np.random.default_rng(4)
        vals = []
        for _ in range(5):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            x = dirs @ u
            vals.append(float(np.sum(w * (1.5 * x * x - 0.5))))
        assert np.allclose(vals, vals[0], atol=1e-12)
