"""Statistical validation: the VMC drivers really sample |Psi|^2.

A single electron in a periodic box with the nodeless orbital
phi(r) = 2 + cos(2 pi x / L) has |Psi(r)|^2 ~ phi(r)^2, which factorizes:
the x-marginal is (2 + cos(2 pi x/L))^2 / (4.5 L), and y, z are uniform.
Long Metropolis runs (with and without drift) must reproduce that
distribution — this closes the loop on the whole move/ratio/accept
machinery, not just its algebra.
"""

import numpy as np
import pytest

from repro.determinant.dirac import DiracDeterminant
from repro.drivers.vmc import VMCDriver
from repro.hamiltonian.local_energy import Hamiltonian
from repro.hamiltonian.terms import KineticEnergy
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.wavefunction.trialwf import TrialWaveFunction

L = 4.0


class NodelessSPO:
    """One smooth strictly-positive orbital: phi = 2 + cos(2 pi x / L)."""

    norb = 1

    def evaluate_v(self, r):
        return np.array([2.0 + np.cos(2 * np.pi * r[0] / L)])

    def evaluate_vgl(self, r):
        k = 2 * np.pi / L
        c = np.cos(k * r[0])
        s = np.sin(k * r[0])
        v = np.array([2.0 + c])
        g = np.array([[-k * s, 0.0, 0.0]])
        lap = np.array([-k * k * c])
        return v, g, lap


def _run_chain(use_drift: bool, steps: int, seed: int) -> np.ndarray:
    lat = CrystalLattice.cubic(L)
    P = ParticleSet("e", np.array([[1.0, 1.0, 1.0]]), lat)
    spo = NodelessSPO()
    twf = TrialWaveFunction([DiracDeterminant(spo, 0, 1)])
    ham = Hamiltonian([KineticEnergy()])
    drv = VMCDriver(P, twf, ham, np.random.default_rng(seed),
                    timestep=0.5, use_drift=use_drift)
    twf.evaluate_log(P)
    xs = np.empty(steps)
    for i in range(steps):
        drv.sweep()
        xs[i] = lat.wrap(P.R)[0, 0]
    return xs


def _expected_cdf(x):
    """CDF of p(x) = (2 + cos(2 pi x/L))^2 / (4.5 L) on [0, L]."""
    k = 2 * np.pi / L
    # integral of (4 + 4 cos + cos^2) = 4x + 4 sin/k + x/2 + sin(2kx)/(4k)
    f = 4.0 * x + 4.0 * np.sin(k * x) / k + 0.5 * x \
        + np.sin(2 * k * x) / (4 * k)
    return f / (4.5 * L)


@pytest.mark.parametrize("use_drift", [False, True],
                         ids=["metropolis", "drift-diffusion"])
@pytest.mark.slow
def test_vmc_samples_psi_squared(use_drift):
    xs = _run_chain(use_drift, steps=6000, seed=11)
    xs = xs[500:]  # discard warmup
    # Kolmogorov-Smirnov against the analytic CDF.
    xs_sorted = np.sort(xs)
    n = xs_sorted.size
    emp = (np.arange(1, n + 1)) / n
    ks = float(np.max(np.abs(emp - _expected_cdf(xs_sorted))))
    # Correlated samples: use an effective-n KS threshold.
    from repro.stats.series import autocorrelation_time
    neff = n / autocorrelation_time(xs)
    threshold = 1.63 / np.sqrt(neff)  # alpha = 0.01
    assert ks < threshold, (ks, threshold, neff)


def test_yz_marginals_uniform():
    lat = CrystalLattice.cubic(L)
    P = ParticleSet("e", np.array([[1.0, 1.0, 1.0]]), lat)
    twf = TrialWaveFunction([DiracDeterminant(NodelessSPO(), 0, 1)])
    ham = Hamiltonian([KineticEnergy()])
    drv = VMCDriver(P, twf, ham, np.random.default_rng(3), timestep=0.5,
                    use_drift=False)
    twf.evaluate_log(P)
    ys = np.empty(4000)
    for i in range(4000):
        drv.sweep()
        ys[i] = lat.wrap(P.R)[0, 1]
    ys = ys[400:]
    # Uniform on [0, L): mean L/2, variance L^2/12.
    assert np.mean(ys) == pytest.approx(L / 2, abs=0.15)
    assert np.var(ys) == pytest.approx(L ** 2 / 12, rel=0.15)
