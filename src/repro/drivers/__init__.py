"""Monte Carlo drivers implementing Alg. 1.

:class:`VMCDriver` and :class:`DMCDriver` run particle-by-particle
drift-diffusion sweeps over a population of walkers, exchanging walker
state with the per-"thread" compute objects (ParticleSet +
TrialWaveFunction) through the anonymous walker buffers, exactly like
the pseudo-code of Fig. 4.  DMC adds weighting, branching and
trial-energy feedback (Alg. 1, L13-L14).

Figure of merit: ``throughput = steps * <Nw> / T_CPU`` — the number of
Monte Carlo samples generated per second (Sec. 6.2).
"""

from repro.drivers.result import QMCResult
from repro.drivers.vmc import VMCDriver
from repro.drivers.dmc import DMCDriver

__all__ = ["QMCResult", "VMCDriver", "DMCDriver"]
