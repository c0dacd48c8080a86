"""Oracle for the compute-on-the-fly AA table: a crowd built with
``aa_flavor="otf"`` runs the same Metropolis walk and measures the same
energies as one built with ``aa_flavor="soa"``, bit for bit.

Both tables serve rows of the same row/pair kernels (one minimum-image
body), and every reduction over them keeps its order, so whatever the
OTF table stores, the per-walker local energies, weights and
Hamiltonian components of every generation must be identical — VMC and
DMC on the crowd driver, with and without NLPP.
"""

import numpy as np
import pytest

from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
from repro.output.stream import StreamSet

N = 32
W = 8
GENERATIONS = 4
SPEC_SEED = 21
MASTER_SEED = 7


class _Recorder(StreamSet):
    """In-memory stream that keeps a copy of every generation's row."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def record(self, step, local_energy, weights=None, components=None):
        self.rows.append(
            (step, np.array(local_energy), np.array(weights),
             {name: np.array(v) for name, v in (components or {}).items()}))
        super().record(step, local_energy, weights, components)


def _rows(flavor, mode, with_nlpp):
    spec = JastrowSystemSpec(n=N, seed=SPEC_SEED, aa_flavor=flavor,
                             with_nlpp=with_nlpp)
    streams = _Recorder()
    BatchedCrowdDriver(spec, W, MASTER_SEED, timestep=0.3).run(
        GENERATIONS, mode=mode, streams=streams)
    return streams.rows


@pytest.mark.parametrize("with_nlpp", [False, True], ids=["plain", "nlpp"])
@pytest.mark.parametrize("mode", ["vmc", "dmc"])
def test_otf_crowd_equals_soa_crowd_bitwise(mode, with_nlpp):
    soa = _rows("soa", mode, with_nlpp)
    otf = _rows("otf", mode, with_nlpp)
    assert len(soa) == len(otf) == GENERATIONS
    for (step, el, w, comps), (step_o, el_o, w_o, comps_o) in zip(soa, otf):
        assert step == step_o
        assert el.tobytes() == el_o.tobytes(), f"E_L, generation {step}"
        assert w.tobytes() == w_o.tobytes(), f"weights, generation {step}"
        assert sorted(comps) == sorted(comps_o)
        for name in comps:
            assert comps[name].tobytes() == comps_o[name].tobytes(), \
                f"{name}, generation {step}"
