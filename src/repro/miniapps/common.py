"""Shared miniapp scaffolding: synthetic systems, results and the CLI
parser."""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet


@dataclass
class MiniappResult:
    """Timings (seconds) per variant plus metadata."""

    name: str
    params: Dict
    seconds: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, float] = field(default_factory=dict)

    def speedup(self, ref: str, cur: str) -> float:
        return self.seconds[ref] / self.seconds[cur] \
            if self.seconds.get(cur) else float("nan")

    def format_table(self) -> str:
        lines = [f"{self.name}  {self.params}"]
        base = max(self.seconds.values()) if self.seconds else 1.0
        for k, v in self.seconds.items():
            lines.append(f"  {k:<18s} {v:9.4f} s   x{base / v:6.2f}")
        return "\n".join(lines)


def make_electron_system(n: int, a: float | None = None, seed: int = 7):
    """A cubic cell of n electrons at metallic density plus n/8 ions."""
    if a is None:
        a = (n * 8.0) ** (1.0 / 3.0)  # ~8 bohr^3 per electron
    rng = np.random.default_rng(seed)
    lat = CrystalLattice.cubic(a)
    e_species = SpeciesSet.electrons()
    e_ids = np.array([0] * (n // 2) + [1] * (n - n // 2))
    electrons = ParticleSet("e", rng.uniform(0, a, (n, 3)), lat,
                            e_species, e_ids)
    nion = max(2, n // 8)
    ion_species = SpeciesSet()
    ion_species.add("X", charge=float(n) / nion)
    ions = ParticleSet("ion0", rng.uniform(0, a, (nion, 3)), lat,
                       ion_species, np.zeros(nion, dtype=np.int64))
    return lat, electrons, ions, rng


def base_parser(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("-n", "--nelectrons", type=int, default=128,
                   help="number of electrons (default 128)")
    p.add_argument("-s", "--steps", type=int, default=5,
                   help="PbyP sweeps to run (default 5)")
    p.add_argument("--seed", type=int, default=7)
    return p
