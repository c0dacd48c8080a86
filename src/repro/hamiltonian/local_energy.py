"""The full Hamiltonian: sums its terms into the local energy."""

from __future__ import annotations

from typing import Dict, List



class Hamiltonian:
    """Container of Hamiltonian terms; evaluates E_L for a configuration.

    Precondition: the ParticleSet's distance tables are up to date and
    ``twf.evaluate_gl`` (or ``evaluate_log``) has filled P.G / P.L.
    """

    def __init__(self, terms: List):
        if not terms:
            raise ValueError("need at least one Hamiltonian term")
        self.terms = list(terms)
        self.last_components: Dict[str, float] = {}

    def evaluate(self, P, twf) -> float:
        total = 0.0
        comps = {}
        for term in self.terms:
            v = term.evaluate(P, twf)
            comps[term.name] = v
            total += v
        self.last_components = comps
        return total
