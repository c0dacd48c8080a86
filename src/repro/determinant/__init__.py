"""Slater determinants and their rank-1 / delayed inverse updates.

:class:`DiracDeterminant` implements the PbyP determinant algebra of
Sec. 3: ratios via the matrix determinant lemma (Eq. 6), acceptance via
the Sherman-Morrison rank-1 inverse update (the ``DetUpdate`` kernel),
and gradient ratios from the same inverse.  Mixed precision stores the
inverse in float32 with periodic double-precision recomputation from
scratch (Sec. 7.2 / [13]).

:class:`DelayedUpdateEngine` is the Sec. 8.4 future-work scheme: group
up to ``delay`` accepted rows and apply them in one Woodbury block
update, trading BLAS2 for BLAS3.
"""

from repro.determinant.dirac import DiracDeterminant
from repro.determinant.delayed import DelayedUpdateEngine
from repro.determinant.dirac_delayed import DiracDeterminantDelayed

__all__ = ["DiracDeterminant", "DelayedUpdateEngine",
           "DiracDeterminantDelayed"]
