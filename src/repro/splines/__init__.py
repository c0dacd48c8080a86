"""B-spline machinery.

Two spline families underpin the whole wavefunction, as in QMCPACK:

* :class:`CubicBSpline1D` — one-dimensional cubic B-splines on a uniform
  grid, the basis of the Jastrow functors (Fig. 3).  Scalar and
  vectorized evaluation paths mirror the Ref and Current kernels.
* :class:`BSpline3D` — periodic tricubic B-splines over the simulation
  cell holding all single-particle orbitals in one coefficient table
  (einspline's ``multi_UBspline`` equivalent).  The *multi* evaluation
  (all orbitals per point, orbital index contiguous) is the SoA path;
  the per-orbital loop is the reference path.  Tables can be float32
  (the paper's single-precision SPOs) or float64.
"""

from repro.splines.cubic1d import CubicBSpline1D
from repro.splines.bspline3d import BSpline3D
from repro.splines.slab import SharedCoefSlab, SlabDescriptor
from repro.splines.tiled import TiledBSpline3D

__all__ = ["CubicBSpline1D", "BSpline3D", "TiledBSpline3D",
           "SharedCoefSlab", "SlabDescriptor"]
