"""Precision policy objects threading dtype choices through every kernel."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PrecisionPolicy:
    """Bundle of dtypes + recompute cadence for one build configuration.

    Attributes
    ----------
    name:
        Human-readable label ("full" / "mixed").
    value_dtype:
        Element type of the hot data structures — positions, distance
        tables, Jastrow values, spline coefficients, determinant inverse.
    accum_dtype:
        Type used for per-walker and ensemble accumulation — log|Psi|,
        local energy, running averages.  Always float64, matching the
        paper's "quantities per walker and for the ensemble are computed
        in double precision".
    recompute_period:
        Every this many Monte Carlo generations, walker state (determinant
        inverses, Jastrow sums) is recomputed from scratch in
        ``accum_dtype`` to bound the drift of single-precision updates.
    """

    name: str
    value_dtype: np.dtype = field(default=np.dtype(np.float64))
    accum_dtype: np.dtype = field(default=np.dtype(np.float64))
    recompute_period: int = 0  # 0 = never

    def __post_init__(self):
        object.__setattr__(self, "value_dtype", np.dtype(self.value_dtype))
        object.__setattr__(self, "accum_dtype", np.dtype(self.accum_dtype))
        if self.recompute_period < 0:
            raise ValueError("recompute_period must be >= 0")

    @property
    def is_mixed(self) -> bool:
        return self.value_dtype != self.accum_dtype

    def should_recompute(self, generation: int) -> bool:
        """True when generation index triggers a from-scratch recompute."""
        if self.recompute_period <= 0:
            return False
        return generation > 0 and generation % self.recompute_period == 0


#: Default element type of SoA containers and tables when no policy is
#: threaded to a constructor.  Kernels must not hard-code this — they take
#: a ``dtype``/policy argument and :func:`resolve_value_dtype` it.
DEFAULT_VALUE_DTYPE = np.dtype(np.float64)


def resolve_value_dtype(dtype_or_policy, default=None) -> np.dtype:
    """Map a dtype-like, a :class:`PrecisionPolicy`, or ``None`` to a dtype.

    This is the single funnel through which hot containers and kernels
    resolve their element type, so call sites can pass a policy object
    directly (``VectorSoaContainer(n, 3, dtype=MIXED)``) and ``None``
    means "the default" without every signature hard-coding ``float64``.
    """
    if dtype_or_policy is None:
        return DEFAULT_VALUE_DTYPE if default is None else np.dtype(default)
    if isinstance(dtype_or_policy, PrecisionPolicy):
        return dtype_or_policy.value_dtype
    return np.dtype(dtype_or_policy)


#: Double precision everywhere — the paper's baseline ``QMC_MIXED_PRECISION=0``.
FULL = PrecisionPolicy("full", np.float64, np.float64, recompute_period=0)

#: Expanded single precision with periodic double-precision recompute —
#: the paper's ``QMC_MIXED_PRECISION=1`` plus Sec. 7.2 extensions.
MIXED = PrecisionPolicy("mixed", np.float32, np.float64, recompute_period=16)
