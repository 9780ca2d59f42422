"""Numerical laboratory for decay rates of strip-damped waves.

The damping vanishes like a power of the distance to an undamped strip;
matched half-line solutions of a complex absorbing potential produce
quasimodes whose frequencies pin the possible energy decay rates, and direct
resolvent and time-domain measurements bracket them from the other side.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    BC_DIRICHLET,
    CutoffFunction,
    DampingProfile,
    RunConfig,
    UniformDamping,
    select_h,
)
