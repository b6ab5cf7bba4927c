"""Exact smoothness and tangent-sheaf local-freeness checks for cones and fans.

The root exports a cone and the two deciders with their agreement check;
everything else is imported from its module (README, "Library use").
"""

__version__ = "0.1.0"

from .cones import Cone
from .klyachko import decide_tangent_locally_free
from .smoothness import is_smooth_cone
from .verifier import check_zariski_lipman

__all__ = ["Cone", "check_zariski_lipman", "decide_tangent_locally_free", "is_smooth_cone"]
