"""Well-posed boundary conditions for 2-D linear symmetric hyperbolic
systems on a rectangle.

A single real congruence splits the system into scalar hyperbolic modes and
2x2 elliptic modes; sign tables assign each mode its admissible homogeneous
boundary conditions; a first-order upwind simulator runs the system, and a
battery of certificates computed from it checks the energy bounds.
"""

from . import apps, congruence, linalg, modes, operators, solver
from .congruence import (ModeDecomposition, SymmetricPair, TypeIIMode,
                         TypeIMode, simultaneous_diagonalize)
from .modes import (Side, assemble_system_bcs, synthesize_bc_type1,
                    synthesize_bc_type2)
from .operators import RectGrid, StateField
from .solver import IVPConfig, run

__all__ = [
    "apps", "congruence", "linalg", "modes", "operators", "solver",
    "ModeDecomposition", "SymmetricPair", "TypeIIMode", "TypeIMode",
    "simultaneous_diagonalize", "Side", "assemble_system_bcs",
    "synthesize_bc_type1", "synthesize_bc_type2", "RectGrid", "StateField",
    "IVPConfig", "run",
]

__version__ = "0.1.0"
