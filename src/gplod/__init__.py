"""Ground states of the Gross-Pitaevskii equation in LOD spaces.

The library builds two-level triangulations of rectangles, assembles P1
finite-element operators, constructs ideal localized-orthogonal-decomposition
(LOD) trial spaces from one SPD factorization and a Schur complement on the
coarse space, minimizes the
Gross-Pitaevskii energy on the unit L2 sphere with a normalized gradient
flow, and runs convergence-rate studies against fine-mesh references.
"""

__version__ = "0.1.0"

from .mesh import Rect, TriMesh, MeshHierarchy, uniform_mesh, refine, build_hierarchy
from .fem_core import Potential, QuadRule, FeOperators, assemble_operators
from .lod_space import LodSpace, build_constraint, compute_correctors
from .gpe_minimizer import DiscreteSpace, FlowParams, GroundState, minimize
from .convergence_study import StudyConfig, StudyResult, run_study, fit_rate

__all__ = [
    "Rect",
    "TriMesh",
    "MeshHierarchy",
    "uniform_mesh",
    "refine",
    "build_hierarchy",
    "Potential",
    "QuadRule",
    "FeOperators",
    "assemble_operators",
    "LodSpace",
    "build_constraint",
    "compute_correctors",
    "DiscreteSpace",
    "FlowParams",
    "GroundState",
    "minimize",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "fit_rate",
]
