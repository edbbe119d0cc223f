"""Divergence-conforming HDG solver for generalized Stokes and linear elasticity.

The pipeline: build a triangulation (`mesh`), construct the hierarchical H(div)
basis and DOF maps (`refbasis`, `spaces`), assemble the saddle-point system
(`assembly`), condense out the element-local unknowns (`condense`), build the
block-diagonal preconditioner (`precond`), and solve with MINRES (`krylov`).
`bench` drives parameter sweeps and `verify` runs the dense certification
checks behind the main spectral-equivalence claims.
"""

from .assembly import (
    BlockSystem,
    ProblemParams,
    assemble_local_stacks,
    assemble_pressure_ops,
    assemble_saddle,
)
from .bench import BenchRow, ExperimentGrid, emit, parse_csv, run_grid
from .condense import (
    CondensedSystem,
    back_substitute,
    build_condensed_monolithic,
    build_monolithic,
    eliminate_local,
)
from .krylov import (
    SolveReport,
    minres,
    operator_condensed,
    pressure_mean_projector,
    solve_condensed,
)
from .linalg import (
    CapExceeded,
    NotSPD,
    SparseSym,
    SpdFactor,
    factor_spd,
    gen_condition,
)
from .mesh import (
    Mesh,
    step_domain,
    uniform_refine,
    unit_square,
)
from .precond import (
    AspPrecond,
    SchurPrecond,
    build_asp,
    build_schur,
    materialize_schur_dense,
)
from .refbasis import FacetBasis, ReferenceBasis, build_reference_bdm, map_piola
from .spaces import (
    DofMap,
    EssentialData,
    SpaceSplit,
    Spaces,
    build_spaces,
    interpolate_essential,
)
from .verify import run_verification

__all__ = [
    "AspPrecond",
    "BenchRow",
    "BlockSystem",
    "CapExceeded",
    "CondensedSystem",
    "DofMap",
    "EssentialData",
    "ExperimentGrid",
    "FacetBasis",
    "Mesh",
    "NotSPD",
    "ProblemParams",
    "ReferenceBasis",
    "SchurPrecond",
    "SolveReport",
    "SpaceSplit",
    "Spaces",
    "SparseSym",
    "SpdFactor",
    "assemble_local_stacks",
    "assemble_pressure_ops",
    "assemble_saddle",
    "back_substitute",
    "build_asp",
    "build_condensed_monolithic",
    "build_monolithic",
    "build_reference_bdm",
    "build_schur",
    "build_spaces",
    "eliminate_local",
    "emit",
    "factor_spd",
    "gen_condition",
    "interpolate_essential",
    "map_piola",
    "materialize_schur_dense",
    "minres",
    "operator_condensed",
    "parse_csv",
    "pressure_mean_projector",
    "run_grid",
    "run_verification",
    "solve_condensed",
    "step_domain",
    "uniform_refine",
    "unit_square",
]

__version__ = "0.1.0"
