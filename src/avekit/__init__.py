"""avekit: solvers and analysis for absolute value equations z - A|z| = b."""

from .analysis import (
    ConditionProfile,
    condition_profile,
    det_positive_all_signatures,
    inverse_is_sdd_positive_diag,
    is_irreducible,
    is_strictly_diag_dominant,
    is_tridiag_abs_symmetric,
    neq_set,
    rho_sr_bisect,
    rho_sr_enum,
    signature_of,
)
from .errors import (
    AvekitError,
    DimensionTooLarge,
    GenerationFailed,
    NotUnique,
    PivotBreakdown,
    SingularMatrix,
    SingularTransform,
)
from .linalg import (
    LuFactorization,
    infinity_norm,
    lu_factor,
    lu_solve,
    one_norm,
)
from .newton import NewtonTrace, newton_solve
from .oracle import OracleResult, enumerate_solutions, unique_solution
from .problems import (
    AveProblem,
    EquilibriumProblem,
    from_equilibrium,
    from_solution,
    gen_class,
    inflated_identity,
    newton_cycle_instance,
    random_instance,
    residual,
    sge_trap_instance,
)
from .report import SolveReport, Status
from .sge import EliminationRecord, sge_solve

__version__ = "0.1.0"

__all__ = [
    "AveProblem",
    "AvekitError",
    "ConditionProfile",
    "DimensionTooLarge",
    "EliminationRecord",
    "EquilibriumProblem",
    "GenerationFailed",
    "LuFactorization",
    "NewtonTrace",
    "NotUnique",
    "OracleResult",
    "PivotBreakdown",
    "SingularMatrix",
    "SingularTransform",
    "SolveReport",
    "Status",
    "condition_profile",
    "det_positive_all_signatures",
    "enumerate_solutions",
    "from_equilibrium",
    "from_solution",
    "gen_class",
    "infinity_norm",
    "inflated_identity",
    "inverse_is_sdd_positive_diag",
    "is_irreducible",
    "is_strictly_diag_dominant",
    "is_tridiag_abs_symmetric",
    "lu_factor",
    "lu_solve",
    "neq_set",
    "newton_cycle_instance",
    "newton_solve",
    "one_norm",
    "random_instance",
    "residual",
    "rho_sr_bisect",
    "rho_sr_enum",
    "sge_solve",
    "sge_trap_instance",
    "signature_of",
    "unique_solution",
]
