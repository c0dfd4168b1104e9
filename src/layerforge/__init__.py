"""layerforge: interior-layer asymptotics for bistable reaction-diffusion
two-point boundary value problems.

Builds the second-order matched expansion of the solution that switches
between the stable reduced roots across an interior layer, the signed
perturbations used for solution bracketing, and the numerical verification
harness (residual orders, derivative-jump sweeps, decay fits, and an
independent finite-difference oracle).
"""

from .errors import ArgumentError, InputError, LayerforgeError
from .expr import DomainError, ParseError
from .quadrature import QuadratureFailed
from .problem import (AssumptionReport, ProblemError, ProblemSpec,
                      builtin_problem, check_assumptions, load_problem,
                      resolve_problem)
from .locator import (DegenerateRoot, LayerLocation, NoSignChange,
                      WrongOrientation, integral_I, locate_t0)
from .kink import (AnchorOutOfRange, KinkProfile, PotentialNegative,
                   ProfileIntegrationFailed, build_kink)
from .corrections import (CorrectionTerm, LayerAuxiliary, NonDecayingSource,
                          WeightUnderflow, build_terms, build_v1, build_v2,
                          build_vstar, build_z, compute_matching,
                          locate_and_match, make_auxiliary, solve_jump)
from .expansion import (Expansion, PerturbedExpansion, build_expansion,
                        build_perturbed, estimate_C0)
from .solver import (Mesh, MeshSolution, NoConvergence, SingularJacobian,
                     build_mesh, compare, newton_solve, solve_jump_fd_numerov)
from .verify import (AllZeros, SweepReport, decay_fit, fbeta_check,
                     monotonicity_check, residual_sweep, solver_convergence,
                     truncation_check)

__version__ = "0.1.0"

__all__ = [
    "LayerforgeError", "InputError", "ArgumentError", "DomainError",
    "ParseError", "QuadratureFailed",
    "AssumptionReport", "ProblemError", "ProblemSpec", "builtin_problem",
    "check_assumptions", "load_problem", "resolve_problem",
    "DegenerateRoot", "LayerLocation", "NoSignChange", "WrongOrientation",
    "integral_I", "locate_t0",
    "AnchorOutOfRange", "KinkProfile", "PotentialNegative",
    "ProfileIntegrationFailed", "build_kink",
    "CorrectionTerm", "LayerAuxiliary", "NonDecayingSource",
    "WeightUnderflow", "build_terms",
    "build_v1", "build_v2", "build_vstar", "build_z", "compute_matching",
    "locate_and_match", "make_auxiliary", "solve_jump",
    "Expansion", "PerturbedExpansion", "build_expansion", "build_perturbed",
    "estimate_C0",
    "Mesh", "MeshSolution", "NoConvergence", "SingularJacobian", "build_mesh",
    "compare", "newton_solve", "solve_jump_fd_numerov",
    "AllZeros", "SweepReport", "decay_fit", "fbeta_check",
    "monotonicity_check", "residual_sweep", "solver_convergence",
    "truncation_check",
    "__version__",
]
