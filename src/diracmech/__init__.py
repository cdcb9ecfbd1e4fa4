"""Mechanics on Dirac algebroids.

The package represents skew/Lie algebroids through anchor and structure
functions, linear (almost) Dirac structures on the dual bundle in several
concrete forms, induction of new structures by nonholonomic constraints,
and the implicit Euler-Lagrange / Hamilton residual systems they generate,
together with an integrator whose rate solve is one exact linear solve per
evaluation, and invariant monitors.
"""

from .algebroid import Chart, Section, SkewAlgebroid, basis_sections
from .constraints import (
    AffineConstraint,
    IntegrabilityReport,
    LinearConstraint,
    check_integrability,
    induce,
    pointwise_induce,
)
from .dirac import (
    CanonicalDirac,
    DiracAlgebroid,
    GeneralLocalDirac,
    OmegaGraphDirac,
    PiGraphDirac,
    PontryaginPoint,
    TimeExtendedDirac,
    VelocityPair,
    pairing,
)
from .dynamics import (
    ControlSystem,
    Hamiltonian,
    Lagrangian,
    el_residual,
    hamilton_residual,
    invert_vertical_derivative,
    legendre_transform,
    nonholonomic_el_residual,
    pmp_residual,
)
from .errors import (
    BasePointMismatchError,
    ConstraintError,
    DegenerateDynamicsError,
    DiracMechError,
    EvaluationError,
    HyperregularityError,
    InitializationError,
    ScenarioError,
    SolverError,
    StructureError,
)
from .problems import hamiltonian_problem, lagrangian_problem, pmp_problem
from .solver import (
    ImplicitProblem,
    Trajectory,
    admissibility_report,
    integrate,
    project_initial,
    solve_rate,
)

__version__ = "0.1.0"

__all__ = [
    "AffineConstraint",
    "BasePointMismatchError",
    "CanonicalDirac",
    "Chart",
    "ConstraintError",
    "ControlSystem",
    "DegenerateDynamicsError",
    "DiracAlgebroid",
    "DiracMechError",
    "EvaluationError",
    "GeneralLocalDirac",
    "Hamiltonian",
    "HyperregularityError",
    "ImplicitProblem",
    "InitializationError",
    "IntegrabilityReport",
    "Lagrangian",
    "LinearConstraint",
    "OmegaGraphDirac",
    "PiGraphDirac",
    "PontryaginPoint",
    "ScenarioError",
    "Section",
    "SkewAlgebroid",
    "SolverError",
    "StructureError",
    "TimeExtendedDirac",
    "Trajectory",
    "VelocityPair",
    "admissibility_report",
    "basis_sections",
    "check_integrability",
    "el_residual",
    "hamilton_residual",
    "hamiltonian_problem",
    "induce",
    "integrate",
    "invert_vertical_derivative",
    "lagrangian_problem",
    "legendre_transform",
    "nonholonomic_el_residual",
    "pairing",
    "pmp_problem",
    "pmp_residual",
    "pointwise_induce",
    "project_initial",
    "solve_rate",
]
