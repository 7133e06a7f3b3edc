"""Solvers and moving-plane diagnostics for coupled Hessian-determinant equations.

The package solves systems det D^2 u_i = f_i(x, u, grad u_i) with
constant Dirichlet data on bounded convex plane domains, both through a
radial quadrature reduction on balls and through a monotone wide-stencil
finite-difference scheme, and then certifies the qualitative structure
of the solutions (cap monotonicity, mirror symmetry, elliptic
inequalities of reflected differences) numerically.
"""

from .domains import (
    Ball,
    ConvexityError,
    CriticalPlanes,
    Domain,
    Ellipse,
    GeometryError,
    SmoothLevelSet,
    Tube,
    check_convex_in_direction,
    critical_planes,
    domain_from_json,
    domain_to_json,
    reflect_point,
)
from .expressions import Expr, ExpressionDomainError, ExpressionError, const, parse, var
from .gridsolve import (
    FdParams,
    GridSolution,
    StencilGrid,
    ma_operator_discrete,
    read_solution_binary,
    solve_scalar_fd,
    solve_system_fd,
    stencil_directions,
    write_solution_binary,
    write_solution_csv,
)
from .movingplane import (
    LinearizationFields,
    MovingPlaneFrame,
    MovingPlaneReport,
    boundary_checks,
    build_frame,
    certify_monotonicity,
    certify_symmetry,
    lambda_sweep,
    linearize,
    verify_elliptic_inequality,
    write_heatmap_svg,
)
from .radial import (
    NoSolution,
    RadialProfile,
    SolverDivergence,
    UniquenessReport,
    radial_ma_operator,
    solve_coupled_radial,
    solve_scalar_radial,
    uniqueness_probe,
)
from .rhs import (
    HYPOTHESES,
    ConfigurationError,
    HypothesisReport,
    RhsSystem,
    check_hypotheses,
    d_ij,
    eval_f,
    power_coupled_system,
)

__version__ = "0.1.0"
