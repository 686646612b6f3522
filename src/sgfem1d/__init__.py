"""1D finite elements for elliptic interface problems.

Arbitrary-order standard FEM and stable generalized FEM (SGFEM) on the
unit interval, for both the source problem -(kappa u')' = f and the
eigenvalue problem -(kappa u')' = lambda u with a coefficient jump at an
interior interface, plus exact reference solutions and convergence-study
tooling.
"""

from .analytic import (ExactEigenpair, ExactFunction, exact_eigenfunction,
                       manufactured_source, solve_matching_system)
from .assembly import BlockSystem, InterfaceProblem, assemble
from .basis import (DofVector, EnrichedSpace, build_interface_interpolant,
                    build_space, eval_enrichment, eval_fem_basis,
                    eval_solution, represent_piecewise_poly)
from .densela import (EigenSolution, generalized_eigs,
                      scaled_condition_number, solve_spd)
from .errors import (MACHINE_FLOOR, TABLE_FLOOR, ErrorRecord,
                     align_eigenfunction, fit_rate,
                     h1_semi_error, l2_error, relative_eigenvalue_error)
from .mesh import Mesh1D, build_uniform_mesh, locate
from .quadrature import QuadRule, gauss_rule, integrate_piecewise
from .sweep import (Report, SweepConfig, emit_report, run_cond_sweep,
                    run_eigen_sweep, run_source_sweep)

__version__ = "0.1.0"
