"""Global asymptotic solutions of perturbed difference equations.

The package turns a perturbed recurrence into a closed-form asymptotic
solution in four moves: expand order by order over an exact algebra of
exponential-binomial sequences, read off the secular terms produced by
resonant forcing, absorb them into slowly varying mode amplitudes through
first-order amplitude update equations, and assemble the renormalized
amplitudes back into a global solution.  A homotopy variant covers target
equations without a small parameter.  A verification harness compares every
assembled solution against exact iteration of the original recurrence.
"""

from .amplitudes import Amplitude, AmpPoly
from .cases import (CASE_REGISTRY, BoundaryLayer, HtrCubic, HtrDomainWall,
                    Illustration, ManifoldResult, Reduction, VanDerPol,
                    case_from_config, case_to_config, published_answer,
                    reduction_pipeline)
from .lindiff import (LinearRecurrence, NearResonanceWarning,
                      SingularSystemError, char_roots, homogeneous_basis,
                      particular_solution, solve)
from .newton import (DifferenceTable, difference_table,
                     difference_table_recursive, newton_reconstruct,
                     partial_delta_m, renorm_consistency_ladder)
from .renorm import (CollectedSeries, GlobalSolution, PerturbationSolution,
                     RenormError, RenormSystem, apply_boundary,
                     assemble_global, collect_Y, form_renorm_system,
                     htr_expand, perturb_expand, residual_scan, run_pipeline,
                     solve_renorm)
from .scalars import QQi, as_scalar, exact_sqrt, scalar_eq
from .seqalg import ExpBinomSeq, make_term, zero_seq
from .verify import (VerificationReport, case_report, compare, iterate_exact,
                     ladder_report, manifold_distance, order_fit)

__version__ = "0.1.0"
