"""Curvature and conjugate points of axisymmetric swirl flows on D^2 x S^1.

The package computes, for a steady swirl field u(r) d/dtheta on the solid
flat torus:

* positivity of the sectional curvature in every section containing the
  swirl field (criterion: d/dr (r u^2) > 0), with per-mode curvature values
  from a closed Bessel formula cross-checked against an independent
  Galerkin pressure solver on B-splines;
* the Bessel-type Sturm-Liouville spectrum whose eigenvalues set the
  monoconjugate times 2 pi lambda / n, together with the explicit Jacobi
  fields and residual checks of the linearized flow/Euler equations.
"""

from . import bessel  # noqa: F401  (bound for the benchmark tracer, ROADMAP item 3)
from .config import RunConfig, parse_config, radial_from_spec
from .curvature import (CurvatureResult, PressureSolution, curvature_mode_closed,
                        curvature_mode_oracle, curvature_normalized, curvature_table,
                        oscillation_study, pressure_bvp_solve)
from .errors import (AccuracyError, DegenerateSectionError, DomainError,
                     InvalidModeError, ParseError, RegularityError, SwirlcurvError,
                     ValidationError)
from .expr import parse_expression
from .jacobi import (JacobiSolution, SLSpectrum, assemble_jacobi, conjugate_times,
                     jacobi_residuals, sl_spectra, sl_spectrum)
from .modes import FourierMode, cross_inner_product, mode_energy, swirl_energy
from .profile import CriteriaReport, RadialProfile, classify_criteria
from .radial import (ComplexRadialFunction, ExpressionFunction, PolynomialFunction,
                     RadialFunction, TableFunction)

__version__ = "0.1.0"
