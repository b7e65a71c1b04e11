"""Finite graded models of metric Frechet spaces.

Graded metrics built from weight sequences and a bounded modulus,
concrete sequence and periodic-function models, bounded-operator
calculus with certified dilation brackets, fixed-point solvers with
rate certificates, gauge seminorms recovered from metric balls, and
curve-length functionals.
"""

__version__ = "0.1.0"

from .core import (
    STANDARD,
    SUPREMUM,
    GradedMetricConfig,
    SeminormLadder,
    WeightSequence,
    comparability_check,
    geometric_weights,
    graded_metric,
    phi,
    phi_inverse,
    piecewise_line_metric,
    standard_ball_nonconvexity_witness,
    standard_config,
    standard_metric,
    sup_metric,
    supremum_config,
    zero_ladder,
)
from .models import (
    CurveSpec,
    PeriodicFunction,
    TruncatedSequence,
    affine_curve,
    closed_form_curve,
    element_metric,
    element_norm,
    harmonic,
    line_curve,
    make_fk,
    unit_sequence,
    zero_function,
    zero_sequence,
)
from .operators import (
    LinearOperator,
    ProbePlan,
    RBoundEstimate,
    dense_operator,
    derivative_operator,
    diagonal_operator,
    distortion,
    down_shift,
    identity_operator,
    neumann_invert,
    perturbed_invert_bound,
    rbound_estimate,
    rbound_estimates,
    unboundedness_probe,
    up_shift,
)
from .minkowski import (
    TameEstimate,
    ball_gauge,
    dyadic_minkowski_family,
    minkowski_functional,
    tame_grade_estimate,
)
from .calculus import b_diff_report, directional_derivative, line_b_differentiable
from .solver import (
    InverseCertificate,
    SolveTrace,
    banach_fixed_point,
    inverse_derivative_check,
    left_inverse_certificate,
    right_inverse_solve,
)
from .length import (
    LengthResult,
    affine_minimality_probe,
    arclength_reparam,
    gromov_length,
    metric_length,
    metric_speed,
    smooth_length,
)
