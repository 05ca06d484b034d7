"""Numerical laboratory for fermionic operator inequalities on finite Fock spaces."""

from .bounds import (BoundSpec, SweepRow, basic_estimate_check, bound_sweep,
                     rhs_operator, verify_bound, verify_bounds)
from .converse import (ConvergenceCertificate, RecoveryReport, SweepResult,
                       TraceBoundResult, decay_values, schatten_recovery_check,
                       sharpness_sweep, trace_bound_check)
from .fock import (FockOperator, FockSpace, FockVector, ResourceError,
                   make_space, op_a, op_adag, verify_car)
from .gaussian import (GaussianReport, OrderEstimate, exp_order_estimate,
                       gaussian_report, omega_determinant, pair_coefficients)
from .quadratics import (check_commutator, check_grading, d_gamma, delta,
                         delta_plus, is_skew, require_skew)
from .spectral import (BoundVerdict, CauchySchwarzResult, cauchy_schwarz_check,
                       hoelder_check, jensen_check, loewner_leq, psd_power,
                       schatten_norm)

__version__ = "0.1.0"
