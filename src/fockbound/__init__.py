"""Numerical laboratory for fermionic operator inequalities on finite Fock spaces."""

from .bounds import (BoundSpec, SweepRow, basic_estimate_bruteforce,
                     basic_estimate_check, bound_sweep, rhs_operator,
                     verify_bound, verify_bounds)
from .converse import (ConvergenceCertificate, RecoveryReport, SweepResult,
                       TraceBoundResult, decay_family, decay_values,
                       schatten_recovery_check, sector_norm_diagonal,
                       sharpness_sweep, trace_bound_check)
from .fock import (CarReport, FockOperator, FockSpace, FockVector,
                   ResourceError, make_space, number_operator, op_a, op_adag,
                   slater_state, vacuum, verify_car)
from .gaussian import (GaussianReport, OrderEstimate, exp_order_estimate,
                       gaussian_report, omega_determinant, omega_polynomial_roots,
                       omega_series, omega_zeros, pair_coefficients)
from .quadratics import (check_commutator, check_grading, d_gamma, delta,
                         delta_plus, is_skew, require_skew, skew_part)
from .spectral import (BoundVerdict, CauchySchwarzResult, SingularDecomposition,
                       cauchy_schwarz_check, hoelder_check, jensen_check,
                       loewner_leq, psd_power, schatten_norm, svd)

__version__ = "0.1.0"
