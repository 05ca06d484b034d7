"""Every tolerance that verdicts and report rows read, one constant per value and role.

Residuals are compared relative to a scale stated where each check is made."""

UNIT_ROUNDOFF = 2.0**-53  # u of binary64, which every rounding-error bound reads

ENTRY_TOL = 1e-13      # entrywise structure: skewness, grading leaks, adjoint pairs
IDENTITY_TOL = 1e-12   # algebraic identities, self-adjointness, exact sums
NORM_TOL = 1e-10       # identities through a norm, an operator product or a long sum
EIGEN_TOL = 1e-8       # eigensolver output: Loewner slack
SLOPE_TOL = 0.02       # absolute error of a fitted log-log growth exponent
ORDER_TOL = 0.05       # absolute error of the growth-order estimator
