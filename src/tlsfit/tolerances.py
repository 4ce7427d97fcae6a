"""Numerical thresholds shared across the solver modules.

Rank decisions are relative to the largest singular value s_1, so a global
rescaling of the data leaves them alone.  The tie test uses max(s_1, 1), so
a well-separated cloud scaled down far enough (s_1 << 1) reads as tied.
"""

# A singular value s_i counts as zero iff s_i <= RANK_REL_TOL * s_1.
RANK_REL_TOL = 1e-12

# s_k and s_{k+1} count as a tie iff s_k - s_{k+1} <= GAP_TOL * max(s_1, 1).
GAP_TOL = 1e-10

# X = -V12 V22^{-1} exists iff V22's smallest singular value exceeds this; for
# one column that is |last component|, deciding ``expressible`` for a
# hyperplane and NoTlsSolutionError for a system or multi-RHS fit alike.
EXISTENCE_TOL = 1e-10

# One-sided Jacobi sweep control: a column pair (i, j) counts as orthogonal
# iff |a_i . a_j| <= JACOBI_OFFDIAG_TOL * ||a_i|| * ||a_j||.
JACOBI_OFFDIAG_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60

# Cholesky pivot below CHOLESKY_PD_TOL * max(diag) means "not positive
# definite" when solving normal equations.
CHOLESKY_PD_TOL = 1e-12
