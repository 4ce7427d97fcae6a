"""Numerical thresholds shared across the solver modules.

Rank decisions are relative to the largest singular value s_1, so a global
rescaling of the data leaves them alone.  The tie test uses max(s_1, 1), so
a well-separated cloud scaled down far enough (s_1 << 1) reads as tied.
Each constant carries the evidence it rests on.
"""

# A singular value s_i counts as zero iff s_i <= RANK_REL_TOL * s_1.
# Specified in the README.  A duplicated column leaves s_n near 1e-16 s_1,
# four decades below; independent Gaussian columns keep s_n well above it.
RANK_REL_TOL = 1e-12

# s_k and s_{k+1} count as a tie iff s_k - s_{k+1} <= GAP_TOL * max(s_1, 1).
# Specified in the README.  Exactly tied clouds built from orthonormal
# columns keep their gap at rounding level, 0 to 1e-16 s_1.
GAP_TOL = 1e-10

# X = -V12 V22^{-1} exists iff V22's smallest singular value exceeds this; for
# one column that is |last component|, deciding ``expressible`` for a
# hyperplane and NoTlsSolutionError for a system or multi-RHS fit alike.
# Specified in the README.  A zero column of A leaves the last component at
# exactly 0.
EXISTENCE_TOL = 1e-10

# One-sided Jacobi sweep control: a column pair (i, j) counts as orthogonal
# iff |a_i . a_j| <= JACOBI_OFFDIAG_TOL * ||a_i|| * ||a_j||.  Mean correct
# digits over the benchmark's lib_wide problems (seeds 1-12): 14.33 for
# the per-pair order at 1e-14, 14.36 for the round-robin order at 1e-14
# and 14.52 for it at 1e-15; lib_small and lib_tall gain too.  Sweeps
# still reach it at m = 20000 (tests/test_memory.py).
JACOBI_OFFDIAG_TOL = 1e-15
# The budget counts sweeps, and product steps with their passes over the
# pairs a step leaves out, alike.  On the benchmark's lib corpora (seeds
# 1-3) an SVD takes at most 7 on lib_small and lib_tall, and on lib_wide
# at most 9 below 16 columns and at most 14 from 16 on (up to 13 of them
# product steps, 6.6 on average).
JACOBI_MAX_SWEEPS = 60

# Cholesky pivot below CHOLESKY_PD_TOL * max(diag) means "not positive
# definite" when solving normal equations.  The Gram matrix squares A's
# singular values, so this flags columns dependent to about 1e-6 relative;
# a duplicated column of A leaves the pivot ratio near 1e-16.
CHOLESKY_PD_TOL = 1e-12
