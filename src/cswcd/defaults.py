"""Run-wide numeric constants.

Tolerances follow the two-tier scheme used throughout: entrywise-exact
claims (every retained matrix entry equals the infinite operator's entry up
to rounding) are asserted at TOL_EXACT; claims that involve products of
truncated matrices are asserted at TOL_GUARDED on a leading block that
excludes the trailing GUARD_BAND rows and columns.
"""

DEFAULT_N = 64

TOL_EXACT = 1e-10
TOL_GUARDED = 1e-8

GUARD_BAND = 8             # trailing rows/columns dropped from truncated-product assertions

MAX_WORK_DIM = 2048        # largest dense dimension built; 2049^2 complex is about 64 MiB

EVAL_EDGE = 1e-6           # refuse series evaluation for |z| > 1 - EVAL_EDGE
KERNEL_NORM_TOL = 1e-12    # adaptive cutoff for kernel norm series
KERNEL_NORM_CAP = 10**6    # hard cap on summed terms
