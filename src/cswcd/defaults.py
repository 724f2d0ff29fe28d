"""Run-wide numeric constants.

Every claim is checked at the config's own truncation, on the whole matrix
or at points of the disk; there is no guarded block. The symmetry and
self-adjointness claims, whose compared quantities are exact up to rounding,
default to TOL_EXACT. TOL_GUARDED is the looser default of the checks whose
defect also carries the tail or the rounding of a summed series: the
normality Gram, ``adjoint-kernel`` and the two predicate checks.
TOL_AXIOMS is the default of ``conjugation-axioms``, whose identities on
kernels compare closed forms that carry powers of exponent alpha + 2.
"""

DEFAULT_N = 64

TOL_EXACT = 1e-10
TOL_GUARDED = 1e-8
TOL_AXIOMS = 1e-9

MAX_WORK_DIM = 2048        # largest dense dimension built; 2049^2 complex is about 64 MiB

EVAL_EDGE = 1e-6           # refuse series evaluation for |z| > 1 - EVAL_EDGE
KERNEL_NORM_TOL = 1e-12    # adaptive cutoff for kernel norm series
KERNEL_NORM_CAP = 10**6    # hard cap on summed terms
