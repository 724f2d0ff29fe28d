"""Run-wide numeric constants.

Every claim is checked at the config's own truncation, on the whole matrix
or at points of the disk; there is no guarded block. Each check has its own
named default tolerance:

- TOL_EXACT, for the symmetry and self-adjointness claims, whose compared
  quantities are exact up to rounding;
- TOL_ADJOINT_KERNEL, for ``adjoint-kernel``, whose defect also carries the
  kernel tails beyond the truncation and the rounding of summed series;
- TOL_ADJOINT_PAIR, for ``adjoint-pair``, which compares two closed forms of
  the companion operators on kernels;
- TOL_NORMALITY, for ``normality``, whose kernel Grams are finite closed
  forms (an explicit pair's G_T sums a series, whose rounding bound is held
  to the same figure);
- TOL_PREDICATE, for the two predicate checks, at which a normal
  prediction passes and a non-normal one fails;
- TOL_AXIOMS, for ``conjugation-axioms``, whose identities on kernels
  compare closed forms that carry powers of exponent alpha + 2.
"""

DEFAULT_N = 64

TOL_EXACT = 1e-10
TOL_ADJOINT_KERNEL = 1e-8
TOL_ADJOINT_PAIR = 1e-9
TOL_NORMALITY = 1e-8
TOL_PREDICATE = 1e-8
TOL_AXIOMS = 1e-9

MAX_WORK_DIM = 2048        # largest dense dimension built; 2049^2 complex is about 64 MiB
# largest order n: the families' weights divide by n!, which leaves the
# double range from 171! on; the order-n kernels' factor (alpha+2)_n >= n!
# for every alpha > -1, so no alpha keeps a larger order in range
MAX_ORDER = 170
# most terms of the normality Gram's term table; its kernel array holds
# 2 |GRAM_POINTS|^2 = 32 complex values per term, 64 MiB at the budget (n <= 71)
MAX_GRAM_TERMS = 131072

EVAL_EDGE = 1e-6           # refuse series evaluation for |z| > 1 - EVAL_EDGE
KERNEL_NORM_TOL = 1e-12    # adaptive cutoff for kernel norm series
KERNEL_NORM_CAP = 10**6    # hard cap on summed terms
