"""Test-session setup shared by tests/ and perfbench/.

BLAS and OpenMP are pinned to one thread before numpy loads, as
perfbench/run.py does: the bit-exact comparisons against the step-by-step
oracles assume a GEMM row's bits do not depend on how the BLAS splits the
product across threads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
