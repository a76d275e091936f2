"""One BLAS thread for the tests, as in CI and the benchmark.

The Newton kernel's products are small and memory-bound.  On a busy
2-core machine a second OpenBLAS thread spin-waits for a core, and 100
in-process fits at n = 1e5 took 17-35 s instead of 1.5-2.7 s.  Fit bytes
do not depend on the BLAS thread count (tests/test_model.py compares 1
and 2 threads in subprocesses), so this changes only the time.  It runs
before numpy is imported; an OPENBLAS_NUM_THREADS already set is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
