"""Pin BLAS threads to one for the test run, as the benchmark harness does.

Small solves otherwise run multi-threaded and slow down badly when another
process holds a core.  pytest loads this file before any test module, so
numpy is not yet imported and these settings take effect; variables
already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
