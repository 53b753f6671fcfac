"""Pin the BLAS and OpenMP pools to one thread for the test session.

This must run before numpy is first imported.  The suite is dominated by
small dense products, which slow down many times over when a second BLAS
thread has to share a core with another process.  setdefault keeps any value
already in the environment.  CAVRES_THREADS is left unset, so the CLI's own
thread handling and the sweep worker count run as they do outside tests.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
