"""Process settings shared by run.py and make_networks.py.

Import this before numpy. It sets one BLAS/OpenMP thread, so a run never
uses more threads than the two cores it is measured on and the frozen
networks are trained under the same settings as the timed runs, and it puts
src/ of this checkout first on the import path.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NETS = BENCH / "nets"
sys.path.insert(0, str(ROOT / "src"))
