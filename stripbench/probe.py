"""Set-up probe: a fresh process imports stripdamp and builds the contexts.

    python3 stripbench/probe.py BETA [BETA ...]

For each beta it builds the Neumann ground level and the eigen context
(one half-line solve at eta = 0). Prints one JSON line with the seconds
spent importing and building, measured inside this process; the caller
times the whole process from outside.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from stripdamp import cap, eigen, evolve, quasimode, resolvent  # noqa: E402,F401
from stripdamp.model import BC_DIRICHLET  # noqa: E402

t1 = time.perf_counter()
for beta in map(float, sys.argv[1:]):
    cap.neumann_ground(beta)
    eigen.build_context(beta, 1.0, 1, BC_DIRICHLET)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "context_s": t2 - t1}))
