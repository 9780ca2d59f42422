"""Before/after measurement of the implicit-midpoint stepper on two checkouts.

    python3 tools/bench_evolve.py compare PARENT CHANGE [--pairs N] [--seed S] [--out FILE]
    python3 tools/bench_evolve.py kernel ROOT

PARENT and CHANGE are roots of two checkouts of this repository, for
example a `git archive` of the parent commit and the working tree. Every
measurement runs in a fresh process at one BLAS thread, on each checkout's
own `src`:

* kernel: for the quasimode decay runs at beta = 1, m = 64 and 128 and at
  beta = 2, m = 724 (the `EVOLVE_MODES` runs, as `verify.decay_run` sets
  them up), the microseconds per step of `evolve.evolve` over STEPS steps
  sampled only at the end (best of 3); the full run's seconds, step count,
  final energy, fitted decay rate and 2 Im q; and the largest relative
  energy drift of the same run with the damping set to 0, which the exact
  scheme conserves.
* stripbench: `stripbench/run.py --trace 0` on all four workloads, in N
  pairs that alternate which checkout runs first (the pairing code of
  `bench_resolvent.py`).
* traced: one `stripbench/run.py --trace 1` run per checkout and workload,
  with the per-layer metrics of its traced pass (`bench_cap.py`).

`compare` prints one JSON object and writes it to FILE; `kernel` prints
the kernel figures of one checkout.
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_cap  # noqa: E402
import bench_resolvent  # noqa: E402  (pins BLAS to one thread on import)

CASES = ((1.0, 64), (1.0, 128), (2.0, 724))   # (beta, m)
STEPS = 20000


def measure_kernel(src):
    """Kernel figures of the checkout whose package lives in src."""
    sys.path.insert(0, str(src))
    from stripdamp import evolve, verify
    from stripdamp.model import UniformDamping

    out = {}
    for beta, m in CASES:
        profile = verify.default_config(beta).profile
        qm, state, dt, T, stride = verify.decay_run(beta, m)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            evolve.evolve(state, profile, dt, STEPS * dt, stride=STEPS)
            best = min(best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        trace = evolve.evolve(state, profile, dt, T, stride=stride)
        run_s = time.perf_counter() - t0
        fit = evolve.fit_exponential_rate(trace)
        undamped = evolve.evolve(state, UniformDamping(0.0, profile.b), dt, T, stride=stride)
        out[f"beta={beta:g} m={m}"] = {
            "n": state.n, "dt": dt, "us_per_step": round(best * 1e6 / STEPS, 2),
            "run_steps": int(round(T / dt)), "run_s": round(run_s, 2),
            "final_energy": float(trace.energies[-1]), "rate": -fit.slope,
            "two_im_q": 2.0 * qm.q.imag,
            "undamped_drift": float(abs(undamped.energies / undamped.energies[0] - 1.0).max()),
        }
    return out


if __name__ == "__main__":
    bench_resolvent.cli(__doc__, __file__, measure_kernel, bench_cap.WORKLOADS,
                        "BENCH_evolve.json", extend=bench_cap.traced_runs)
