"""Before/after measurement of the half-line solver on two checkouts.

    python3 tools/bench_cap.py compare PARENT CHANGE [--pairs N] [--seed S] [--out FILE]
    python3 tools/bench_cap.py kernel ROOT

For example, `compare PARENT CHANGE --out BENCH_matching.json` gives the
figures of the extrapolated matching solve.

PARENT and CHANGE are roots of two checkouts of this repository, for
example a `git archive` of the parent commit and the working tree. Every
measurement runs in a fresh process at one BLAS thread, on each checkout's
own `src`:

* kernel: one `cap.boundary_pair` call, timed best of 3 in ms and in ns per
  grid interval, at the default grids of beta = 0, 1 and 2 (n = 160,000,
  40,752 and 40,000, at eta = 0.1 + 0.01i) and at the largest grid of the
  `quasimode-profiles` workload (beta = 0, m = 4096 at the residual-sweep
  mesh: L and n recorded from the build, at the matched eta). Each case
  also prints F(0), dF(0)/deta and the sha256 of F, so two checkouts
  compare bit for bit, and at the default grids the relative F(0) error
  against backward DOP853 shooting (`cap.boundary_value_by_shooting`).
  The same is timed and printed for one `boundary_value` call (the
  extrapolated coarse pair the eigenvalue matching reads) at beta = 0, 1
  and 2. The four builds of the `quasimode-profiles` workload (beta = 0,
  m = 2048 and 4096; beta = 2, m = 512 and 1024; each at the checkout's
  residual-sweep mesh `RESIDUAL_SWEEP[beta][1]`, roots by continuation
  from a cold start at the first m) are timed, best of 3, with the `L` and
  `points` (the n) of each build's half-line solve, the number of further
  solves one `evaluate` of the build makes after the timing, and one
  sha256 per build over `x`, `w`, `u`, `v`, the spline data `evaluate`
  reads (`y_cap` and `v_cap`) and the floats `norm`, `residual`,
  `inner_residual` and `tail`. Cold start:
  the median wall time of 10 fresh processes that `import stripdamp.cli`,
  and of 10 that run `stripbench/probe.py 0 1 2` (the benchmark's set-up
  probe), with the `scipy.*` subpackages the import leaves in
  `sys.modules`.
* stripbench: `stripbench/run.py --trace 0` on all four workloads, in N
  pairs that alternate which checkout runs first (the pairing code of
  `bench_resolvent.py`).
* traced: one `stripbench/run.py --trace 1` run per checkout and workload,
  with the per-layer metrics of its traced pass.

`compare` prints one JSON object and writes it to FILE; `kernel` prints
the kernel figures of one checkout.
"""

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_resolvent  # noqa: E402  (pins BLAS to one thread on import)

WORKLOADS = ("branch-matching", "quasimode-profiles", "resolvent-peaks", "decay-and-controls")
DEFAULT_GRID_ETA = 0.1 + 0.01j
PROFILE_CASE = (0.0, 4096)   # (beta, m) of the quasimode-profiles workload's largest solve
# the quasimode-profiles builds: the top of the beta = 0 residual sweep and
# the bottom of the beta = 2 one
PROFILE_BUILDS = ((0.0, slice(-2, None)), (2.0, slice(0, 2)))
QUASIMODE_ARRAYS = ("x", "w", "u", "v", "y_cap", "v_cap")
QUASIMODE_FLOATS = ("norm", "residual", "inner_residual", "tail")
STARTUP_RUNS = 10
LIST_SUBPACKAGES = ("import json, sys, stripdamp.cli; print(json.dumps(sorted("
                    "m for m in sys.modules if m.startswith('scipy.') and m.count('.') == 1)))")


def measure_startup(src):
    """Median fresh-process wall times of importing the package and of the
    set-up probe, and the scipy subpackages the import loads."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    commands = {"import stripdamp.cli": [sys.executable, "-c", "import stripdamp.cli"],
                "stripbench/probe.py 0 1 2": [sys.executable, "stripbench/probe.py", "0", "1", "2"]}
    out = {}
    for label, cmd in commands.items():
        runs = []
        for _ in range(STARTUP_RUNS):
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=src.parent, env=env, check=True, capture_output=True)
            runs.append(time.perf_counter() - t0)
        out[label] = {"median_s": round(statistics.median(runs), 4), "runs": STARTUP_RUNS}
    listed = subprocess.run([sys.executable, "-c", LIST_SUBPACKAGES], env=env, check=True,
                            capture_output=True, text=True)
    out["scipy_subpackages_after_import"] = json.loads(listed.stdout)
    return out


def measure_kernel(src):
    """Kernel figures of the checkout whose package lives in src."""
    startup = measure_startup(src)
    sys.path.insert(0, str(src))
    from stripdamp import cap, verify

    cases = {}
    for beta in verify.BETAS:
        L = cap.default_truncation(beta)
        cases[f"beta={beta:g} default grid"] = (DEFAULT_GRID_ETA, beta, L, cap.default_points(L))

    # the profile grid's arguments are recorded from the quasimode build itself
    calls = []
    pair = cap.boundary_pair

    def recording_pair(*args):
        calls.append(args)
        return pair(*args)

    cap.boundary_pair = recording_pair
    try:
        builds = measure_builds(calls)
    finally:
        cap.boundary_pair = pair
    beta, m = PROFILE_CASE
    cases[f"beta={beta:g} m={m} profile grid"] = max(calls, key=lambda a: a[3])

    shot = {beta: cap.boundary_value_by_shooting(DEFAULT_GRID_ETA, beta) for beta in verify.BETAS}

    def error(f0, beta):
        return float(f"{abs(f0 - shot[beta]) / abs(shot[beta]):.3g}")

    out = {}
    for label, (eta, beta, L, n) in cases.items():
        (f0, df0, F), best = best_of_3(cap.boundary_pair, eta, beta, L, n)
        out[label] = {"eta": repr(complex(eta)), "L": L, "n": n,
                      "ms": round(best * 1e3, 2), "ns_per_point": round(best * 1e9 / n, 1),
                      "F0": repr(complex(f0)), "dF0": repr(complex(df0)),
                      "F_sha256": hashlib.sha256(F.tobytes()).hexdigest()}
        if eta == DEFAULT_GRID_ETA:
            out[label]["F0_err_vs_shooting"] = error(f0, beta)
    for beta in verify.BETAS:
        L = cap.default_truncation(beta)
        (f0, df0), best = best_of_3(cap.boundary_value, DEFAULT_GRID_ETA, beta)
        out[f"beta={beta:g} boundary_value"] = {
            "eta": repr(DEFAULT_GRID_ETA), "L": L, "ms": round(best * 1e3, 3),
            "F0": repr(complex(f0)), "dF0": repr(complex(df0)),
            "F0_err_vs_shooting": error(f0, beta)}
    out.update(builds)
    out["cold start"] = startup
    return out


def measure_builds(calls):
    """Best-of-3 time, half-line grid and content hash of the
    quasimode-profiles builds; calls is the list a recording wrapper of
    `cap.boundary_pair` appends each call's arguments to."""
    import numpy as np
    from stripdamp import quasimode, verify

    out = {}
    for beta, modes in PROFILE_BUILDS:
        cfg = verify.default_config(beta)
        m_list, mesh = verify.RESIDUAL_SWEEP[beta]
        for m, sol in verify.mode_branch(beta, m_list[modes]):
            qm, best = best_of_3(quasimode.build_quasimode, sol, cfg.profile, cfg.cutoff,
                                 cap_dx=mesh)
            _, _, L, n = calls[-1]   # the build's solve
            before = len(calls)
            qm.evaluate(np.linspace(-cfg.profile.b, cfg.profile.b, 4001))
            evaluate_solves = len(calls) - before
            digest = hashlib.sha256()
            for name in QUASIMODE_ARRAYS:
                digest.update(getattr(qm, name).tobytes())
            digest.update(repr([getattr(qm, name) for name in QUASIMODE_FLOATS]).encode())
            out[f"beta={beta:g} m={m} build_quasimode"] = {
                "cap_dx": mesh, "L": L, "points": n, "evaluate_solves": evaluate_solves,
                "nodes": int(qm.x.size),
                "s": round(best, 3), "residual": qm.residual, "sha256": digest.hexdigest()}
    return out


def best_of_3(fn, *args, **kwargs):
    """(result, seconds) of the fastest of three calls."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return result, best


def traced_runs(roots, seed):
    """Per-layer metrics of one traced stripbench run per checkout and workload."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for side, root in roots.items():
            res = bench_resolvent.run_json(
                [sys.executable, "stripbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench_resolvent.STRIPBENCH_SECONDS), "--trace", "1"], root)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"traced {workload} on {side}: {res}")
            out[workload][side] = {k: v["value"] for k, v in res["metrics"].items()}
    return {"traced": out}


if __name__ == "__main__":
    bench_resolvent.cli(__doc__, __file__, measure_kernel, WORKLOADS, "BENCH_cap.json",
                        extend=traced_runs)
