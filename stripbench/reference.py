"""Reference figures: the per-kernel baselines and one traced verify-all.

    python3 stripbench/reference.py          # kernel baselines
    python3 stripbench/reference.py BETA     # traced verify-all for BETA

Without an argument it prints, as one JSON line, best-of-five times of the
kernels the benchmark's layers are built from. With a beta it runs the full
``verify.verify_all`` pipeline under the tracer and prints its wall time,
the time of each stage and the per-layer metrics. Run each beta in its own
process: ``verify`` caches stage data across betas (the beta = 1 decay runs
feed every beta's controls), so a second beta in one process would be timed
partly from the cache. The figures in README.md come from such runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from stripdamp import cap, eigen, evolve, quasimode, resolvent, verify  # noqa: E402
from stripdamp.model import BC_DIRICHLET, select_h  # noqa: E402

from stripbench import tracing  # noqa: E402


def best_of(fn, repeat=5):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def kernels():
    b = 3.0
    out = {}
    for beta, n in ((1.0, 40752), (0.0, 160000)):
        L = cap.default_truncation(beta)
        out[f"boundary_pair beta={beta:g} n={n} s"] = best_of(
            lambda: cap.boundary_pair(0.1 + 0.01j, beta, L, n))
    for beta in (1.0, 2.0):
        ctx = eigen.build_context(beta, 1.0, 1, BC_DIRICHLET)
        m = verify.EVOLVE_MODES[beta][0]
        out[f"cold find_eigenvalue beta={beta:g} m={m} s"] = best_of(
            lambda: eigen.find_eigenvalue(1, select_h(m, b), ctx))
    for beta in (0.0, 1.0, 2.0):
        cfg = verify.default_config(beta)
        ctx = eigen.build_context(beta, 1.0, 1, BC_DIRICHLET)
        m_list, mesh = verify.RESIDUAL_SWEEP[beta]
        sol = eigen.find_eigenvalue(1, select_h(m_list[0], b), ctx)
        out[f"build_quasimode beta={beta:g} m={m_list[0]} dx={mesh:g} s"] = best_of(
            lambda: quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff, cap_dx=mesh), 3)
    cfg = verify.default_config(1.0)
    qm = quasimode.build_quasimode(
        eigen.find_eigenvalue(1, select_h(64, b), eigen.build_context(1.0, 1.0, 1, BC_DIRICHLET)),
        cfg.profile, cfg.cutoff)
    state = evolve.quasimode_state(qm, 858)
    dt = 0.12 / qm.q.real
    steps = 2000
    out["evolve beta=1 m=64 n=858 us/step"] = 1e6 * best_of(
        lambda: evolve.evolve(state, cfg.profile, dt, steps * dt, stride=steps), 3) / steps
    q = float(qm.q.real)
    out["resolvent_norm beta=1 m=64 n=4000 s"] = best_of(
        lambda: resolvent.resolvent_norm(q, 64, cfg.profile, 4000), 3)
    return out


def traced_verify_all(beta):
    tracer = tracing.Tracer()
    stages = {}
    t0 = time.perf_counter()
    with tracer.installed():
        it = verify.verify_all(beta)
        while True:
            s0 = time.perf_counter()
            try:
                name, report = next(it)
            except StopIteration:
                break
            stages[name] = (time.perf_counter() - s0, report.passed)
    wall = time.perf_counter() - t0
    metrics = {k: v["value"] for k, v in tracing.layer_metrics(tracer.spans, wall).items()}
    return {"beta": beta, "wall_s": wall, "stages": stages, "layers": metrics}


def main():
    if len(sys.argv) > 1:
        print(json.dumps(traced_verify_all(float(sys.argv[1]))))
    else:
        print(json.dumps({"kernels": kernels()}))


if __name__ == "__main__":
    main()
