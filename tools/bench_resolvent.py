"""Before/after measurement of the resolvent kernel on two checkouts.

    python3 tools/bench_resolvent.py compare PARENT CHANGE [--pairs N] [--seed S] [--out FILE]
    python3 tools/bench_resolvent.py kernel ROOT

PARENT and CHANGE are roots of two checkouts of this repository, for
example a `git archive` of the parent commit and the working tree. Every
measurement runs in a fresh process at one BLAS thread, on each checkout's
own `src`:

* kernel: for one `resolvent_norm` call at the full tolerance, the time
  (best of 3) and the number of (P*P)^-1 products, counted as half the
  `zgttrs` solves so that any kernel on the same factor reads the same way,
  at the four branch sizes
  of `RESOLVENT_BRANCH_M` the kernel spans and on the clustered
  uniform-damping spectrum; the scan seconds `verify.resolvent_scan`
  returns at beta = 0, 1 and 2; and, for `scan_and_fit` on the benchmark's
  uniform pair q = 20, 640, on the six-q grid of the `resolvent-gcc` stage
  and on the pinned n = 4000 scans at beta = 0, 1 and 2, the time (best
  of 3), the number of `resolvent_norm` calls and a digest of the samples
  and fitted slope.
* stripbench: `stripbench/run.py --trace 0` on `resolvent-peaks` and
  `decay-and-controls`, in N pairs that alternate which checkout runs first,
  with each side's median and quartiles of `wall_s`, `setup_s` and
  `peak_rss_mb` and the number of pairs the change wins.

`compare` prints one JSON object and writes it to FILE; `kernel` prints
the kernel figures of one checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# (beta, m): the shallowest and deepest peaks of the beta = 1 and 2 scans
BRANCH_CASES = ((1.0, 2048), (2.0, 32768), (1.0, 65536), (2.0, 1048576))
# uniform damping W = 1 off resonance, where sigma_min clusters
CLUSTERED_CASE = (640.0, 309, 4000)
WORKLOADS = ("resolvent-peaks", "decay-and-controls")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
STRIPBENCH_SECONDS = 16


def measure_kernel(src):
    """Kernel figures of the checkout whose package lives in src."""
    sys.path.insert(0, str(src))
    from stripdamp import resolvent, verify
    from stripdamp.model import UniformDamping

    # the scans run first; the first call of each peak, at the predicted
    # frequency on the grid scan_peaks sized, is the one timed below
    first_calls = {}
    norm = resolvent.resolvent_norm

    def recording_norm(q, m, profile, n, **kwargs):
        first_calls.setdefault((profile.beta, m), (q, m, profile, n))
        return norm(q, m, profile, n, **kwargs)

    scans = {}
    resolvent.resolvent_norm = recording_norm
    try:
        for beta in verify.BETAS:
            scan, seconds = verify.resolvent_scan(beta, verify.RESOLVENT_BRANCH_M[beta])
            scans[f"resolvent-beta{beta:g}"] = {"scan_s": round(seconds, 3),
                                                 "slope": scan.fit.slope}
    finally:
        resolvent.resolvent_norm = norm
    scan_and_fit = measure_scan_and_fit(resolvent, verify, UniformDamping(1.0, 3.0))

    # every (P*P)^-1 product is two zgttrs solves, on either kernel
    solves = [0]
    zgttrs = resolvent.lapack.zgttrs

    def counting_zgttrs(*args, **kwargs):
        solves[0] += 1
        return zgttrs(*args, **kwargs)

    def one_call(q, m, profile, n):
        best = math.inf
        for _ in range(3):
            solves[0] = 0
            t0 = time.perf_counter()
            samp = resolvent.resolvent_norm(q, m, profile, n)
            best = min(best, time.perf_counter() - t0)
        return {"q": q, "m": m, "n": n, "ms": round(best * 1e3, 2),
                "products": solves[0] // 2, "norm": samp.norm}

    calls = {}
    resolvent.lapack.zgttrs = counting_zgttrs
    try:
        for beta, m in BRANCH_CASES:
            calls[f"beta={beta:g} m={m}"] = one_call(*first_calls[(beta, m)])
        q, m, n = CLUSTERED_CASE
        calls[f"uniform W=1 q={q:g} m={m}"] = one_call(q, m, UniformDamping(1.0, 3.0), n)
    finally:
        resolvent.lapack.zgttrs = zgttrs
    return {"calls": calls, "scans": scans, "scan_and_fit": scan_and_fit}


def measure_scan_and_fit(resolvent, verify, uniform):
    """Time, resolvent_norm calls and output digest of scan_and_fit per input."""
    import numpy as np

    inputs = {
        "uniform pair": lambda: resolvent.scan_and_fit((20.0, 640.0), uniform),
        "gcc grid": lambda: resolvent.scan_and_fit(np.geomspace(20.0, 640.0, 6), uniform),
        **{f"pinned beta={beta:g}": lambda beta=beta: verify.time_pinned_resolvent_scan(beta)[1]
           for beta in verify.BETAS},
    }
    ncalls = [0]
    norm = resolvent.resolvent_norm

    def counting_norm(*args, **kwargs):
        ncalls[0] += 1
        return norm(*args, **kwargs)

    out = {}
    resolvent.resolvent_norm = counting_norm
    try:
        for name, run in inputs.items():
            best = math.inf
            for _ in range(3):
                ncalls[0] = 0
                t0 = time.perf_counter()
                scan = run()
                best = min(best, time.perf_counter() - t0)
            exact = [(s.q.hex(), s.m, s.norm.hex(), s.n) for s in scan.samples]
            digest = hashlib.sha256(repr((exact, scan.fit.slope.hex())).encode()).hexdigest()
            out[name] = {"s": round(best, 3), "resolvent_norm_calls": ncalls[0],
                         "modes": [s.m for s in scan.samples], "slope": scan.fit.slope,
                         "sha256": digest[:16]}
    finally:
        resolvent.resolvent_norm = norm
    return out


def run_json(cmd, cwd):
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def stripbench_pairs(roots, workloads, pairs, seed):
    """`stripbench/run.py --trace 0` on each workload in pairs alternating which side runs first."""
    runs = {w: {side: {k: [] for k in METRICS} for side in roots} for w in workloads}
    wins = {w: 0 for w in workloads}
    for i in range(pairs):
        order = list(roots) if i % 2 == 0 else list(reversed(roots))
        for workload in workloads:
            pair = {}
            for side in order:
                res = run_json([sys.executable, "stripbench/run.py", "--workload", workload,
                                "--seed", str(seed), "--seconds", str(STRIPBENCH_SECONDS),
                                "--trace", "0"], roots[side])
                if not res["correct"] or res["failed"]:
                    raise SystemExit(f"{workload} on {side}: {res}")
                pair[side] = res["metrics"]
                for k in METRICS:
                    runs[workload][side][k].append(res["metrics"][k]["value"])
            wins[workload] += pair["change"]["wall_s"]["value"] < pair["parent"]["wall_s"]["value"]
            print(f"pair {i + 1} {workload}: parent {pair['parent']['wall_s']['value']:.4f} s, "
                  f"change {pair['change']['wall_s']['value']:.4f} s", file=sys.stderr, flush=True)
    return {w: {"pairs": pairs, "change_wins_wall_s": wins[w],
                **{side: {k: quartiles(v) for k, v in runs[w][side].items()}
                   for side in roots}}
            for w in workloads}


def cli(doc, script, measure_kernel, workloads, default_out, extend=None):
    """`kernel ROOT` prints measure_kernel of one checkout; `compare PARENT CHANGE`
    writes both checkouts' kernel figures, the stripbench pairs on workloads
    and whatever extend(roots, seed) adds, to --out.
    """
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    k = sub.add_parser("kernel", help="kernel figures of one checkout, as JSON")
    k.add_argument("root", type=Path)
    c = sub.add_parser("compare", help="kernel figures and stripbench pairs of two checkouts")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--out", type=Path, default=Path(default_out))
    args = p.parse_args()
    if args.cmd == "kernel":
        print(json.dumps(measure_kernel(args.root.resolve() / "src")))
        return
    import numpy
    import scipy

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "cpus": os.cpu_count(),
                        "blas_threads": 1, "machine": platform.machine()},
        "kernel": {side: run_json([sys.executable, str(Path(script).resolve()), "kernel",
                                   str(root)], root)
                   for side, root in roots.items()},
        "stripbench": stripbench_pairs(roots, workloads, args.pairs, args.seed),
    }
    if extend is not None:
        result.update(extend(roots, args.seed))
    text = json.dumps(result, indent=1)
    args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    cli(__doc__, __file__, measure_kernel, WORKLOADS, "BENCH_resolvent.json")
