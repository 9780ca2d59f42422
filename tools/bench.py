"""Before/after benchmark of two checkouts.

    python3 tools/bench.py PARENT CHANGE [--pairs N] [--seed S] --out FILE

PARENT and CHANGE are roots of two checkouts of this repository, for
example a `git archive` of the parent commit and the working tree. The
workloads, the end-to-end metrics and each metric's `better` direction are
read from CHANGE's `BENCHMARK.json`, as are the command and its seconds.
Every run is a fresh process at one BLAS thread, in its own checkout:

* stripbench: the benchmark command with `--trace 0` on every workload, in
  N pairs that alternate which checkout runs first, with each side's
  median, quartiles and runs of every end-to-end metric and, per metric,
  the number of pairs the change wins.
* traced: one `--trace 1` run per checkout and workload, with the metrics
  of its traced pass (`cap.ns_per_point`, `resolvent.ms_per_call`, ...).

A run that is not `correct` or has failed operations stops the tool. It
prints one JSON object and writes it to FILE.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_json(bench, root, workload, seed, trace):
    """Metrics of one benchmark run on the checkout at root."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} --trace {trace} on {root}: {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def stripbench_pairs(bench, roots, pairs, seed):
    """Untraced runs of every workload in pairs alternating which side runs first."""
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    runs = {w: {side: {k: [] for k in better} for side in roots} for w in workloads}
    wins = {w: dict.fromkeys(better, 0) for w in workloads}
    for i in range(pairs):
        order = list(roots) if i % 2 == 0 else list(reversed(roots))
        for workload in workloads:
            pair = {side: run_json(bench, roots[side], workload, seed, 0) for side in order}
            for k, direction in better.items():
                parent, change = pair["parent"][k], pair["change"][k]
                wins[workload][k] += change < parent if direction == "lower" else change > parent
                for side in roots:
                    runs[workload][side][k].append(pair[side][k])
            print(f"pair {i + 1} {workload}: parent {pair['parent']['wall_s']:.4f} s, "
                  f"change {pair['change']['wall_s']:.4f} s", file=sys.stderr, flush=True)
    return {w: {"pairs": pairs,
                **{f"change_wins_{k}": n for k, n in wins[w].items()},
                **{side: {k: quartiles(v) for k, v in runs[w][side].items()}
                   for side in roots}}
            for w in workloads}


def traced_runs(bench, roots, seed):
    """Per-layer metrics of one traced run per checkout and workload."""
    return {w["name"]: {side: run_json(bench, root, w["name"], seed, 1)
                        for side, root in roots.items()}
            for w in bench["workloads"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    import numpy
    import scipy

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    result = {
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "cpus": os.cpu_count(),
                        "blas_threads": 1, "machine": platform.machine()},
        "stripbench": stripbench_pairs(bench, roots, args.pairs, args.seed),
        "traced": traced_runs(bench, roots, args.seed),
    }
    text = json.dumps(result, indent=1)
    args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
