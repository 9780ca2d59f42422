"""Benchmark of the four stripdamp computations.

    python3 stripbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stripdamp is imported from its ``src``.
A run times the set-up in fresh processes, does one untimed warm-up pass,
then repeats the workload's pass for about S seconds and checks the last
pass's outputs. With ``--trace 0`` it reports the end-to-end metrics (median
pass time, set-up time, peak memory); with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of a traced
pass. The last line of standard output is one JSON object; a run record
(and, when traced, the spans) is written under ``stripbench/runs``.
"""

import os

# pin BLAS and OpenMP to one thread before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "stripbench" / "runs"
PROBES = 3          # set-up probes per run; setup_s is their median
MIN_PASSES = 3      # timed passes per run, whatever --seconds says
MIN_TRACED = 2      # traced passes per run, so their counts can be compared


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message, code):
    print(f"stripbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    """Import stripdamp from this checkout's src, and nowhere else."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import stripdamp
    except ImportError as exc:
        fail(f"cannot import stripdamp from {SRC}: {exc}", 2)
    if Path(stripdamp.__file__).resolve().parent != SRC / "stripdamp":
        fail(f"stripdamp was imported from {stripdamp.__file__}, not from {SRC}", 2)


def blas_libraries():
    """[{path, threads, config}] for each OpenBLAS library this process loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = sorted({parts[-1] for parts in map(str.split, maps.splitlines())
                    if len(parts) >= 6 and "openblas" in parts[-1].rsplit("/", 1)[-1].lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"path": path, "threads": None, "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and entry["threads"] is None:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = int(get_threads())
                if get_config is not None and entry["config"] is None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        out.append(entry)
    return out


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "blas": blas_libraries(),
    }


def setup_probes(betas):
    """Wall time of PROBES fresh processes that import and build contexts."""
    cmd = [sys.executable, str(ROOT / "stripbench" / "probe.py"), *map(str, betas)]
    walls, inner = [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}", 4)
        inner.append(json.loads(proc.stdout.splitlines()[-1]))
    return walls, inner


class Passes:
    """Runs passes of one workload and keeps what the checks need."""

    def __init__(self, wl):
        self.wl = wl
        self.last = None            # outputs of the last pass that completed
        self.fingerprints = []      # per completed pass: {label: fingerprint}
        self.raised = 0             # passes that raised
        self.errors = []

    def run(self, tracer=None):
        """One pass; returns its wall time, or None if it raised."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.run_pass()
            else:
                with tracer.installed():
                    out = self.wl.run_pass()
        except Exception:   # a failing pass is counted, and the run reports it
            self.raised += 1
            self.errors.append(traceback.format_exc())
            return None
        dt = time.perf_counter() - t0
        self.last = out
        self.fingerprints.append({k: self.wl.fingerprint(v) for k, v in out.items()})
        return dt

    def tally(self, check_results):
        """(attempted, failed) over every pass run.

        An operation fails in a pass if the pass raised, if a check on it
        failed (the checks judge the last pass, and every pass computes the
        same outputs), or if its output differs from the last pass's.
        """
        n_ops = self.wl.n_ops
        attempted = n_ops * (len(self.fingerprints) + self.raised)
        failed = n_ops * self.raised
        bad = {op for c in check_results if not c.passed for op in c.ops}
        final = self.fingerprints[-1] if self.fingerprints else {}
        for fp in self.fingerprints:
            failed += len(bad | {k for k in final if fp.get(k) != final[k]})
        return attempted, failed


def run_timed(passes, seconds):
    times = []
    start = time.perf_counter()
    while True:
        dt = passes.run()
        if dt is None:
            break
        times.append(dt)
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_PASSES and elapsed + statistics.median(times) > seconds:
            break
    return times


def run_traced(passes, seconds):
    from stripbench import tracing

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        dt = passes.run()
        tracer = tracing.Tracer()
        dt_traced = passes.run(tracer) if dt is not None else None
        if dt_traced is None:
            break
        plain.append(dt)
        traced.append((dt_traced, tracer.spans))
        elapsed = time.perf_counter() - start
        next_pair = statistics.median(plain) + statistics.median(t for t, _ in traced)
        if len(traced) >= MIN_TRACED and elapsed + next_pair > seconds:
            break
    return plain, traced


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from stripbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", 2)
    env = environment()
    busy = [lib for lib in env["blas"] if lib["threads"] is not None and lib["threads"] > 1]
    if busy:
        fail(f"BLAS reports more than one thread: {busy}", 3)

    wl_class = workloads.WORKLOADS[args.workload]
    walls, inner = setup_probes(wl_class.betas)
    wl = wl_class(args.seed)
    passes = Passes(wl)
    warmup = passes.run()
    record = {"args": vars(args), "environment": env, "setup_probes_s": walls,
              "setup_probes_inner": inner, "warmup_s": warmup}
    spans = None
    if warmup is None:
        times = []
    elif args.trace == 0:
        times = record["pass_s"] = run_timed(passes, args.seconds)
    else:
        times, traced = run_traced(passes, args.seconds)
        record["pass_s"], record["traced_pass_s"] = times, [t for t, _ in traced]
        spans = [s for _, s in traced]
    if not times:
        print("".join(passes.errors), file=sys.stderr)
        fail("no pass completed", 1)

    results = wl.check(passes.last)
    if spans:
        differ = tracing.differing_counts(spans)
        results.append(workloads.Check("layer counts repeat between traced passes", (),
                                       not differ, f"differing: {differ or 'none'}"))
    attempted, failed = passes.tally(results)
    correct = all(c.passed for c in results)

    if args.trace == 0:
        metrics = {
            "wall_s": metric(statistics.median(times), "s"),
            "setup_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"{wl.name}: {len(times)} timed passes, median {metrics['wall_s']['value']:.4f} s")
    else:
        traced_s, pick_spans = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
        metrics = tracing.layer_metrics(pick_spans, traced_s)
        metrics["trace.overhead_s"] = metric(traced_s - statistics.median(times), "s")
        metrics["setup.import_s"] = metric(statistics.median(p["import_s"] for p in inner), "s")
        metrics["setup.context_s"] = metric(statistics.median(p["context_s"] for p in inner), "s")
        print(f"{wl.name}: {len(times)} untraced and {len(traced)} traced passes; "
              f"layer metrics from the traced pass of {traced_s:.4f} s")

    for c in results:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.measured}")
    print("".join(passes.errors), file=sys.stderr, end="")
    record.update(checks=[vars(c) for c in results], attempted=attempted, failed=failed,
                  correct=correct, metrics=metrics, errors=passes.errors)
    write_record(record, spans, args)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def write_record(record, spans, args):
    RUNS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans:
        (RUNS / f"{stem}-spans.json").write_text(json.dumps(spans))


if __name__ == "__main__":
    main()
