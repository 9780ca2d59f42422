"""Batch front end: reproducible experiments on the pinned geometry.

Every number a subcommand emits comes from a library call; the driver only
parses options, orchestrates sweeps and writes artifacts (CSV tables, a
manifest and a plain-text summary). Identical options produce bit-identical
CSVs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, cap, eigen, evolve, resolvent, verify
from .errors import StripDampError
from .fits import loglog_fit


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path: Path, rows: list) -> Path:
    if not rows:
        path.write_text("", encoding="utf-8")
        return path
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    lines += [",".join(_fmt(row[c]) for c in cols) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_manifest(out_dir: Path, stage_paths: dict, stage_wall_s: dict) -> Path:
    manifest = {
        "package_version": __version__,
        "betas": list(verify.BETAS),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
        "thresholds": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in verify.THRESHOLDS.items()},
        "artifacts": {k: [str(p) for p in v] for k, v in stage_paths.items()},
        "stage_wall_s": stage_wall_s,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _require_positive(args, *names):
    """Refuse a given option that is not a positive number, before any solve."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not value > 0:
            raise StripDampError(f"--{name} must be positive (got {value})")


def _branches(args, default):
    """The --branches mode list, or default; refused before any solve unless
    it holds at least two distinct modes m >= 1, enough to fit an exponent."""
    if not args.branches:
        return default
    try:
        branches = tuple(int(s) for s in args.branches.split(","))
    except ValueError:
        raise StripDampError(f"--branches takes comma-separated integers "
                             f"(got {args.branches!r})") from None
    if min(branches) < 1:
        raise StripDampError(f"--branches takes modes m >= 1 (got {args.branches!r})")
    if len(set(branches)) < len(branches):
        raise StripDampError(f"--branches repeats a mode (got {args.branches!r})")
    if len(branches) < 2:
        raise StripDampError(
            "--branches needs at least two m values to fit an exponent"
        )
    return branches


def cmd_cap_solve(args):
    _require_positive(args, "stride")
    sol = cap.solve_cap(args.eta, args.beta)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(
        out / "cap_profile.csv",
        [{"x": x, "re_F": f.real, "im_F": f.imag}
         for x, f in zip(sol.x[:: args.stride], sol.values[:: args.stride])],
    )
    print(f"boundary value F(0) = {sol.boundary_value:.12g}")
    print(f"tail ratio {sol.tail_ratio:.3e}, identity residual {sol.identity_residual:.3e}")
    print(f"wrote {path}")
    return 0


def cmd_neumann(args):
    g = cap.neumann_ground(args.beta)
    kind = "infimum of essential spectrum" if g.essential else "ground eigenvalue"
    print(f"beta = {g.beta:g}: {kind} = {g.value:.10g}  (L = {g.L}, n = {g.n})")
    return 0


def cmd_eigen_sweep(args):
    if (args.h_min is None) != (args.h_max is None):
        raise StripDampError("--h-min and --h-max go together: give both or neither")
    if args.h_min is not None and not 0 < args.h_min < args.h_max < 1:
        raise StripDampError(f"need 0 < --h-min < --h-max < 1 (got {args.h_min}, {args.h_max})")
    if args.points < 2:
        raise StripDampError(f"--points must be at least 2 to fit an exponent (got {args.points})")
    beta = args.beta
    if args.h_max is not None:
        hs = np.geomspace(args.h_max, args.h_min, args.points)
    else:
        lo, hi = verify.EIGEN_H_WINDOWS[beta]
        hs = np.geomspace(hi, lo, args.points)
    sols = eigen.eigen_sweep(verify.context_for(beta), hs)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "eigen_sweep.csv", verify.eigen_rows(sols))
    fit = loglog_fit([s.h for s in sols], [s.scaling_gap for s in sols])
    expected = (beta + 4.0) / (beta + 2.0)
    print(f"gap exponent {fit.slope:.4f} (construction target {expected:.4f})")
    print(f"wrote {path}")
    return 0


def cmd_quasimode_sweep(args):
    m_list = verify.RESIDUAL_SWEEP[args.beta][0]
    qms = verify.quasimode_sweep(args.beta, _branches(args, m_list))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_profiles:
        b = verify.default_config(args.beta).profile.b
        x = np.linspace(-b, b, 4001)
        for qm in qms:
            write_csv(out / f"quasimode_profile_m{qm.m}.csv",
                      [{"x": xi, "re_u": ui.real, "im_u": ui.imag}
                       for xi, ui in zip(x, qm.evaluate(x))])
    path = write_csv(out / "quasimode_sweep.csv", verify.quasimode_rows(qms))
    re_q = [qm.q.real for qm in qms]
    fit_res = loglog_fit(re_q, [qm.residual for qm in qms])
    fit_imq = loglog_fit(re_q, [abs(qm.q.imag) for qm in qms])
    print(f"residual exponent {fit_res.slope:.4f}; Im q exponent {fit_imq.slope:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_resolvent_scan(args):
    beta = args.beta
    branches = _branches(args, verify.RESOLVENT_BRANCH_M[beta])
    scan, _ = verify.resolvent_scan(beta, branches)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "resolvent_scan.csv", verify.resolvent_rows(scan.samples))
    if args.dump_operator:
        import scipy.io
        import scipy.sparse as sp
        s0 = scan.samples[0]
        op = resolvent.assemble_reduced_operator(s0.q, s0.m,
                                                 verify.default_config(beta).profile, s0.n)
        off = np.full(op.grid.n - 1, op.grid.off)
        matrix = sp.diags([off, op.diag, off], [-1, 0, 1], format="csc", dtype=complex)
        mtx = out / f"operator_q{s0.q:.3f}_m{s0.m}.mtx"
        scipy.io.mmwrite(str(mtx), matrix)
        print(f"wrote {mtx}")
    lo, hi = verify.resolvent_band(beta)
    print(f"growth exponent {scan.fit.slope:.4f} (verify-all band [{lo:.4f}, {hi:.4f}])")
    print(f"wrote {path}")
    return 0


def cmd_evolve(args):
    _require_positive(args, "m")
    m = args.m or verify.EVOLVE_MODES[args.beta][0]
    qm, state, dt, T, stride = verify.decay_run(args.beta, m)
    trace = evolve.evolve(state, verify.default_config(args.beta).profile, dt, T,
                          stride=stride)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "energy_trace.csv",
                     [{"t": t, "E": e} for t, e in zip(trace.times, trace.energies)])
    fit = evolve.fit_exponential_rate(trace)
    print(f"m = {m}: measured rate {-fit.slope:.6e}, 2 Im q = {2 * qm.q.imag:.6e}")
    print(f"wrote {path}")
    return 0


def cmd_fit(args):
    if not Path(args.input).is_file():
        raise StripDampError(f"--input {args.input}: no such file")
    data = np.atleast_1d(np.genfromtxt(args.input, delimiter=",", names=True))
    for col in (args.t_col, args.e_col):
        if col not in (data.dtype.names or ()):
            raise StripDampError(f"{args.input} has no column {col!r} "
                                 f"(columns: {', '.join(data.dtype.names or ())})")
    if not np.all(np.diff(data[args.t_col]) > 0):
        raise StripDampError(f"{args.input}: column {args.t_col!r} is not strictly increasing; "
                             "a file with one trace per m must be split, one file per trace")
    trace = evolve.EnergyTrace(data[args.t_col], data[args.e_col])
    rate = evolve.fit_decay(trace)
    summary = {
        "alpha_hat": rate.exponent,
        "window": list(rate.window),
        "r2": rate.r2,
        "inconclusive": rate.inconclusive,
        "reason": rate.reason,
    }
    print(json.dumps(summary, indent=2))
    if rate.inconclusive:
        print(f"inconclusive power-law fit (r^2 = {rate.r2:.3f}); no exponent asserted")
    else:
        print(f"alpha-hat = {rate.exponent:.4f} over t in [{rate.window[0]:.3g}, "
              f"{rate.window[1]:.3g}] (r^2 = {rate.r2:.4f})")
    return 0


def cmd_verify_all(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage_paths = {}
    stage_wall_s = {}
    lines = ["verify-all  beta = " + ", ".join(f"{b:g}" for b in verify.BETAS), ""]
    all_passed = True
    try:
        # artifacts flush after every stage, so a failure later in the
        # pipeline leaves everything already computed on disk; a stage's
        # wall time runs from the end of the previous stage's writes
        t0 = time.perf_counter()
        for name, report in verify.verify_all(*verify.BETAS):
            stage_wall_s[name] = time.perf_counter() - t0
            for table, rows in report.rows.items():
                p = write_csv(out / f"{name}_{table}.csv", rows)
                stage_paths.setdefault(name, []).append(p)
            for check in report.checks:
                lines.append(check.line())
                all_passed &= check.passed
            t0 = time.perf_counter()
    except StripDampError as exc:
        lines.append(f"[FAIL] pipeline aborted: {exc}")
        all_passed = False
    lines.append("")
    lines.append("RESULT: " + ("PASS" if all_passed else "FAIL"))
    summary = out / "summary.txt"
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(out, stage_paths, stage_wall_s)
    print("\n".join(lines))
    print(f"\nwrote {summary}")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stripdamp",
        description="decay-rate laboratory for strip-damped waves",
    )
    p.add_argument("--out-dir", default="out", help="artifact directory")
    sub = p.add_subparsers(dest="command", required=True)

    # every subcommand that solves on the pinned geometry takes its beta
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument("--beta", type=float, choices=verify.BETAS, default=1.0,
                          metavar="{0,1,2}", help="vanishing exponent of the damping")

    s = sub.add_parser("cap-solve", parents=[geometry],
                       help="half-line boundary problem at one eta")
    s.add_argument("--eta", type=complex, default=0j,
                   help="complex spectral parameter, e.g. 0.3+0.1j")
    s.add_argument("--stride", type=int, default=100, help="CSV decimation")
    s.set_defaults(fn=cmd_cap_solve)

    s = sub.add_parser("neumann", parents=[geometry],
                       help="ground level of the comparison operator")
    s.set_defaults(fn=cmd_neumann)

    s = sub.add_parser("eigen-sweep", parents=[geometry],
                       help="Newton continuation across h")
    s.add_argument("--h-min", type=float, default=None)
    s.add_argument("--h-max", type=float, default=None)
    s.add_argument("--points", type=int, default=verify.EIGEN_SWEEP_POINTS)
    s.set_defaults(fn=cmd_eigen_sweep)

    s = sub.add_parser("quasimode-sweep", parents=[geometry],
                       help="build quasimodes over a list of modes")
    s.add_argument("--branches", default=None, help="comma-separated m values")
    s.add_argument("--dump-profiles", action="store_true")
    s.set_defaults(fn=cmd_quasimode_sweep)

    s = sub.add_parser("resolvent-scan", parents=[geometry],
                       help="peak-aligned resolvent norms")
    s.add_argument("--branches", default=None, help="comma-separated m values")
    s.add_argument("--dump-operator", action="store_true",
                   help="matrix-market dump of the first assembled operator")
    s.set_defaults(fn=cmd_resolvent_scan)

    s = sub.add_parser("evolve", parents=[geometry],
                       help="time evolution of one quasimode")
    s.add_argument("--m", type=int, default=None,
                   help="transverse mode (default: the first EVOLVE_MODES run)")
    s.set_defaults(fn=cmd_evolve)

    s = sub.add_parser("fit", help="power-law decay fit of an energy trace CSV")
    s.add_argument("--input", required=True)
    s.add_argument("--t-col", default="t")
    s.add_argument("--e-col", default="E")
    s.set_defaults(fn=cmd_fit)

    s = sub.add_parser("verify-all", help="full acceptance pipeline for beta = 0, 1 and 2")
    s.set_defaults(fn=cmd_verify_all)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StripDampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
