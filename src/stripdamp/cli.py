"""Batch front end: reproducible experiments from plain config files.

Every number a subcommand emits comes from a library call; the driver only
parses configuration, orchestrates sweeps and writes artifacts (CSV tables, a
manifest and a plain-text summary). Identical configs produce bit-identical
CSVs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, cap, eigen, evolve, quasimode, resolvent, verify
from .errors import StripDampError
from .fits import loglog_fit
from .model import load_config, select_h


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


def write_manifest(out_dir: Path, stage_paths: dict) -> Path:
    manifest = {
        "package_version": __version__,
        "betas": list(verify.BETAS),
        "thresholds": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in verify.THRESHOLDS.items()},
        "artifacts": {k: [str(p) for p in v] for k, v in stage_paths.items()},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _load(args):
    if args.config:
        cfg = load_config(args.config)
    else:
        beta = args.beta_override if args.beta_override is not None else 1.0
        cfg = verify.default_config(float(beta))
    if args.beta_override is not None:
        cfg = cfg.with_beta(float(args.beta_override))
    return cfg


def _require_positive(args, *names):
    """Refuse a given option that is not a positive number, before any solve."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not value > 0:
            raise StripDampError(f"--{name} must be positive (got {value})")


def cmd_cap_solve(args):
    _require_positive(args, "stride")
    cfg = _load(args)
    eta = complex(args.eta)
    sol = cap.solve_cap(eta, cfg.profile.beta)
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
    cfg = _load(args)
    g = cap.neumann_ground(cfg.profile.beta)
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
    cfg = _load(args)
    beta = cfg.profile.beta
    ctx = eigen.build_context(beta, cfg.profile.a, cfg.l, cfg.bc)
    if args.h_max is not None:
        hs = np.geomspace(args.h_max, args.h_min, args.points)
    elif beta in verify.EIGEN_H_WINDOWS:
        lo, hi = verify.EIGEN_H_WINDOWS[beta]
        hs = np.geomspace(hi, lo, args.points)
    else:
        h0 = eigen.admissible_h_max(ctx)
        hs = np.geomspace(0.5 * h0, 0.5 * h0 * 10**-1.5, args.points)
    sols = eigen.eigen_sweep(ctx, hs)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "eigen_sweep.csv", verify.eigen_rows(sols))
    fit = loglog_fit([s.h for s in sols], [s.scaling_gap for s in sols])
    expected = (beta + 4.0) / (beta + 2.0)
    print(f"gap exponent {fit.slope:.4f} (construction target {expected:.4f})")
    print(f"wrote {path}")
    return 0


def cmd_quasimode_sweep(args):
    cfg = _load(args)
    qms = verify.quasimode_sweep(cfg, cfg.m_list)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_profiles:
        x = np.linspace(-cfg.profile.b, cfg.profile.b, 4001)
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
    cfg = _load(args)
    beta = cfg.profile.beta
    if args.branches:
        try:
            branches = tuple(int(s) for s in args.branches.split(","))
        except ValueError:
            raise StripDampError(f"--branches takes comma-separated integers "
                                 f"(got {args.branches!r})") from None
        if len(branches) < 2:
            raise StripDampError(
                "--branches needs at least two m values to fit a growth exponent"
            )
    elif beta in verify.RESOLVENT_BRANCH_M:
        branches = verify.RESOLVENT_BRANCH_M[beta]
    else:
        raise StripDampError(
            "no default resolvent branches for this beta; pass --branches m1,m2,..."
        )
    scan, _ = verify.resolvent_scan(cfg, branches)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "resolvent_scan.csv", verify.resolvent_rows(scan.samples))
    if args.dump_operator:
        import scipy.io
        s0 = scan.samples[0]
        op = resolvent.assemble_reduced_operator(s0.q, s0.m, cfg.profile, s0.n)
        mtx = out / f"operator_q{s0.q:.3f}_m{s0.m}.mtx"
        scipy.io.mmwrite(str(mtx), op.matrix)
        print(f"wrote {mtx}")
    lo, hi = 1.0 / (beta + 2.0), 2.0 / (beta + 2.0)
    print(f"growth exponent {scan.fit.slope:.4f} (theory band [{lo:.3f}, {hi:.3f}])")
    print(f"wrote {path}")
    return 0


def cmd_evolve(args):
    _require_positive(args, "m", "dt", "T")
    cfg = _load(args)
    beta = cfg.profile.beta
    ctx = eigen.build_context(beta, cfg.profile.a, cfg.l, cfg.bc)
    m = args.m or sorted(cfg.m_list)[0]
    sol = eigen.find_eigenvalue(cfg.l, select_h(m, cfg.profile.b), ctx)
    qm = quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)
    n = max(600, int(round(2.0 * cfg.profile.b / (qm.s / 25.0))))
    state = evolve.quasimode_state(qm, n)
    dt = args.dt or 0.1 / qm.q.real
    T = args.T or 0.06 / qm.q.imag
    stride = max(1, int(round(T / dt / 500)))
    trace = evolve.evolve(state, cfg.profile, dt, T, stride=stride)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "energy_trace.csv",
                     [{"t": t, "E": e} for t, e in zip(trace.times, trace.energies)])
    fit = evolve.fit_exponential_rate(trace)
    print(f"m = {m}: measured rate {-fit.slope:.6e}, 2 Im q = {2 * qm.q.imag:.6e}")
    print(f"wrote {path}")
    return 0


def cmd_fit(args):
    data = np.atleast_1d(np.genfromtxt(args.input, delimiter=",", names=True))
    for col in (args.t_col, args.e_col):
        if col not in (data.dtype.names or ()):
            raise StripDampError(f"{args.input} has no column {col!r} "
                                 f"(columns: {', '.join(data.dtype.names or ())})")
    trace = evolve.EnergyTrace(data[args.t_col], data[args.e_col], m=0)
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
    if args.config or args.beta_override is not None:
        raise StripDampError("verify-all runs the pinned geometry of every beta in "
                             f"{list(verify.BETAS)} and reads no config; "
                             "drop --config and --beta-override")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stage_paths = {}
    lines = ["verify-all  beta = " + ", ".join(f"{b:g}" for b in verify.BETAS), ""]
    all_passed = True
    try:
        # artifacts flush after every stage, so a failure later in the
        # pipeline leaves everything already computed on disk
        for name, report in verify.verify_all(*verify.BETAS):
            for table, rows in report.rows.items():
                p = write_csv(out / f"{name}_{table}.csv", rows)
                stage_paths.setdefault(name, []).append(p)
            for check in report.checks:
                lines.append(check.line())
                all_passed &= check.passed
    except StripDampError as exc:
        lines.append(f"[FAIL] pipeline aborted: {exc}")
        all_passed = False
    lines.append("")
    lines.append("RESULT: " + ("PASS" if all_passed else "FAIL"))
    summary = out / "summary.txt"
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(out, stage_paths)
    print("\n".join(lines))
    print(f"\nwrote {summary}")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stripdamp",
        description="decay-rate laboratory for strip-damped waves",
    )
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out-dir", default="out", help="artifact directory")
    p.add_argument("--beta-override", type=float, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("cap-solve", help="half-line boundary problem at one eta")
    s.add_argument("--eta", default="0", help="complex spectral parameter, e.g. 0.3+0.1j")
    s.add_argument("--stride", type=int, default=100, help="CSV decimation")
    s.set_defaults(fn=cmd_cap_solve)

    s = sub.add_parser("neumann", help="ground level of the comparison operator")
    s.set_defaults(fn=cmd_neumann)

    s = sub.add_parser("eigen-sweep", help="Newton continuation across h")
    s.add_argument("--h-min", type=float, default=None)
    s.add_argument("--h-max", type=float, default=None)
    s.add_argument("--points", type=int, default=8)
    s.set_defaults(fn=cmd_eigen_sweep)

    s = sub.add_parser("quasimode-sweep", help="build quasimodes over m_list")
    s.add_argument("--dump-profiles", action="store_true")
    s.set_defaults(fn=cmd_quasimode_sweep)

    s = sub.add_parser("resolvent-scan", help="peak-aligned resolvent norms")
    s.add_argument("--branches", default=None, help="comma-separated m values")
    s.add_argument("--dump-operator", action="store_true",
                   help="matrix-market dump of the first assembled operator")
    s.set_defaults(fn=cmd_resolvent_scan)

    s = sub.add_parser("evolve", help="time evolution of one quasimode")
    s.add_argument("--m", type=int, default=None)
    s.add_argument("--dt", type=float, default=None)
    s.add_argument("--T", type=float, default=None)
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
