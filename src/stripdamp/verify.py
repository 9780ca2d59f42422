"""Acceptance pipelines with pinned windows and tolerances.

Every scaling law the package certifies is measured here, with the sweep
windows fixed once (chosen so the asymptotic regime dominates: large enough
frequencies that the matching corrections have decayed, small enough that
solver noise floors stay negligible). Both the command-line verifier and the
test suite call these functions, so a passing suite and a passing
``verify-all`` run are the same statement.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cap, eigen, evolve, quasimode, resolvent
from .fits import local_slopes, loglog_fit
from .model import (
    BC_DIRICHLET,
    CutoffFunction,
    DampingProfile,
    RunConfig,
    UniformDamping,
    select_h,
)

BETAS = (0.0, 1.0, 2.0)

# fixed tolerances; verify-all can override via a threshold file
DEFAULT_THRESHOLDS = {
    "airy_rtol": 1e-6,
    "airy_budget_s": 1.0,
    "neumann_beta2_tol": 1e-5,
    "neumann_beta1_tol": 1e-4,
    "lambda_slope_tol": 0.05,
    "eigen_budget_s": 60.0,
    "residual_slope_target": -2.0,
    "residual_slope_tol": 0.1,
    "imq_slope_tol": 0.05,
    "tail_levels": (2.0, 4.0, 6.0),
    "identity_rtol": 5e-3,
    "resolvent_band_pad": 0.05,
    "resolvent_w0_rtol": 1e-6,
    "resolvent_budget_s": 300.0,
    "decay_rate_rtol": 0.05,
    "conservation_rtol": 1e-8,
    "gcc_r2_floor": 0.999,
    "crossval_mu_tol": 1e-8,
}

AI_PRIME_FIRST_ZERO = 1.0187929716474710  # level of -d^2/dx^2 + x, Neumann at 0

# sweep windows, one per beta -------------------------------------------------

# Newton sweeps in h for the eigenvalue scaling law (no mode-number constraint)
EIGEN_H_WINDOWS = {
    0.0: (4.0e-4, 1.25e-2),
    1.0: (1.0e-4, 3.16e-3),
    2.0: (3.0e-5, 1.0e-3),
}
EIGEN_SWEEP_POINTS = 8

# transverse mode lists (h = select_h(m, b)) for the frequency placement law
MODE_SWEEP_M = {
    0.0: tuple(256 * 2**k for k in range(6)),
    1.0: tuple(4096 * 2**k for k in range(6)),
    2.0: tuple(524288 * 2**k for k in range(6)),
}

# quasimode sweeps: (m list, half-line mesh for the profile factor)
RESIDUAL_SWEEP = {
    0.0: (tuple(128 * 2**k for k in range(6)), 4.0e-5),
    1.0: (tuple(256 * 2**k for k in range(6)), 2.0e-5),
    2.0: (tuple(512 * 2**k for k in range(6)), 1.0e-5),
}
TAIL_SWEEP_M = {
    0.0: tuple(64 * 2**k for k in range(6)),
    1.0: tuple(64 * 2**k for k in range(6)),
    2.0: tuple(512 * 2**k for k in range(6)),
}

# resolvent peak branches: octave spacing over 1.5 decades of q, pushed deep
# enough that the matching correction to Im q has largely settled (it relaxes
# like h^(2/(beta+2)), slowest for large beta)
RESOLVENT_BRANCH_M = {
    0.0: (192, 384, 768, 1536, 3072, 6144),
    1.0: (2048, 4096, 8192, 16384, 32768, 65536),
    2.0: (32768, 65536, 131072, 262144, 524288, 1048576),
}

# time-domain checks: two mode numbers per beta
EVOLVE_MODES = {0.0: (64, 128), 1.0: (64, 128), 2.0: (512, 724)}


def default_config(beta: float) -> RunConfig:
    profile = DampingProfile(beta=beta, a=1.0, sigma=1.0, b=3.0)
    cutoff = CutoffFunction(b=3.0, delta=0.4)
    m_list = RESIDUAL_SWEEP[beta][0] if beta in RESIDUAL_SWEEP else (64, 128, 256)
    return RunConfig(profile=profile, cutoff=cutoff, bc=BC_DIRICHLET, l=1,
                     m_list=m_list)


@dataclass
class Check:
    name: str
    passed: bool
    measured: str
    expected: str
    note: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        s = f"[{tag}] {self.name}: measured {self.measured}, expected {self.expected}"
        if self.note:
            s += f"  ({self.note})"
        return s


@dataclass
class StageReport:
    checks: list = field(default_factory=list)
    rows: dict = field(default_factory=dict)   # name -> list of CSV-ready dicts

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@functools.lru_cache(maxsize=None)
def context_for(beta: float, a: float = 1.0, l: float = 1,
                bc: str = BC_DIRICHLET) -> eigen.EigenContext:
    return eigen.build_context(beta, a, l, bc)


def mode_branch(cfg: RunConfig, m_list):
    """(m, solution) along ascending m, each solve seeded by the previous root."""
    p = cfg.profile
    ms = sorted(m_list)
    ctx = context_for(p.beta, p.a, cfg.l, cfg.bc)
    return list(zip(ms, eigen.eigen_sweep(ctx, [select_h(m, p.b) for m in ms])))


# CSV row shapes shared by verify-all and the sweep subcommands

def eigen_rows(sols) -> list:
    return [
        {
            "h": s.h, "re_lambda": s.lambda_h.real, "im_lambda": s.lambda_h.imag,
            "re_C": s.C_h.real, "im_C": s.C_h.imag,
            "newton_iterations": s.iterations, "newton_residual": s.newton_residual,
            "glue_residual": s.glue_residual,
        }
        for s in sols
    ]


def quasimode_rows(qms) -> list:
    return [
        {
            "m": qm.m, "h": qm.h, "re_q": qm.q.real, "im_q": qm.q.imag,
            "residual": qm.residual, "tail": qm.tail,
        }
        for qm in qms
    ]


def resolvent_rows(samples) -> list:
    qs = np.array([s.q for s in samples])
    ns_ = np.array([s.norm for s in samples])
    sl = np.concatenate([[np.nan], local_slopes(qs, ns_)])
    return [
        {"q": s.q, "m_star": s.m, "norm": s.norm, "n": s.n,
         "local_slope": float(sl[i])}
        for i, s in enumerate(samples)
    ]


def airy_boundary_value() -> complex:
    """Closed form for beta = 1, eta = 0 from Airy data at the origin.

    Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3); the
    decaying solution is proportional to Ai(x e^{i pi/6}), so
    F(0) = (Ai(0)/Ai'(0)) e^{-i pi/6}.
    """
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    return (ai0 / aip0) * np.exp(-1j * math.pi / 6.0)


# ---------------------------------------------------------------------------
# criterion 1 and 2: solver oracles

def check_cap_oracle(thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    t0 = time.perf_counter()
    sol = cap.solve_cap(0.0, 1.0)
    elapsed = time.perf_counter() - t0
    exact = airy_boundary_value()
    rel = abs(sol.boundary_value - exact) / abs(exact)
    rep.checks.append(Check(
        "cap boundary value vs Airy closed form",
        rel <= thresholds["airy_rtol"],
        f"rel err {rel:.2e} in {elapsed:.2f}s",
        f"<= {thresholds['airy_rtol']:.0e} in < {thresholds['airy_budget_s']}s",
    ))
    rep.checks.append(Check(
        "cap oracle runtime",
        elapsed < thresholds["airy_budget_s"],
        f"{elapsed:.2f}s", f"< {thresholds['airy_budget_s']}s",
    ))
    return rep


def check_neumann_oracles(thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    g2 = cap.neumann_ground(2.0)
    rep.checks.append(Check(
        "Neumann ground level, quadratic potential",
        abs(g2.value - 1.0) <= thresholds["neumann_beta2_tol"],
        f"{g2.value:.8f}", f"1 within {thresholds['neumann_beta2_tol']:.0e}",
    ))
    g1 = cap.neumann_ground(1.0)
    rep.checks.append(Check(
        "Neumann ground level, linear potential",
        abs(g1.value - AI_PRIME_FIRST_ZERO) <= thresholds["neumann_beta1_tol"],
        f"{g1.value:.8f}",
        f"{AI_PRIME_FIRST_ZERO:.6f} within {thresholds['neumann_beta1_tol']:.0e}",
    ))
    return rep


# ---------------------------------------------------------------------------
# criterion 3: eigenvalue scaling

@functools.lru_cache(maxsize=None)
def eigen_scaling_data(beta: float):
    ctx = context_for(beta)
    lo, hi = EIGEN_H_WINDOWS[beta]
    hs = np.geomspace(hi, lo, EIGEN_SWEEP_POINTS)
    t0 = time.perf_counter()
    sols = eigen.eigen_sweep(ctx, hs)
    elapsed = time.perf_counter() - t0
    return ctx, sols, elapsed


def check_eigen_scaling(beta: float, thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    ctx, sols, elapsed = eigen_scaling_data(beta)
    hs = np.array([s.h for s in sols])
    gaps = np.array([s.scaling_gap for s in sols])
    fit = loglog_fit(hs, gaps)
    expected = (beta + 4.0) / (beta + 2.0)
    rep.checks.append(Check(
        f"eigenvalue gap h-exponent (beta={beta:g})",
        abs(fit.slope - expected) <= thresholds["lambda_slope_tol"],
        f"{fit.slope:.4f}", f"{expected:.4f} +- {thresholds['lambda_slope_tol']}",
    ))
    K = ctx.K_bound
    worst = max(abs(s.C_h) for s in sols)
    rep.checks.append(Check(
        f"|C_h| bound (beta={beta:g})",
        worst < K,
        f"max |C_h| = {worst:.4f}", f"< {K:.4f}",
    ))
    rep.checks.append(Check(
        f"eigen sweep runtime (beta={beta:g})",
        elapsed < thresholds["eigen_budget_s"],
        f"{elapsed:.1f}s", f"< {thresholds['eigen_budget_s']}s",
    ))
    rep.rows["eigen_sweep"] = eigen_rows(sols)
    return rep


# ---------------------------------------------------------------------------
# criterion 5: frequency placement through the mode ansatz

@functools.lru_cache(maxsize=None)
def mode_scaling_data(beta: float):
    cfg = default_config(beta)
    return [(m, sol, quasimode.ansatz_params(sol, cfg.profile.b))
            for m, sol in mode_branch(cfg, MODE_SWEEP_M[beta])]


def check_frequency_placement(beta: float, thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    data = mode_scaling_data(beta)
    re_q = np.array([q.real for (_, _, (q, _)) in data])
    im_q = np.array([abs(q.imag) for (_, _, (q, _)) in data])
    fit = loglog_fit(re_q, im_q)
    expected = -(beta + 3.0) / (beta + 2.0)
    note = ""
    if beta == 0:
        note = "indicator-strip exponent -3/2, matching the known 2/3 decay rate"
    rep.checks.append(Check(
        f"Im q placement exponent (beta={beta:g})",
        abs(fit.slope - expected) <= thresholds["imq_slope_tol"],
        f"{fit.slope:.4f}", f"{expected:.4f} +- {thresholds['imq_slope_tol']}",
        note,
    ))
    rep.rows["mode_sweep"] = [
        {"m": m, "h": s.h, "re_q": q.real, "im_q": q.imag,
         "re_C": s.C_h.real, "im_C": s.C_h.imag}
        for (m, s, (q, _)) in data
    ]
    return rep


# ---------------------------------------------------------------------------
# criteria 4 and 6: quasimode sweeps

def quasimode_sweep(cfg: RunConfig, m_list, cap_dx: float = 5.0e-5) -> list:
    """Quasimodes along ascending m in the geometry of cfg."""
    return [quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff, cap_dx=cap_dx)
            for _, sol in mode_branch(cfg, m_list)]


@functools.lru_cache(maxsize=None)
def quasimode_sweep_data(beta: float, which: str):
    if which == "residual":
        m_list, cap_dx = RESIDUAL_SWEEP[beta]
    elif which == "tail":
        m_list, cap_dx = TAIL_SWEEP_M[beta], 5.0e-5
    else:
        raise ValueError(which)
    cfg = default_config(beta)
    return cfg, quasimode_sweep(cfg, m_list, cap_dx)


def check_residual_scaling(beta: float, thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    cfg, qms = quasimode_sweep_data(beta, "residual")
    re_q = np.array([qm.q.real for qm in qms])
    res = np.array([qm.residual for qm in qms])
    fit = loglog_fit(re_q, res)
    target = thresholds["residual_slope_target"]
    tol = thresholds["residual_slope_tol"]
    construction = -(4.0 * beta + 7.0) / (2.0 * (beta + 2.0))
    rep.checks.append(Check(
        f"quasimode residual exponent (beta={beta:g})",
        abs(fit.slope - target) <= tol,
        f"{fit.slope:.4f}", f"{target:.1f} +- {tol}",
        f"this construction scales like {construction:.4f}; "
        "see the acceptance notes in the README",
    ))
    rep.checks.append(Check(
        f"residual matches the construction exponent (beta={beta:g})",
        abs(fit.slope - construction) <= 0.1,
        f"{fit.slope:.4f}", f"{construction:.4f} +- 0.1",
        "exponent the glued-profile residual actually obeys",
    ))
    # the bound the construction provably satisfies: residual * Re q stays bounded
    bound_seq = res * re_q
    rep.checks.append(Check(
        f"residual bounded by C / Re q (beta={beta:g})",
        bool(np.all(bound_seq <= 1.5 * bound_seq[0])),
        f"max residual*Re q = {bound_seq.max():.3e}",
        "non-increasing up to 50% slack",
    ))
    rep.rows["quasimode_sweep"] = quasimode_rows(qms)
    return rep


def check_tail_decay(beta: float, thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    cfg, qms = quasimode_sweep_data(beta, "tail")
    hs = np.array([qm.h for qm in qms])
    tails = np.array([qm.tail for qm in qms])
    ok = tails > 1e-280
    slopes = local_slopes(hs[ok], tails[ok])
    levels = thresholds["tail_levels"]
    increasing = bool(np.all(np.diff(slopes) > 0)) if len(slopes) > 1 else False
    exceeds = all(np.any(slopes > N) for N in levels)
    staged = all(
        slopes[min(i, len(slopes) - 1)] > N
        for i, N in enumerate(levels)
    )
    rep.checks.append(Check(
        f"tail mass decays super-polynomially (beta={beta:g})",
        increasing and exceeds and staged,
        f"local slopes {np.array2string(slopes, precision=1)}",
        f"increasing and exceeding {levels} in turn",
    ))
    worst_excess = 0.0
    for qm in qms:
        ratio, bound = quasimode.mass_bound_check(qm, cfg.profile)
        worst_excess = max(worst_excess, ratio - bound)
    rep.checks.append(Check(
        f"uncut mass bound with constant 1 + s^b/(s^b - h^2) (beta={beta:g})",
        worst_excess <= 0.0,
        f"max(ratio - bound) = {worst_excess:.3e}", "<= 0",
    ))
    worst_id = 0.0
    for qm in qms[:3]:
        lhs, rhs = quasimode.damping_identity(qm, cfg.profile)
        worst_id = max(worst_id, abs(lhs - rhs) / abs(rhs))
    rep.checks.append(Check(
        f"damping energy identity (beta={beta:g})",
        worst_id <= thresholds["identity_rtol"],
        f"rel defect {worst_id:.2e}", f"<= {thresholds['identity_rtol']:.0e}",
    ))
    rep.rows["tail_sweep"] = [
        {"m": qm.m, "h": qm.h, "tail": qm.tail, "re_q": qm.q.real}
        for qm in qms
    ]
    return rep


# ---------------------------------------------------------------------------
# criterion 7: resolvent scans

def resolvent_scan(cfg: RunConfig, m_list, n_cap: int | None = None):
    """Peak-aligned scan over the branches m_list; returns (scan, scan seconds)."""
    sols = [sol for _, sol in mode_branch(cfg, m_list)]
    t0 = time.perf_counter()
    scan = resolvent.scan_peaks(sols, cfg.profile, n_cap=n_cap)
    return scan, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def resolvent_scan_data(beta: float):
    cfg = default_config(beta)
    return (cfg,) + resolvent_scan(cfg, RESOLVENT_BRANCH_M[beta])


def check_resolvent_band(beta: float, thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    cfg, scan, elapsed = resolvent_scan_data(beta)
    lo = 1.0 / (beta + 2.0) - thresholds["resolvent_band_pad"]
    hi = 2.0 / (beta + 2.0) + thresholds["resolvent_band_pad"]
    rep.checks.append(Check(
        f"resolvent growth exponent in band (beta={beta:g})",
        lo <= scan.fit.slope <= hi,
        f"{scan.fit.slope:.4f}", f"[{lo:.4f}, {hi:.4f}]",
    ))
    rep.checks.append(Check(
        f"resolvent scan runtime (beta={beta:g})",
        elapsed < thresholds["resolvent_budget_s"],
        f"{elapsed:.0f}s", f"< {thresholds['resolvent_budget_s']:.0f}s",
    ))
    rep.rows["resolvent_scan"] = resolvent_rows(scan.samples)
    return rep


def check_resolvent_w0_control(thresholds=DEFAULT_THRESHOLDS, b: float = 3.0) -> StageReport:
    """Undamped operator: 1/norm equals the distance to the discrete spectrum."""
    rep = StageReport()
    n = 4000
    q, m = 11.0, 3
    zero = UniformDamping(0.0, b)
    samp = resolvent.resolvent_norm(q, m, zero, n)
    dx = 2.0 * b / (n + 1)
    k = np.arange(1, n + 1)
    eigs = 4.0 / dx**2 * np.sin(k * math.pi * dx / (4.0 * b)) ** 2 \
        + 4.0 * math.pi**2 * m**2 / b**2 - q * q
    exact = 1.0 / np.min(np.abs(eigs))
    rel = abs(samp.norm - exact) / exact
    rep.checks.append(Check(
        "undamped resolvent vs self-adjoint distance formula",
        rel <= thresholds["resolvent_w0_rtol"],
        f"rel err {rel:.2e}", f"<= {thresholds['resolvent_w0_rtol']:.0e}",
    ))
    return rep


def check_resolvent_gcc_control(b: float = 3.0) -> StageReport:
    """Damping bounded below: resolvent stays bounded along the real axis."""
    rep = StageReport()
    gcc = UniformDamping(1.0, b)
    qs = np.geomspace(20.0, 640.0, 6)
    scan = resolvent.scan_and_fit(qs, gcc)
    rep.checks.append(Check(
        "uniformly damped resolvent does not grow",
        scan.fit.slope <= 0.05,
        f"exponent {scan.fit.slope:.3f}", "<= 0.05 (measured near -1)",
    ))
    return rep


def time_pinned_resolvent_scan(beta: float, n: int = 4000, b: float = 3.0):
    """Runtime reference: generic scan at the fixed grid size n.

    The fixed grid resolves frequencies up to about n pi / (20 b), so the scan
    covers whatever part of [6, 200] that allows; returns (elapsed, result).
    """
    cfg = default_config(beta)
    q_max = min(200.0, n * math.pi / (20.0 * b) * 0.999)
    qs = np.geomspace(6.3, q_max, 12)
    t0 = time.perf_counter()
    scan = resolvent.scan_and_fit(qs, cfg.profile, n=n)
    return time.perf_counter() - t0, scan


# ---------------------------------------------------------------------------
# criterion 8: time-domain checks

@functools.lru_cache(maxsize=None)
def evolve_decay_data(beta: float):
    cfg = default_config(beta)
    ctx = context_for(beta)
    out = []
    for m in EVOLVE_MODES[beta]:
        h = select_h(m, cfg.profile.b)
        sol = eigen.find_eigenvalue(ctx.l, h, ctx)
        qm = quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)
        q = qm.q
        n = max(600, int(round(2.0 * cfg.profile.b / (qm.s / 25.0))))
        state = evolve.quasimode_state(qm, n)
        dt = 0.12 / q.real
        T = 0.025 / q.imag
        stride = max(1, int(round(T / dt / 400)))
        trace = evolve.evolve(state, cfg.profile, dt, T, stride=stride)
        fit = evolve.fit_exponential_rate(trace)
        out.append((qm, trace, fit))
    return cfg, out


def check_quasimode_decay(beta: float, thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    cfg, runs = evolve_decay_data(beta)
    rows = []
    for qm, trace, fit in runs:
        expected = 2.0 * qm.q.imag
        measured = -fit.slope
        rel = abs(measured - expected) / expected
        rep.checks.append(Check(
            f"quasimode decay rate (beta={beta:g}, m={qm.m})",
            rel <= thresholds["decay_rate_rtol"],
            f"{measured:.5e} (rel err {rel:.2%})",
            f"2 Im q = {expected:.5e} within {thresholds['decay_rate_rtol']:.0%}",
        ))
        rows.extend(
            {"m": qm.m, "t": t, "E": e}
            for t, e in zip(trace.times, trace.energies)
        )
    rep.rows["energy_traces"] = rows
    return rep


def check_conservation_and_gcc(thresholds=DEFAULT_THRESHOLDS) -> StageReport:
    rep = StageReport()
    cfg, runs = evolve_decay_data(1.0)
    qm = runs[0][0]
    b = cfg.profile.b
    n = 1200
    state = evolve.quasimode_state(qm, n)
    zero = UniformDamping(0.0, b)
    trace = evolve.evolve(state, zero, dt=2e-3, T=40.0, stride=20)
    drift = float(np.max(np.abs(trace.energies / trace.energies[0] - 1.0)))
    rep.checks.append(Check(
        "undamped evolution conserves energy",
        drift <= thresholds["conservation_rtol"],
        f"max relative drift {drift:.2e}",
        f"<= {thresholds['conservation_rtol']:.0e}",
    ))
    gcc = UniformDamping(1.0, b)
    trace_gcc = evolve.evolve(state, gcc, dt=1e-3, T=60.0, stride=50)
    fit = evolve.fit_exponential_rate(trace_gcc, t_min=3.0)
    rep.checks.append(Check(
        "uniform damping gives straight log-energy",
        fit.r2 >= thresholds["gcc_r2_floor"] and fit.slope < 0,
        f"r^2 = {fit.r2:.5f}, rate {-fit.slope:.3f}",
        f"r^2 >= {thresholds['gcc_r2_floor']} with negative slope",
    ))
    rate_fit = evolve.fit_decay(trace_gcc)
    rep.checks.append(Check(
        "power-law fit flags exponential trace as inconclusive",
        rate_fit.inconclusive,
        f"r^2 = {rate_fit.r2:.3f}, reason {rate_fit.reason!r}",
        "flagged (low r^2 or log-log curvature), no exponent asserted",
    ))
    return rep


# ---------------------------------------------------------------------------
# criterion 9: cross-validation of the two root parametrizations

def check_crossval(thresholds=DEFAULT_THRESHOLDS, count: int = 10, seed: int = 20240807) -> StageReport:
    rep = StageReport()
    rng = np.random.default_rng(seed)
    worst = 0.0
    rows = []
    for _ in range(count):
        beta = float(rng.uniform(0.4, 2.5))
        l = int(rng.integers(1, 3))
        ctx = eigen.build_context(beta, 1.0, l, BC_DIRICHLET)
        h_max = eigen.admissible_h_max(ctx)
        h = float(rng.uniform(0.3, 0.7) * h_max)
        newton = eigen.find_eigenvalue(l, h, ctx)
        _, mu_raw, _ = eigen.raw_compatibility_root(l, h, ctx)
        gap = abs(newton.mu - mu_raw)
        worst = max(worst, gap)
        rows.append({"beta": beta, "l": l, "h": h, "mu_gap": gap})
    rep.checks.append(Check(
        "Newton root equals raw matching root",
        worst <= thresholds["crossval_mu_tol"],
        f"max |mu difference| = {worst:.2e}",
        f"<= {thresholds['crossval_mu_tol']:.0e} over {count} random draws",
    ))
    rep.rows["crossval"] = rows
    return rep


# ---------------------------------------------------------------------------

def verify_all(beta: float, thresholds=DEFAULT_THRESHOLDS):
    """Full pipeline for one beta, yielded stage by stage.

    Yields (name, StageReport) as each stage completes so a driver can flush
    artifacts incrementally; a failure mid-pipeline leaves everything already
    yielded on disk.
    """
    stages = [
        ("cap-oracle", lambda: check_cap_oracle(thresholds)),
        ("neumann", lambda: check_neumann_oracles(thresholds)),
        ("eigen", lambda: check_eigen_scaling(beta, thresholds)),
        ("frequency", lambda: check_frequency_placement(beta, thresholds)),
        ("residual", lambda: check_residual_scaling(beta, thresholds)),
        ("tail", lambda: check_tail_decay(beta, thresholds)),
        ("resolvent", lambda: check_resolvent_band(beta, thresholds)),
        ("resolvent-w0", lambda: check_resolvent_w0_control(thresholds)),
        ("resolvent-gcc", check_resolvent_gcc_control),
        ("evolve", lambda: check_quasimode_decay(beta, thresholds)),
        ("evolve-controls", lambda: check_conservation_and_gcc(thresholds)),
        ("crossval", lambda: check_crossval(thresholds)),
    ]
    for name, fn in stages:
        yield name, fn()
