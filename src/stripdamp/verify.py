"""Acceptance pipelines with pinned windows and tolerances.

Every scaling law the package certifies is measured here, with the sweep
windows fixed once (chosen so the asymptotic regime dominates: large enough
frequencies that the matching corrections have decayed, small enough that
solver noise floors stay negligible). Both the command-line verifier and the
test suite call these functions, so a passing suite and a passing
``verify-all`` run are the same statement; ``tests/test_options.py`` checks
that both run the same checks.
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
    CutoffFunction,
    DampingProfile,
    RunConfig,
    StripGrid,
    UniformDamping,
    select_h,
    transverse_shift,
)

BETAS = (0.0, 1.0, 2.0)

# fixed tolerances of every check; manifest.json records them
THRESHOLDS = {
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
    "construction_slope_tol": 0.1,
    "residual_bound_slack": 1.5,
    "tail_floor": 1e-280,
    "gcc_resolvent_slope_max": 0.05,
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

# quasimode sweeps: m lists. The residual sweep keeps build_quasimode's
# default half-line mesh beside its list only because the benchmark passes
# that on as cap_dx
RESIDUAL_SWEEP = {
    0.0: (tuple(128 * 2**k for k in range(6)), cap._DEFAULT_DX),
    1.0: (tuple(256 * 2**k for k in range(6)), cap._DEFAULT_DX),
    2.0: (tuple(512 * 2**k for k in range(6)), cap._DEFAULT_DX),
}
TAIL_SWEEP = {
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

# time-domain checks: two mode numbers per beta, each stepped by decay_run
EVOLVE_MODES = {0.0: (64, 128), 1.0: (64, 128), 2.0: (512, 724)}


def default_config(beta: float) -> RunConfig:
    """The pinned geometry: strip half-width 1, growth width 1, square (-3, 3)."""
    profile = DampingProfile(beta=beta, a=1.0, sigma=1.0, b=3.0)
    cutoff = CutoffFunction(b=3.0, delta=0.4)
    return RunConfig(profile=profile, cutoff=cutoff)


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
def context_for(beta: float) -> eigen.EigenContext:
    """Matching context of the pinned geometry: l = 1, Dirichlet at the strip."""
    return eigen.build_context(beta, default_config(beta).profile.a, 1)


def mode_branch(beta: float, m_list):
    """(m, solution) along ascending m, each solve seeded by the previous root."""
    b = default_config(beta).profile.b
    ms = sorted(m_list)
    ctx = context_for(beta)
    return list(zip(ms, eigen.eigen_sweep(ctx, [select_h(m, b) for m in ms])))


# CSV row shapes shared by verify-all and the sweep subcommands

def eigen_rows(sols) -> list:
    return [
        {
            "h": s.h, "re_lambda": s.lambda_h.real, "im_lambda": s.lambda_h.imag,
            "re_C": s.C_h.real, "im_C": s.C_h.imag,
            "newton_iterations": s.iterations, "newton_residual": s.newton_residual,
            "newton_stop": s.newton_stop,
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

def check_cap_oracle() -> StageReport:
    rep = StageReport()
    t0 = time.perf_counter()
    sol = cap.solve_cap(0.0, 1.0)
    elapsed = time.perf_counter() - t0
    exact = airy_boundary_value()
    rel = abs(sol.boundary_value - exact) / abs(exact)
    rep.checks.append(Check(
        "cap boundary value vs Airy closed form",
        rel <= THRESHOLDS["airy_rtol"],
        f"rel err {rel:.2e} in {elapsed:.2f}s",
        f"<= {THRESHOLDS['airy_rtol']:.0e} in < {THRESHOLDS['airy_budget_s']}s",
    ))
    rep.checks.append(Check(
        "cap oracle runtime",
        elapsed < THRESHOLDS["airy_budget_s"],
        f"{elapsed:.2f}s", f"< {THRESHOLDS['airy_budget_s']}s",
    ))
    return rep


def check_neumann_oracles() -> StageReport:
    rep = StageReport()
    g2 = cap.neumann_ground(2.0)
    rep.checks.append(Check(
        "Neumann ground level, quadratic potential",
        abs(g2.value - 1.0) <= THRESHOLDS["neumann_beta2_tol"],
        f"{g2.value:.8f}", f"1 within {THRESHOLDS['neumann_beta2_tol']:.0e}",
    ))
    g1 = cap.neumann_ground(1.0)
    rep.checks.append(Check(
        "Neumann ground level, linear potential",
        abs(g1.value - AI_PRIME_FIRST_ZERO) <= THRESHOLDS["neumann_beta1_tol"],
        f"{g1.value:.8f}",
        f"{AI_PRIME_FIRST_ZERO:.6f} within {THRESHOLDS['neumann_beta1_tol']:.0e}",
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


def check_eigen_scaling(beta: float) -> StageReport:
    rep = StageReport()
    ctx, sols, elapsed = eigen_scaling_data(beta)
    hs = np.array([s.h for s in sols])
    gaps = np.array([s.scaling_gap for s in sols])
    fit = loglog_fit(hs, gaps)
    expected = (beta + 4.0) / (beta + 2.0)
    rep.checks.append(Check(
        f"eigenvalue gap h-exponent (beta={beta:g})",
        abs(fit.slope - expected) <= THRESHOLDS["lambda_slope_tol"],
        f"{fit.slope:.4f}", f"{expected:.4f} +- {THRESHOLDS['lambda_slope_tol']}",
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
        elapsed < THRESHOLDS["eigen_budget_s"],
        f"{elapsed:.1f}s", f"< {THRESHOLDS['eigen_budget_s']}s",
    ))
    rep.rows["eigen_sweep"] = eigen_rows(sols)
    return rep


# ---------------------------------------------------------------------------
# criterion 5: frequency placement through the mode ansatz

@functools.lru_cache(maxsize=None)
def mode_scaling_data(beta: float):
    b = default_config(beta).profile.b
    return [(m, sol, quasimode.ansatz_params(sol, b))
            for m, sol in mode_branch(beta, MODE_SWEEP_M[beta])]


def check_frequency_placement(beta: float) -> StageReport:
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
        abs(fit.slope - expected) <= THRESHOLDS["imq_slope_tol"],
        f"{fit.slope:.4f}", f"{expected:.4f} +- {THRESHOLDS['imq_slope_tol']}",
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

def quasimode_sweep(beta: float, m_list) -> list:
    """Quasimodes along ascending m in the pinned geometry."""
    cfg = default_config(beta)
    return [quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)
            for _, sol in mode_branch(beta, m_list)]


@functools.lru_cache(maxsize=None)
def quasimode_sweep_data(beta: float, which: str):
    m_list = {"residual": RESIDUAL_SWEEP[beta][0], "tail": TAIL_SWEEP[beta]}[which]
    return quasimode_sweep(beta, m_list)


def check_residual_scaling(beta: float) -> StageReport:
    rep = StageReport()
    qms = quasimode_sweep_data(beta, "residual")
    re_q = np.array([qm.q.real for qm in qms])
    res = np.array([qm.residual for qm in qms])
    fit = loglog_fit(re_q, res)
    target = THRESHOLDS["residual_slope_target"]
    tol = THRESHOLDS["residual_slope_tol"]
    inner = loglog_fit(re_q, [qm.inner_residual for qm in qms])
    construction = -(4.0 * beta + 7.0) / (2.0 * (beta + 2.0))
    rep.checks.append(Check(
        f"quasimode residual exponent (beta={beta:g})",
        abs(fit.slope - target) <= tol,
        f"{fit.slope:.4f}", f"{target:.1f} +- {tol}",
        f"this construction scales like {construction:.4f}; "
        "see the acceptance notes in the README",
    ))
    ctol = THRESHOLDS["construction_slope_tol"]
    rep.checks.append(Check(
        f"residual matches the construction exponent (beta={beta:g})",
        abs(fit.slope - construction) <= ctol,
        f"{fit.slope:.4f}", f"{construction:.4f} +- {ctol}",
        "exponent the glued-profile residual actually obeys; "
        f"the residual on x < a + sigma alone fits {inner.slope:.4f}",
    ))
    # the bound the construction provably satisfies: residual * Re q stays bounded
    bound_seq = res * re_q
    slack = THRESHOLDS["residual_bound_slack"]
    rep.checks.append(Check(
        f"residual bounded by C / Re q (beta={beta:g})",
        bool(np.all(bound_seq <= slack * bound_seq[0])),
        f"max residual*Re q = {bound_seq.max():.3e}",
        f"non-increasing up to {slack - 1:.0%} slack",
    ))
    rep.rows["quasimode_sweep"] = quasimode_rows(qms)
    return rep


def check_tail_decay(beta: float) -> StageReport:
    rep = StageReport()
    qms = quasimode_sweep_data(beta, "tail")
    profile = default_config(beta).profile
    hs = np.array([qm.h for qm in qms])
    tails = np.array([qm.tail for qm in qms])
    ok = tails > THRESHOLDS["tail_floor"]
    slopes = local_slopes(hs[ok], tails[ok])
    levels = THRESHOLDS["tail_levels"]
    # fewer than two slopes cannot show an increase: the check fails
    passed = len(slopes) > 1 and (
        bool(np.all(np.diff(slopes) > 0))
        and all(slopes[min(i, len(slopes) - 1)] > N for i, N in enumerate(levels))
    )
    rep.checks.append(Check(
        f"tail mass decays super-polynomially (beta={beta:g})",
        passed,
        f"local slopes {np.array2string(slopes, precision=1)}",
        f"increasing and exceeding {levels} in turn",
    ))
    worst_excess = 0.0
    for qm in qms:
        ratio, bound = quasimode.mass_bound_check(qm, profile)
        worst_excess = max(worst_excess, ratio - bound)
    rep.checks.append(Check(
        f"uncut mass bound with constant 1 + s^b/(s^b - h^2) (beta={beta:g})",
        worst_excess <= 0.0,
        f"max(ratio - bound) = {worst_excess:.3e}", "<= 0",
    ))
    worst_id = 0.0
    for qm in qms[:3]:
        lhs, rhs = quasimode.damping_identity(qm, profile)
        worst_id = max(worst_id, abs(lhs - rhs) / abs(rhs))
    rep.checks.append(Check(
        f"damping energy identity (beta={beta:g})",
        worst_id <= THRESHOLDS["identity_rtol"],
        f"rel defect {worst_id:.2e}", f"<= {THRESHOLDS['identity_rtol']:.0e}",
    ))
    rep.rows["tail_sweep"] = [
        {"m": qm.m, "h": qm.h, "tail": qm.tail, "re_q": qm.q.real}
        for qm in qms
    ]
    return rep


# ---------------------------------------------------------------------------
# criterion 7: resolvent scans

def resolvent_scan(beta: float, m_list):
    """Peak-aligned scan over the branches m_list; returns (scan, scan seconds)."""
    sols = [sol for _, sol in mode_branch(beta, m_list)]
    t0 = time.perf_counter()
    scan = resolvent.scan_peaks(sols, default_config(beta).profile)
    return scan, time.perf_counter() - t0


def resolvent_band(beta: float) -> tuple:
    """(lo, hi): the theory band [1/(beta+2), 2/(beta+2)] of the resolvent
    growth exponent, widened on each side by the pad the gate allows."""
    pad = THRESHOLDS["resolvent_band_pad"]
    return 1.0 / (beta + 2.0) - pad, 2.0 / (beta + 2.0) + pad


@functools.lru_cache(maxsize=None)
def resolvent_scan_data(beta: float):
    return resolvent_scan(beta, RESOLVENT_BRANCH_M[beta])


def check_resolvent_band(beta: float) -> StageReport:
    rep = StageReport()
    scan, elapsed = resolvent_scan_data(beta)
    lo, hi = resolvent_band(beta)
    rep.checks.append(Check(
        f"resolvent growth exponent in band (beta={beta:g})",
        lo <= scan.fit.slope <= hi,
        f"{scan.fit.slope:.4f}", f"[{lo:.4f}, {hi:.4f}]",
    ))
    rep.checks.append(Check(
        f"resolvent scan runtime (beta={beta:g})",
        elapsed < THRESHOLDS["resolvent_budget_s"],
        f"{elapsed:.0f}s", f"< {THRESHOLDS['resolvent_budget_s']:.0f}s",
    ))
    rep.rows["resolvent_scan"] = resolvent_rows(scan.samples)
    return rep


def check_resolvent_w0_control() -> StageReport:
    """Undamped operator: 1/norm equals the distance to the discrete spectrum."""
    rep = StageReport()
    b, n = 3.0, 4000
    q, m = 11.0, 3
    zero = UniformDamping(0.0, b)
    samp = resolvent.resolvent_norm(q, m, zero, n)
    eigs = StripGrid(b, n).spectrum + transverse_shift(m, b) - q * q
    exact = 1.0 / np.min(np.abs(eigs))
    rel = abs(samp.norm - exact) / exact
    rep.checks.append(Check(
        "undamped resolvent vs self-adjoint distance formula",
        rel <= THRESHOLDS["resolvent_w0_rtol"],
        f"rel err {rel:.2e}", f"<= {THRESHOLDS['resolvent_w0_rtol']:.0e}",
    ))
    return rep


def check_resolvent_gcc_control() -> StageReport:
    """Damping bounded below: resolvent stays bounded along the real axis."""
    rep = StageReport()
    gcc = UniformDamping(1.0, 3.0)
    qs = np.geomspace(20.0, 640.0, 6)
    scan = resolvent.scan_and_fit(qs, gcc)
    top = THRESHOLDS["gcc_resolvent_slope_max"]
    rep.checks.append(Check(
        "uniformly damped resolvent does not grow",
        scan.fit.slope <= top,
        f"exponent {scan.fit.slope:.3f}", f"<= {top} (measured near -1)",
    ))
    return rep


def time_pinned_resolvent_scan(beta: float):
    """Runtime reference: generic scan on 12 frequencies over [6.3, 200].

    scan_point resolves all of them at its floor of n = 4000 points, so the
    scan runs on one fixed grid size; returns (elapsed, result).
    """
    qs = np.geomspace(6.3, 200.0, 12)
    t0 = time.perf_counter()
    scan = resolvent.scan_and_fit(qs, default_config(beta).profile)
    return time.perf_counter() - t0, scan


# ---------------------------------------------------------------------------
# criterion 8: time-domain checks

def decay_run(beta: float, m: int):
    """(qm, state, dt, T, stride): the pinned decay run of mode m.

    The root is matched cold and the quasimode sampled with 25 points per
    layer width s (at least 600). The step resolves the carrier,
    dt = 0.12 / Re q, over T = 0.025 / Im q, and about 400 samples are kept.
    """
    cfg = default_config(beta)
    ctx = context_for(beta)
    sol = eigen.find_eigenvalue(ctx.l, select_h(m, cfg.profile.b), ctx)
    qm = quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)
    n = max(600, int(round(2.0 * cfg.profile.b / (qm.s / 25.0))))
    dt = 0.12 / qm.q.real
    T = 0.025 / qm.q.imag
    stride = max(1, int(round(T / dt / 400)))
    return qm, evolve.quasimode_state(qm, n), dt, T, stride


@functools.lru_cache(maxsize=None)
def evolve_decay_data(beta: float):
    profile = default_config(beta).profile
    out = []
    for m in EVOLVE_MODES[beta]:
        qm, state, dt, T, stride = decay_run(beta, m)
        trace = evolve.evolve(state, profile, dt, T, stride=stride)
        out.append((qm, trace, evolve.fit_exponential_rate(trace)))
    return out


def check_quasimode_decay(beta: float) -> StageReport:
    rep = StageReport()
    runs = evolve_decay_data(beta)
    rows = []
    for qm, trace, fit in runs:
        expected = 2.0 * qm.q.imag
        measured = -fit.slope
        rel = abs(measured - expected) / expected
        rep.checks.append(Check(
            f"quasimode decay rate (beta={beta:g}, m={qm.m})",
            rel <= THRESHOLDS["decay_rate_rtol"],
            f"{measured:.5e} (rel err {rel:.2%})",
            f"2 Im q = {expected:.5e} within {THRESHOLDS['decay_rate_rtol']:.0%}",
        ))
        rows.extend(
            {"m": qm.m, "t": t, "E": e}
            for t, e in zip(trace.times, trace.energies)
        )
    rep.rows["energy_traces"] = rows
    return rep


def check_conservation_and_gcc() -> StageReport:
    """Stepper controls on a fixed Gaussian bump, independent of beta."""
    rep = StageReport()
    b, n = 3.0, 1200
    x = StripGrid(b, n).x
    u = np.exp(-4.0 * x**2) * (1 + 0.2j)
    state = evolve.WaveState(u=u, v=np.zeros_like(u), m=3, b=b)
    zero = UniformDamping(0.0, b)
    trace = evolve.evolve(state, zero, dt=2e-3, T=40.0, stride=20)
    drift = float(np.max(np.abs(trace.energies / trace.energies[0] - 1.0)))
    rep.checks.append(Check(
        "undamped evolution conserves energy",
        drift <= THRESHOLDS["conservation_rtol"],
        f"max relative drift {drift:.2e}",
        f"<= {THRESHOLDS['conservation_rtol']:.0e}",
    ))
    gcc = UniformDamping(1.0, b)
    trace_gcc = evolve.evolve(state, gcc, dt=1e-3, T=60.0, stride=50)
    fit = evolve.fit_exponential_rate(trace_gcc, t_min=3.0)
    rep.checks.append(Check(
        "uniform damping gives straight log-energy",
        fit.r2 >= THRESHOLDS["gcc_r2_floor"] and fit.slope < 0,
        f"r^2 = {fit.r2:.5f}, rate {-fit.slope:.3f}",
        f"r^2 >= {THRESHOLDS['gcc_r2_floor']} with negative slope",
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

def check_crossval() -> StageReport:
    rep = StageReport()
    rng = np.random.default_rng(20240807)
    worst = 0.0
    rows = []
    for _ in range(10):
        beta = float(rng.uniform(0.4, 2.5))
        l = int(rng.integers(1, 3))
        ctx = eigen.build_context(beta, 1.0, l)
        h_max = eigen.admissible_h_max(ctx)
        h = float(rng.uniform(0.3, 0.7) * h_max)
        newton = eigen.find_eigenvalue(l, h, ctx)
        _, mu_raw, _ = eigen.raw_compatibility_root(l, h, ctx)
        gap = abs(newton.mu - mu_raw)
        worst = max(worst, gap)
        rows.append({"beta": beta, "l": l, "h": h, "mu_gap": gap})
    rep.checks.append(Check(
        "Newton root equals raw matching root",
        worst <= THRESHOLDS["crossval_mu_tol"],
        f"max |mu difference| = {worst:.2e}",
        f"<= {THRESHOLDS['crossval_mu_tol']:.0e} over 10 random draws",
    ))
    rep.rows["crossval"] = rows
    return rep


# ---------------------------------------------------------------------------

# verify-all's stages, as (stage, check function name). The names are looked
# up at run time, so a test can stub the checks.
SHARED_STAGES = (
    ("cap-oracle", "check_cap_oracle"),
    ("neumann", "check_neumann_oracles"),
    ("resolvent-w0", "check_resolvent_w0_control"),
    ("resolvent-gcc", "check_resolvent_gcc_control"),
    ("evolve-controls", "check_conservation_and_gcc"),
    ("crossval", "check_crossval"),
)
BETA_STAGES = (
    ("eigen", "check_eigen_scaling"),
    ("frequency", "check_frequency_placement"),
    ("residual", "check_residual_scaling"),
    ("tail", "check_tail_decay"),
    ("resolvent", "check_resolvent_band"),
    ("evolve", "check_quasimode_decay"),
)


def verify_all(*betas: float):
    """Full pipeline for the given betas, yielded stage by stage.

    The beta-independent stages run once, then the per-beta stages for each
    beta in turn, named with their beta (``eigen-beta1``). Yields
    (name, StageReport) as each stage completes so a caller can flush
    artifacts incrementally; a failure mid-pipeline leaves everything already
    yielded on disk.
    """
    for name, fn in SHARED_STAGES:
        yield name, globals()[fn]()
    for beta in betas:
        for name, fn in BETA_STAGES:
            yield f"{name}-beta{beta:g}", globals()[fn](beta)
