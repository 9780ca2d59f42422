"""The four workloads: their inputs, one timed pass, and the output checks.

A pass calls the layers directly. The lru-cached ``verify`` data functions
and ``verify.context_for`` are never used, so no pass after the first is a
dictionary lookup; from ``verify`` only the pinned windows and the default
geometry are read. Every input is a pinned ``verify`` window except the
cross-validation triples of ``branch-matching``, which the seed draws.

``run_pass`` returns an ordered mapping from operation label to output. An
operation is a matched root, a built quasimode, a scanned peak, an evolve
run or a control. ``check`` returns the checks of one pass's outputs, each
naming the operations it covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stripdamp import eigen, evolve, quasimode, resolvent, verify
from stripdamp.model import BC_DIRICHLET, UniformDamping, select_h

from . import checks as ck

A = 1.0
L_MODE = 1
FD_GRID = 40000    # intervals of the uniform grid of the finite-difference residual


@dataclass(frozen=True)
class Check:
    name: str
    ops: tuple
    passed: bool
    measured: str


def _root_fingerprint(sol):
    return (sol.mu.real, sol.mu.imag, sol.iterations)


def _continuation(ctx, m_list, b):
    """Roots along a mode list, each Newton run seeded with the last mu."""
    out, mu = [], 0.0 + 0.0j
    for m in m_list:
        sol = eigen.find_eigenvalue(ctx.l, select_h(m, b), ctx, mu0=mu)
        mu = sol.mu
        out.append((m, sol))
    return out


def _mu_check(label, sol):
    return Check(f"|mu| < 1 ({label})", (label,), abs(sol.mu) < 1.0, f"|mu| = {abs(sol.mu):.3e}")


class BranchMatching:
    """Newton continuation over the pinned h windows and mode lists."""

    name = "branch-matching"
    betas = (0.0, 1.0, 2.0)
    crossval_draws = 4

    def __init__(self, seed: int):
        self.b = verify.default_config(0.0).profile.b
        self.ctx = {beta: eigen.build_context(beta, A, L_MODE, BC_DIRICHLET)
                    for beta in self.betas}
        self.windows = {
            beta: np.geomspace(verify.EIGEN_H_WINDOWS[beta][1], verify.EIGEN_H_WINDOWS[beta][0],
                               verify.EIGEN_SWEEP_POINTS)
            for beta in self.betas
        }
        # the seed draws the cross-validation points from the pinned beta = 1
        # and 2 windows; each is solved cold by Newton and by the secant
        pool = [(beta, float(h)) for beta in (1.0, 2.0) for h in self.windows[beta]]
        picks = np.random.default_rng(seed).choice(len(pool), self.crossval_draws, replace=False)
        self.draws = [pool[i] for i in sorted(picks)]
        self.residual_m = verify.RESIDUAL_SWEEP[2.0][0]
        self.cold_m = verify.EVOLVE_MODES[1.0][0]
        self.n_ops = (len(self.betas) * verify.EIGEN_SWEEP_POINTS + len(self.residual_m)
                      + 1 + self.crossval_draws)

    def run_pass(self):
        out = {}
        for beta in self.betas:
            for i, sol in enumerate(eigen.eigen_sweep(self.ctx[beta], self.windows[beta])):
                out[f"window beta={beta:g} #{i}"] = sol
        for m, sol in _continuation(self.ctx[2.0], self.residual_m, self.b):
            out[f"residual-sweep beta=2 m={m}"] = sol
        out[f"cold beta=1 m={self.cold_m}"] = eigen.find_eigenvalue(
            L_MODE, select_h(self.cold_m, self.b), self.ctx[1.0])
        for beta, h in self.draws:
            ctx = self.ctx[beta]
            newton = eigen.find_eigenvalue(L_MODE, h, ctx)
            _, mu_raw, iters = eigen.raw_compatibility_root(L_MODE, h, ctx)
            out[f"crossval beta={beta:g} h={h:.4e}"] = (newton, mu_raw, iters)
        return out

    @staticmethod
    def fingerprint(out):
        if isinstance(out, tuple):
            return _root_fingerprint(out[0]) + (out[1].real, out[1].imag, out[2])
        return _root_fingerprint(out)

    def check(self, outputs):
        result = []
        for label, out in outputs.items():
            if isinstance(out, tuple):
                sol, mu_raw, _ = out
                gap = abs(sol.mu - mu_raw)
                result.append(Check(f"Newton and secant roots agree ({label})", (label,),
                                    gap <= ck.CROSSVAL_MU_TOL, f"|mu gap| = {gap:.2e}"))
            else:
                sol = out
            ctx = self.ctx[sol.beta]
            d = ck.matching_defect(sol.lambda_h, sol.h, ctx.beta, ctx.a, ctx.cap_L)
            result.append(Check(f"matching equation, independent F(0) ({label})", (label,),
                                d <= ck.MATCHING_RTOL, f"relative defect {d:.2e}"))
            result.append(_mu_check(label, sol))
        for beta in self.betas:
            labels = tuple(k for k in outputs if k.startswith(f"window beta={beta:g} "))
            sols = [outputs[k] for k in labels]
            slope = ck.gap_exponent([s.h for s in sols], [s.lambda_h for s in sols], L_MODE, A)
            expected = (beta + 4.0) / (beta + 2.0)
            result.append(Check(f"gap exponent (beta={beta:g})", labels,
                                abs(slope - expected) <= ck.GAP_EXPONENT_TOL,
                                f"{slope:.4f} against {expected:.4f}"))
        return result


class QuasimodeProfiles:
    """Quasimode assembly at the pinned residual-sweep meshes."""

    name = "quasimode-profiles"
    betas = (0.0, 2.0)
    # top of the beta = 0 list (the 4.7M-point solve) and bottom of the
    # beta = 2 list (the finest mesh, and the FD residual check's point)
    modes = {0.0: verify.RESIDUAL_SWEEP[0.0][0][-2:], 2.0: verify.RESIDUAL_SWEEP[2.0][0][:2]}

    def __init__(self, seed: int):
        self.cfg = {beta: verify.default_config(beta) for beta in self.betas}
        self.ctx = {beta: eigen.build_context(beta, A, L_MODE, BC_DIRICHLET)
                    for beta in self.betas}
        self.n_ops = 2 * sum(len(ms) for ms in self.modes.values())

    def run_pass(self):
        out = {}
        for beta in self.betas:
            cfg, mesh = self.cfg[beta], verify.RESIDUAL_SWEEP[beta][1]
            for m, sol in _continuation(self.ctx[beta], self.modes[beta], cfg.profile.b):
                out[f"root beta={beta:g} m={m}"] = sol
                out[f"quasimode beta={beta:g} m={m}"] = quasimode.build_quasimode(
                    sol, cfg.profile, cfg.cutoff, cap_dx=mesh)
        return out

    @staticmethod
    def fingerprint(out):
        if isinstance(out, quasimode.Quasimode):
            return (out.residual, out.tail, out.norm, out.x.size)
        return _root_fingerprint(out)

    def check(self, outputs):
        result = []
        for beta in self.betas:
            p = self.cfg[beta].profile
            labels = [k for k in outputs if k.startswith(f"quasimode beta={beta:g} ")]
            qms = [outputs[k] for k in labels]
            for label, qm in zip(labels, qms):
                root = label.replace("quasimode", "root")
                result.append(_mu_check(root, outputs[root]))
                if beta == 0:
                    d = ck.beta0_profile_defect(qm.x, qm.v, qm.lambda_h, qm.eig.eta, qm.h, p.a)
                    result.append(Check(f"profile beyond a is the exponential ({label})",
                                        (label,), d <= ck.BETA0_PROFILE_RTOL,
                                        f"max defect / max|v| = {d:.2e}"))
                else:
                    d = ck.damping_identity_defect(qm.x, qm.w, qm.v, qm.lambda_h, beta, p.a)
                    result.append(Check(f"damping identity ({label})", (label,),
                                        d <= ck.DAMPING_IDENTITY_RTOL,
                                        f"relative defect {d:.2e}"))
            if beta > 0:
                qm = qms[0]
                u = qm.evaluate(np.linspace(0.0, p.b, FD_GRID + 1))
                fd = ck.fd_residual(u, p.b, qm.q, qm.m, beta, p.a, p.sigma)
                rel = abs(fd / qm.residual - 1.0)
                result.append(Check(f"finite-difference residual ({labels[0]})", (labels[0],),
                                    rel <= ck.FD_RESIDUAL_RTOL,
                                    f"{fd:.4e} against stored {qm.residual:.4e} ({rel:.2%})"))
            scaled = [qm.residual * qm.q.real for qm in qms]
            result.append(Check(f"residual * Re q does not grow (beta={beta:g})", tuple(labels),
                                all(y <= x for x, y in zip(scaled, scaled[1:])),
                                " > ".join(f"{s:.4e}" for s in scaled)))
        return result


class ResolventPeaks:
    """Peak-aligned resolvent scans over the first branches of each beta."""

    name = "resolvent-peaks"
    betas = (1.0,)
    branches = {1.0: verify.RESOLVENT_BRANCH_M[1.0][:2]}

    def __init__(self, seed: int):
        self.cfg = {beta: verify.default_config(beta) for beta in self.betas}
        self.ctx = {beta: eigen.build_context(beta, A, L_MODE, BC_DIRICHLET)
                    for beta in self.betas}
        self.n_ops = 2 * sum(len(ms) for ms in self.branches.values())

    def run_pass(self):
        out = {}
        for beta in self.betas:
            profile = self.cfg[beta].profile
            roots = _continuation(self.ctx[beta], self.branches[beta], profile.b)
            for m, sol in roots:
                out[f"root beta={beta:g} m={m}"] = sol
            scan = resolvent.scan_peaks([sol for _, sol in roots], profile)
            for (m, _), sample in zip(roots, scan.samples):
                out[f"peak beta={beta:g} m={m}"] = sample
        return out

    @staticmethod
    def fingerprint(out):
        if isinstance(out, resolvent.ResolventSample):
            return (out.q, out.m, out.norm, out.n)
        return _root_fingerprint(out)

    def check(self, outputs):
        result = []
        for beta in self.betas:
            p = self.cfg[beta].profile
            labels = [k for k in outputs if k.startswith(f"peak beta={beta:g} ")]
            for label in labels:
                s = outputs[label]
                root = label.replace("peak", "root")
                result.append(_mu_check(root, outputs[root]))
                dx = 2.0 * p.b / (s.n + 1)
                x = -p.b + dx * np.arange(1, s.n + 1)
                smin, its = ck.sigma_min_inverse_iteration(
                    s.q, s.m, s.n, p.b, ck.damping(x, beta, p.a, p.sigma))
                rel = abs(smin * s.norm - 1.0)
                result.append(Check(f"sigma_min by banded inverse iteration ({label})", (label,),
                                    rel <= ck.SIGMA_MIN_RTOL,
                                    f"relative difference {rel:.1e} after {its} iterations"))
            norms = [outputs[k].norm for k in labels]
            result.append(Check(f"peak norm grows from branch to branch (beta={beta:g})",
                                tuple(labels), all(y > x for x, y in zip(norms, norms[1:])),
                                " < ".join(f"{v:.5f}" for v in norms)))
        return result


class DecayAndControls:
    """Implicit-midpoint decay of beta = 1 quasimodes and the control operators."""

    name = "decay-and-controls"
    betas = (1.0,)
    undamped_point = (11.0, 3, 4000)     # (q, m, n)
    uniform_q = (20.0, 640.0)            # 1.5 decades, the fit's minimum span
    dissipation_steps = 200

    def __init__(self, seed: int):
        beta = 1.0
        cfg = verify.default_config(beta)
        self.profile, self.b = cfg.profile, cfg.profile.b
        ctx = eigen.build_context(beta, A, L_MODE, BC_DIRICHLET)
        # the decay runs start from quasimode data built once per run; their
        # matching and assembly are measured by the other workloads
        self.runs = []
        for m in verify.EVOLVE_MODES[beta]:
            sol = eigen.find_eigenvalue(L_MODE, select_h(m, self.b), ctx)
            qm = quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)
            n = max(600, int(round(2.0 * self.b / (qm.s / 25.0))))
            dt = 0.12 / qm.q.real
            T = 0.025 / qm.q.imag
            stride = max(1, int(round(T / dt / 400)))
            self.runs.append((qm, evolve.quasimode_state(qm, n), dt, T, stride))
        self.n_ops = len(self.runs) + 2

    def run_pass(self):
        out = {}
        for qm, state, dt, T, stride in self.runs:
            out[f"evolve beta=1 m={qm.m}"] = evolve.evolve(state, self.profile, dt, T, stride=stride)
        q, m, n = self.undamped_point
        out["control undamped"] = resolvent.resolvent_norm(q, m, UniformDamping(0.0, self.b), n)
        out["control uniform"] = resolvent.scan_and_fit(self.uniform_q, UniformDamping(1.0, self.b))
        return out

    @staticmethod
    def fingerprint(out):
        if isinstance(out, evolve.EnergyTrace):
            return (out.times.size, out.energies[-1])
        if isinstance(out, resolvent.ResolventSample):
            return (out.norm,)
        return tuple(s.norm for s in out.samples)

    def check(self, outputs):
        result = []
        for qm, state, dt, T, stride in self.runs:
            label = f"evolve beta=1 m={qm.m}"
            trace = outputs[label]
            rate = ck.exponential_rate(trace.times, trace.energies)
            rel = abs(rate / (2.0 * qm.q.imag) - 1.0)
            result.append(Check(f"decay rate is 2 Im q ({label})", (label,),
                                rel <= ck.DECAY_RATE_RTOL, f"relative error {rel:.2%}"))
        d = ck.dissipation_defect(*self.dissipation_terms())
        label = f"evolve beta=1 m={self.runs[0][0].m}"
        result.append(Check(f"discrete dissipation identity ({label})", (label,),
                            d <= ck.DISSIPATION_RTOL, f"max defect / E0 = {d:.1e}"))
        q, m, n = self.undamped_point
        exact = ck.undamped_resolvent_norm(q, m, n, self.b)
        rel = abs(outputs["control undamped"].norm / exact - 1.0)
        result.append(Check("undamped resolvent is the distance formula", ("control undamped",),
                            rel <= ck.DISTANCE_RTOL, f"relative error {rel:.1e}"))
        samples = outputs["control uniform"].samples
        slope = ck.loglog_slope([s.q for s in samples], [s.norm for s in samples])
        result.append(Check("uniformly damped resolvent does not grow", ("control uniform",),
                            slope <= ck.UNIFORM_GROWTH_MAX, f"exponent {slope:.3f}"))
        return result

    def dissipation_terms(self):
        """(energies, per-step dissipations) of a short run that stores every state."""
        _, state, dt, _, _ = self.runs[0]
        _, states = evolve.evolve(state, self.profile, dt, self.dissipation_steps * dt,
                                  store_states=True)
        W = ck.damping(state.x, self.profile.beta, self.profile.a, self.profile.sigma)
        energies = [ck.wave_energy(s.u, s.v, s.m, s.b) for s in states]
        dissipations = [ck.step_dissipation(s0.v, s1.v, W, dt, self.b)
                        for s0, s1 in zip(states, states[1:])]
        return energies, dissipations


WORKLOADS = {w.name: w for w in (BranchMatching, QuasimodeProfiles, ResolventPeaks,
                                 DecayAndControls)}
