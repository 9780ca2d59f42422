import math

import numpy as np
import pytest

from stripdamp import eigen, quasimode, verify
from stripdamp.errors import PreconditionError
from stripdamp.fits import loglog_fit
from stripdamp.model import BC_DIRICHLET, CutoffFunction, DampingProfile, select_h
from stripdamp.quadrature import fd_derivative


def _pointwise_residual(qm, profile):
    """Residual of the reduced operator on qm.x, assembled as build_quasimode does."""
    lam = qm.eig.lambda_h
    coef = -(lam * lam) / qm.h2 - lam**4 / 4.0
    upp = qm.d2phi * qm.v + 2.0 * qm.dphi * qm.dv + qm.phi * qm.d2v
    return -upp + 1j * qm.q * profile.damping(qm.x) * qm.u + coef * qm.u


def _relative_norm(qm, f, sel):
    """L2 norm of f over the nodes sel, relative to the full norm of qm.u."""
    return math.sqrt(np.sum(qm.w[sel] * np.abs(f[sel]) ** 2)) / qm.norm


@pytest.fixture(scope="module")
def qm1(profile1, cutoff):
    ctx = verify.context_for(1.0)
    sol = eigen.find_eigenvalue(1, select_h(64, 3.0), ctx)
    return quasimode.build_quasimode(sol, profile1, cutoff)


class TestAssembly:
    def test_glue_continuity(self, qm1):
        eig = qm1.eig
        vl, _ = eigen.left_solution(eig.a, eig.lambda_h, qm1.h, eig.a, eig.bc)
        vr = eig.B * eig.f0_at_root
        assert abs(vl - vr) < 1e-10 * max(1.0, abs(vl))

    def test_profile_continuous_across_a(self, qm1):
        eps = 1e-9
        left = qm1.evaluate(np.array([qm1.eig.a - eps]))[0]
        right = qm1.evaluate(np.array([qm1.eig.a + eps]))[0]
        assert abs(left - right) < 1e-6 * abs(left)

    def test_odd_parity(self, qm1):
        x = np.linspace(0.1, 2.9, 57)
        assert np.allclose(qm1.evaluate(-x), -qm1.evaluate(x), rtol=1e-12)

    def test_even_parity_neumann(self, profile1, cutoff):
        ctx = eigen.build_context(1.0, 1.0, 0.5, "neumann")
        sol = eigen.find_eigenvalue(0.5, select_h(64, 3.0), ctx)
        qm = quasimode.build_quasimode(sol, profile1, cutoff)
        x = np.linspace(0.1, 2.9, 31)
        assert np.allclose(qm.evaluate(-x), qm.evaluate(x), rtol=1e-12)
        # even extension has zero central slope at grid order
        d = 1e-5
        slope = (qm.evaluate(np.array([d]))[0] - qm.evaluate(np.array([-d]))[0]) / (2 * d)
        assert abs(slope) < 1e-6 * np.max(np.abs(qm.u))

    def test_vanishes_at_wall(self, qm1):
        vals = qm1.evaluate(np.array([qm1.b - 1e-6, -(qm1.b - 1e-6)]))
        assert np.all(np.abs(vals) == 0.0)

    def test_precondition_on_h(self):
        # h = 0.0153 exceeds sigma^(beta/2) = 0.01 for this narrow profile
        profile = DampingProfile(beta=2.0, a=1.0, sigma=0.01, b=3.0)
        cut = CutoffFunction(b=3.0, delta=0.4)
        ctx = verify.context_for(2.0)
        sol = eigen.find_eigenvalue(1, select_h(2048, 3.0), ctx)
        with pytest.raises(PreconditionError):
            quasimode.build_quasimode(sol, profile, cut)


class TestAnsatz:
    def test_exact_frequency_relation(self, qm1):
        lam = qm1.eig.lambda_h
        assert qm1.q == pytest.approx(1.0 / qm1.h2 + lam * lam / 2.0, rel=1e-15)
        assert qm1.m == 64
        assert 4 * math.pi**2 * qm1.m**2 / qm1.b**2 == pytest.approx(
            1.0 / qm1.h2**2, rel=1e-14
        )

    def test_synthetic_zero_lambda(self, qm1):
        # with lambda = 0 the ansatz collapses to the pure transverse frequency
        import dataclasses
        eig0 = dataclasses.replace(qm1.eig, lambda_h=0.0 + 0.0j)
        q, m = quasimode.ansatz_params(eig0, qm1.b)
        assert q.imag == 0.0
        assert q == pytest.approx(1.0 / qm1.h2)

    def test_imq_constant_limit(self):
        # Im q / h^((2 beta + 6)/(beta + 2)) approaches pi l Im(C)/a, with a
        # first correction Re(C) h^(2/(beta+2)) from the square of lambda
        data = verify.mode_scaling_data(1.0)
        target = math.pi * 1 / 1.0
        gaps = []
        for m, sol, (q, _) in data[-3:]:
            val = q.imag / sol.h ** (8.0 / 3.0) / sol.C_h.imag
            corr = sol.C_h.real * sol.h ** (2.0 / 3.0)
            assert val == pytest.approx(target + corr, rel=1e-3)
            gaps.append(abs(val - target))
        assert gaps[-1] < gaps[0]

    def test_req_expansion(self):
        data = verify.mode_scaling_data(1.0)
        for m, sol, (q, _) in data[-2:]:
            lead = 1.0 / sol.h**2 + math.pi**2 * sol.h**2 / 2.0
            assert q.real == pytest.approx(lead, rel=1e-7)


class TestResidual:
    def test_exact_eigenfunction_when_undamped(self):
        # no damping and an exact transverse mode: residual at the grid level
        b = 3.0
        x = np.linspace(0.0, b, 20001)
        k, m = 2, 5
        u = np.sin(np.pi * k * x / b)
        q2 = (np.pi * k / b) ** 2 + 4 * np.pi**2 * m**2 / b**2
        upp = fd_derivative(u.astype(complex), x[1] - x[0], order=2)
        R = -upp + (4 * np.pi**2 * m**2 / b**2 - q2) * u
        rel = np.sqrt(np.trapezoid(np.abs(R) ** 2, x) / np.trapezoid(np.abs(u) ** 2, x))
        assert rel < 1e-7

    def test_assembled_matches_direct_fd(self, qm1, profile1):
        direct = quasimode.direct_residual_norm(qm1, profile1, n=60000)
        assert direct == pytest.approx(qm1.residual, rel=0.05)

    def test_fd_factor_variant_agrees_at_moderate_frequency(self, profile1, cutoff):
        ctx = verify.context_for(1.0)
        sol = eigen.find_eigenvalue(1, select_h(128, 3.0), ctx)
        qa = quasimode.build_quasimode(sol, profile1, cutoff)
        qb = quasimode.build_quasimode(sol, profile1, cutoff,
                                       second_derivative="fd")
        assert qb.residual == pytest.approx(qa.residual, rel=0.02)

    def test_smooth_join_changes_only_the_tail_term(self, cutoff):
        # the outer join enters the residual solely through the mismatch with
        # the edge power beyond a + sigma, which is tail-suppressed: the
        # residual on x < a + sigma is the same for both joins at every
        # frequency, and the mismatch dies off against it as m grows. The
        # suppression is only asymptotic (at m = 256 the constant join's
        # mismatch is about 5x the inner residual), so the totals are
        # compared at m = 1024, where it has died off.
        smooth = DampingProfile(beta=1.0, a=1.0, sigma=0.8, b=3.0, join="smooth")
        flat = DampingProfile(beta=1.0, a=1.0, sigma=0.8, b=3.0)
        ctx = verify.context_for(1.0)
        ratios = []
        for m in (256, 512, 1024):
            sol = eigen.find_eigenvalue(1, select_h(m, 3.0), ctx)
            qs = quasimode.build_quasimode(sol, smooth, cutoff)
            qf = quasimode.build_quasimode(sol, flat, cutoff)
            assert np.array_equal(qs.x, qf.x)
            inner = qs.x < smooth.a + smooth.sigma
            Rs = _pointwise_residual(qs, smooth)
            Rf = _pointwise_residual(qf, flat)
            for qm, R in ((qs, Rs), (qf, Rf)):
                split = math.hypot(_relative_norm(qm, R, inner),
                                   _relative_norm(qm, R, ~inner))
                assert split == pytest.approx(qm.residual, rel=1e-12)
            inner_res = _relative_norm(qf, Rf, inner)
            assert _relative_norm(qs, Rs, inner) == pytest.approx(inner_res, rel=1e-12)
            assert qs.tail == pytest.approx(qf.tail, rel=1e-6)
            ratios.append(_relative_norm(qf, Rf - Rs, ~inner) / inner_res)
        # the join's share falls, and falls faster with each doubling of m
        drops = [ratios[1] / ratios[0], ratios[2] / ratios[1]]
        assert drops[0] < 1.0
        assert drops[1] < drops[0]
        # qs and qf are the m = 1024 pair
        assert qs.residual == pytest.approx(qf.residual, rel=0.05)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_two_dimensional_lift_is_separation_exact(self, beta):
        # synthetic low-frequency profile: the 2D residual with the transverse
        # factor equals the reduced residual
        b, m = 3.0, 2
        q = 3.0 + 0.01j
        nx, ny = 2000, 640
        x = np.linspace(-b, b, nx + 1)
        y = np.linspace(-b, b, ny + 1)
        ut = np.sin(np.pi * (x + b) / (2 * b)) ** 2 * np.exp(-x * x) * (1 + 0.3j)
        profile = DampingProfile(beta=beta, a=1.0, sigma=1.0, b=b)
        W = profile.damping(x)
        dx = x[1] - x[0]
        upp = fd_derivative(ut.astype(complex), dx, order=2)
        R1 = -upp + 1j * q * W * ut + (4 * np.pi**2 * m**2 / b**2 - q * q) * ut
        r1 = np.sqrt(np.trapezoid(np.abs(R1) ** 2, x) / np.trapezoid(np.abs(ut) ** 2, x))
        S = np.sin(2 * np.pi * m * y / b)
        U = ut[:, None] * S[None, :]
        dy = y[1] - y[0]
        Uxx = np.empty_like(U)
        for j in range(U.shape[1]):
            Uxx[:, j] = fd_derivative(U[:, j], dx, order=2)
        Uyy = np.empty_like(U)
        for i in range(U.shape[0]):
            Uyy[i, :] = fd_derivative(U[i, :], dy, order=2)
        R2 = -(Uxx + Uyy) + 1j * q * W[:, None] * U - q * q * U
        num = np.trapezoid(np.trapezoid(np.abs(R2) ** 2, y, axis=1), x)
        den = np.trapezoid(np.trapezoid(np.abs(U) ** 2, y, axis=1), x)
        r2 = np.sqrt(num / den)
        assert r2 == pytest.approx(r1, rel=2e-3)


@pytest.mark.slow
class TestSweeps:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_residual_follows_construction_exponent(self, beta):
        _, qms = verify.quasimode_sweep_data(beta, "residual")
        fit = loglog_fit([q.q.real for q in qms], [q.residual for q in qms])
        expected = -(4 * beta + 7) / (2 * (beta + 2))
        assert abs(fit.slope - expected) < 0.1

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_residual_dominated_by_inverse_frequency(self, beta):
        # the provable bound: residual * Re q stays bounded along the family
        _, qms = verify.quasimode_sweep_data(beta, "residual")
        seq = np.array([q.residual * q.q.real for q in qms])
        assert seq.max() <= 1.5 * seq[0]

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_imq_within_stored_constant(self, beta):
        _, qms = verify.quasimode_sweep_data(beta, "residual")
        coeffs = np.array([q.imq_coeff for q in qms])
        assert coeffs.max() <= 2.0 * coeffs.min()

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_tail_checks(self, beta):
        rep = verify.check_tail_decay(beta)
        for c in rep.checks:
            assert c.passed, c.line()
