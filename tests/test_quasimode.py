import dataclasses
import math

import numpy as np
import pytest

from stripdamp import cap, eigen, quasimode, verify
from stripdamp.errors import PreconditionError
from stripdamp.fits import loglog_fit
from stripdamp.model import CutoffFunction, DampingProfile, StripGrid, select_h
from stripdamp.quadrature import complex_interp, fd_derivative


def _h2(qm):
    """b / (2 pi m), the primary small quantity."""
    return qm.b / (2.0 * math.pi * qm.m)


def _pointwise_residual(qm, profile, cutoff, v, dv, d2v):
    """Residual of the reduced operator on qm.x for the uncut profile v and
    its derivatives, assembled as build_quasimode does; the cutoff and its
    derivatives come from the CutoffFunction."""
    lam = qm.eig.lambda_h
    phi = cutoff.value(qm.x)
    dphi, d2phi = cutoff.derivative(qm.x, 1), cutoff.derivative(qm.x, 2)
    u = phi * v
    coef = -(lam * lam) / _h2(qm) - lam**4 / 4.0
    upp = d2phi * v + 2.0 * dphi * dv + phi * d2v
    return -upp + 1j * qm.q * profile.damping(qm.x) * u + coef * u


def _full_grid_profile(qm, F, L, nF, second_derivative):
    """(v, dv, d2v) on every node of qm.x. On x < a they are the closed form
    of eigen.left_solution. On x >= a they are derivatives of the half-line
    factor F over its whole grid of nF intervals on [0, L], interpolated the
    way build_quasimode did before it differenced only the bracketing points.
    The "equation" second derivative is the equation F solves at each node,
    the "fd" one a full-grid difference interpolated to the nodes."""
    eig = qm.eig
    left = qm.x < eig.a
    v = np.empty(qm.x.shape, dtype=complex)
    dv, d2v = np.empty_like(v), np.empty_like(v)
    v[left], dv[left] = eigen.left_solution(qm.x[left], eig.lambda_h, qm.h, eig.a)
    d2v[left] = -(eig.lambda_h * eig.lambda_h / _h2(qm)) * v[left]

    y = np.linspace(0.0, L, nF + 1)
    dy = L / nF
    F1 = fd_derivative(F, dy, order=1)
    v_at_a, _ = eigen.left_solution(np.array([eig.a]), eig.lambda_h, qm.h, eig.a)
    B = complex(v_at_a[0]) / F[0]
    yq = (qm.x[~left] - eig.a) / qm.s
    v[~left] = B * complex_interp(yq, y, F)
    dv[~left] = B * complex_interp(yq, y, F1) / qm.s
    if second_derivative == "equation":
        d2v[~left] = (1j * yq**eig.beta - eig.eta) * v[~left] / qm.s**2
    else:
        d2v[~left] = B * complex_interp(yq, y, fd_derivative(F, dy, order=2)) / qm.s**2
    return v, dv, d2v


def _recorded_solves(monkeypatch):
    """A list that collects (L, n, F) from each half-line solve build_quasimode makes."""
    solves = []
    pair = quasimode.cap.boundary_pair

    def recording_pair(eta, beta, L, n):
        out = pair(eta, beta, L, n)
        solves.append((L, n, out[2]))
        return out

    monkeypatch.setattr(quasimode.cap, "boundary_pair", recording_pair)
    return solves


def _linspace_bracket(yq, L, n):
    """Bracket index of each yq on the half-line factor's full grid."""
    return np.searchsorted(np.linspace(0.0, L, n + 1), yq, "right") - 1


def _spline_evaluate(qm, x, L, nF, F):
    """Quasimode.evaluate from scratch: a cubic spline of every stride-th
    point of the build's factor F on nF intervals of [0, L], glued at a by
    v(a) / F(0)."""
    from scipy.interpolate import CubicSpline

    eig = qm.eig
    stride = max(1, int(round(1e-3 * nF / L)))
    y = np.linspace(0.0, L, nF + 1)[::stride]
    v_at_a, _ = eigen.left_solution(np.array([eig.a]), eig.lambda_h, qm.h, eig.a)
    B = complex(v_at_a[0]) / F[0]

    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros(ax.shape, dtype=complex)
    left = ax < eig.a
    out[left], _ = eigen.left_solution(ax[left], eig.lambda_h, qm.h, eig.a)
    yq = (ax[~left] - eig.a) / qm.s
    vals = CubicSpline(y, B * F[::stride])(yq)
    vals[yq > y[-1]] = 0.0
    out[~left] = vals
    cut = CutoffFunction(b=qm.b, delta=qm.delta)
    return np.sign(x) * cut.value(ax) * out


@pytest.fixture(scope="module")
def qm1(profile1, cutoff):
    ctx = verify.context_for(1.0)
    sol = eigen.find_eigenvalue(1, select_h(64, 3.0), ctx)
    return quasimode.build_quasimode(sol, profile1, cutoff)


class TestAssembly:
    def test_profile_continuous_across_a(self, qm1):
        eps = 1e-9
        left = qm1.evaluate(np.array([qm1.eig.a - eps]))[0]
        right = qm1.evaluate(np.array([qm1.eig.a + eps]))[0]
        assert abs(left - right) < 1e-6 * abs(left)

    def test_odd_parity(self, qm1):
        x = np.linspace(0.1, 2.9, 57)
        assert np.allclose(qm1.evaluate(-x), -qm1.evaluate(x), rtol=1e-12)

    @pytest.mark.parametrize("n", [601, 600])
    def test_exactly_odd_on_strip_grid(self, qm1, n):
        u = qm1.evaluate(StripGrid(qm1.b, n).x)
        assert np.array_equal(u, -u[::-1])
        if n % 2:
            assert u[n // 2] == 0.0
        assert qm1.evaluate(np.array([0.0]))[0] == 0.0

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

    def test_bracket_derivatives_match_full_grid(self, profile1, cutoff, monkeypatch):
        # differencing the factor only at the grid points that bracket a
        # node gives the full-grid profile and measurements bit for bit
        sol = eigen.find_eigenvalue(1, select_h(256, 3.0), verify.context_for(1.0))
        solves = _recorded_solves(monkeypatch)
        qm = quasimode.build_quasimode(sol, profile1, cutoff)
        L, nF, F = solves[0]
        assert nF == round(L / cap._DEFAULT_DX)
        v, dv, d2v = _full_grid_profile(qm, F, L, nF, "equation")
        assert np.array_equal(qm.v, v)

        u = cutoff.value(qm.x) * v
        assert np.array_equal(qm.u, u)
        norm_sq = float(np.sum(qm.w * np.abs(u) ** 2))
        tail_sel = qm.x >= profile1.a + profile1.sigma
        R_sq = qm.w * np.abs(_pointwise_residual(qm, profile1, cutoff, v, dv, d2v)) ** 2
        assert qm.norm == math.sqrt(norm_sq)
        assert qm.tail == float(np.sum(qm.w[tail_sel] * np.abs(u[tail_sel]) ** 2) / norm_sq)
        assert qm.residual == float(math.sqrt(np.sum(R_sq) / norm_sq))
        assert qm.inner_residual == float(math.sqrt(np.sum(R_sq[~tail_sel]) / norm_sq))


class TestHalfLineGrid:
    """The factor's grid ends past x = b - delta, where the cutoff is 0, and
    its points are computed where they are read, not stored as an array."""

    def test_grid_covers_the_cutoff_support_and_no_more(self, monkeypatch):
        cfg = verify.default_config(2.0)
        profile, cutoff = cfg.profile, cfg.cutoff
        a, b, delta = profile.a, profile.b, cutoff.delta
        mesh = cap._DEFAULT_DX
        sol = eigen.find_eigenvalue(1, select_h(1024, b), verify.context_for(2.0))
        solves = _recorded_solves(monkeypatch)
        qm = quasimode.build_quasimode(sol, profile, cutoff)
        assert len(solves) == 1
        L, n, _ = solves[0]

        # each node the cutoff keeps has both points of its bracket on the grid
        kept = (cutoff.value(qm.x) != 0.0) & (qm.x >= a)
        j = _linspace_bracket((qm.x[kept] - a) / qm.s, L, n)
        assert j.min() >= 0 and j.max() + 1 <= n
        assert a + L * qm.s > b - delta

        # covering x = b would take a quarter more points
        L_b = min(max(cap.default_truncation(2.0), 1.02 * (b - a) / qm.s),
                  quasimode._wkb_y_limit(2.0))
        assert (n, max(2000, int(round(L_b / mesh)))) == (44_424, 55_530)

        assert np.all(qm.u[qm.x >= b - delta] == 0.0)
        x = np.linspace(b - delta, b, 201)
        assert np.all(qm.evaluate(np.concatenate([x, -x])) == 0.0)

    def test_bracket_arithmetic_is_the_linspace_search(self):
        L, n = 13.3, 1_110_603
        assert n * (L / n) != L   # the last grid point is L, not n * dy
        y = np.linspace(0.0, L, n + 1)
        rng = np.random.default_rng(3)
        on_grid = y[rng.integers(0, n + 1, 2000)]
        yq = np.concatenate([
            rng.uniform(0.0, L, 20000), on_grid,
            np.nextafter(on_grid, -np.inf), np.nextafter(on_grid, np.inf),
            [0.0, L, np.nextafter(L, 0.0), np.nextafter(L, np.inf), 1.5 * L],
        ])
        j = quasimode._bracket(yq, L, n)
        assert np.array_equal(j, _linspace_bracket(yq, L, n))
        K = np.unique(np.clip(np.concatenate([j, j + 1]), 0, n))
        assert K[-1] == n
        assert np.array_equal(quasimode._grid_points(K, L, n), y[K])

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_build_matches_the_linspace_grid_build(self, beta, monkeypatch):
        # bracketing by arithmetic gives the build that reads the full
        # linspace grid, byte for byte
        cfg = verify.default_config(beta)
        m_list = verify.RESIDUAL_SWEEP[beta][0]
        sols = [sol for _, sol in verify.mode_branch(beta, m_list[:2])]

        def build(sol):
            return quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)

        built = [build(sol) for sol in sols]
        monkeypatch.setattr(quasimode, "_bracket", _linspace_bracket)
        monkeypatch.setattr(quasimode, "_grid_points",
                            lambda i, L, n: np.linspace(0.0, L, n + 1)[i])
        for qm, sol in zip(built, sols):
            ref = build(sol)
            for name in ("x", "u", "v"):
                assert getattr(qm, name).tobytes() == getattr(ref, name).tobytes()
            for name in ("residual", "tail", "norm"):
                assert getattr(qm, name) == getattr(ref, name)


class TestEvaluation:
    """evaluate splines the build's own factor: it makes no half-line solve."""

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_evaluate_makes_no_solve(self, beta, monkeypatch):
        cfg = verify.default_config(beta)
        m = verify.EVOLVE_MODES[beta][0]
        sol = eigen.find_eigenvalue(1, select_h(m, cfg.profile.b), verify.context_for(beta))
        solves = _recorded_solves(monkeypatch)
        qm = quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)
        assert len(solves) == 1
        b = cfg.profile.b
        x = np.concatenate([np.linspace(-b, b, 4001), [sol.a - 1e-9, sol.a, sol.a + 1e-9]])
        u = qm.evaluate(x)
        assert np.array_equal(qm.evaluate(x), u)
        assert len(solves) == 1

        L, nF, F = solves[0]
        assert qm.y_cap[1] == pytest.approx(1e-3, rel=0.01)
        assert np.array_equal(u, _spline_evaluate(qm, x, L, nF, F))


class TestAnsatz:
    def test_exact_frequency_relation(self, qm1):
        lam = qm1.eig.lambda_h
        h2 = _h2(qm1)
        assert qm1.q == pytest.approx(1.0 / h2 + lam * lam / 2.0, rel=1e-15)
        assert qm1.m == 64
        assert 4 * math.pi**2 * qm1.m**2 / qm1.b**2 == pytest.approx(
            1.0 / h2**2, rel=1e-14
        )

    def test_synthetic_zero_lambda(self, qm1):
        # with lambda = 0 the ansatz collapses to the pure transverse frequency
        import dataclasses
        eig0 = dataclasses.replace(qm1.eig, lambda_h=0.0 + 0.0j)
        q, m = quasimode.ansatz_params(eig0, qm1.b)
        assert q.imag == 0.0
        assert q == pytest.approx(1.0 / _h2(qm1))

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
        direct = quasimode.direct_residual_norm(qm1, profile1)
        assert direct == pytest.approx(qm1.residual, rel=0.05)

    def test_fd_factor_variant_agrees_at_moderate_frequency(self, profile1, cutoff,
                                                            monkeypatch):
        # differencing the solved factor twice, instead of substituting the
        # equation it solves, gives the same residual at moderate frequency
        ctx = verify.context_for(1.0)
        sol = eigen.find_eigenvalue(1, select_h(128, 3.0), ctx)
        solves = _recorded_solves(monkeypatch)
        qa = quasimode.build_quasimode(sol, profile1, cutoff)
        L, nF, F = solves[0]
        v, dv, d2v = _full_grid_profile(qa, F, L, nF, "fd")
        norm_sq = float(np.sum(qa.w * np.abs(cutoff.value(qa.x) * v) ** 2))
        R_sq = qa.w * np.abs(_pointwise_residual(qa, profile1, cutoff, v, dv, d2v)) ** 2
        assert math.sqrt(np.sum(R_sq) / norm_sq) == pytest.approx(qa.residual, rel=0.02)

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
        qms = verify.quasimode_sweep_data(beta, "residual")
        fit = loglog_fit([q.q.real for q in qms], [q.residual for q in qms])
        expected = -(4 * beta + 7) / (2 * (beta + 2))
        assert abs(fit.slope - expected) < 0.1

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_residual_dominated_by_inverse_frequency(self, beta):
        # the provable bound: residual * Re q stays bounded along the family
        qms = verify.quasimode_sweep_data(beta, "residual")
        seq = np.array([q.residual * q.q.real for q in qms])
        assert seq.max() <= 1.5 * seq[0]

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_imq_within_stored_constant(self, beta):
        qms = verify.quasimode_sweep_data(beta, "residual")
        # |Im q| (Re q)^((beta+3)/(beta+2)), the frequency-placement constant
        coeffs = np.array([abs(q.q.imag) * q.q.real ** ((beta + 3) / (beta + 2))
                           for q in qms])
        assert coeffs.max() <= 2.0 * coeffs.min()

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_residual_does_not_depend_on_the_mesh(self, beta):
        # at both ends of the sweep, a build at a fifth of the spacing gives
        # the same residual: the equation is substituted at each node
        cfg = verify.default_config(beta)
        qms = verify.quasimode_sweep_data(beta, "residual")
        for qm in (qms[0], qms[-1]):
            fine = quasimode.build_quasimode(qm.eig, cfg.profile, cfg.cutoff, cap_dx=5e-5)
            assert fine.residual == pytest.approx(qm.residual, rel=1e-5)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_tail_checks(self, beta):
        rep = verify.check_tail_decay(beta)
        for c in rep.checks:
            assert c.passed, c.line()


def test_tail_check_fails_when_no_tail_clears_the_floor(monkeypatch):
    # with no local slope to read, the check reports FAIL instead of raising
    qms = [dataclasses.replace(qm, tail=1e-300)
           for qm in verify.quasimode_sweep(1.0, verify.TAIL_SWEEP[1.0][:2])]
    monkeypatch.setattr(verify, "quasimode_sweep_data", lambda beta, which: qms)
    check = verify.check_tail_decay(1.0).checks[0]
    assert check.name == "tail mass decays super-polynomially (beta=1)"
    assert not check.passed
