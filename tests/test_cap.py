"""Half-line solver against independent oracles.

Frozen oracle values:
  * beta = 1, eta = 0: the decaying solution is C Ai(x e^{i pi/6}) with
    C = e^{-i pi/6}/Ai'(0), so F(0) = (Ai(0)/Ai'(0)) e^{-i pi/6}.
    With Ai(0) = 3^(-2/3)/Gamma(2/3) and Ai'(0) = -3^(-1/3)/Gamma(1/3):
    F(0) = -1.18794537514136... + 0.68586058210542...j
  * beta = 0: pure exponential, F(0) = -1/sqrt(i - eta).
  * Neumann ground levels: beta=2 -> 1 (even oscillator levels 4n+1);
    beta=1 -> 1.018792971647471 (first zero of Ai'); beta=0 -> 1 (essential).
"""

import math

import numpy as np
import pytest
from scipy.linalg import lapack

from stripdamp import cap
from stripdamp.errors import AdmissibilityError, RootFindError, TruncationError

AIRY_F0 = -1.1879453751046215 + 0.6858605820992242j


def second_solve_pair(eta, beta, L, n):
    """(F(0), dF(0)/d eta, F) of boundary_pair's matrix, F by a zgttrf
    factorization and a zgttrs solve, the derivative by a second solve with
    the same factors: dF = A^{-1} r, r = -(dA/deta) F.

    The dual-cell averages are rounded as boundary_pair rounds them, from
    the same edges, so the two solves see the same matrix: differencing
    edge^(beta + 1) near x = L cancels digits, and a differently rounded
    diagonal alone moves F by up to 1e-11 relative at beta = 2.
    """
    dx = L / n
    edges = np.linspace(-0.5 * dx, L + 0.5 * dx, n + 2)
    edges[0], edges[-1] = 0.0, L
    V = np.diff(edges ** (beta + 1)) * (1.0 / ((beta + 1) * dx))
    V[[0, n]] *= 2.0
    theta = np.sqrt(1j * L**beta - eta)
    d = 2.0 / dx**2 + 1j * V - eta
    d[n] += 2.0 * theta / dx
    dl = np.full(n, -1.0 / dx**2, dtype=complex)
    dl[n - 1] *= 2.0
    du = np.full(n, -1.0 / dx**2, dtype=complex)
    du[0] *= 2.0
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[0] = -2.0 / dx
    dl, d, du, du2, ipiv, info = lapack.zgttrf(dl, d, du)
    assert info == 0
    F, _ = lapack.zgttrs(dl, d, du, du2, ipiv, rhs)
    r = F.copy()
    r[n] *= 1.0 + 1.0 / (theta * dx)
    dF, _ = lapack.zgttrs(dl, d, du, du2, ipiv, r)
    return F[0], dF[0], F


def airy_f0_from_gammas():
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    return (ai0 / aip0) * np.exp(-1j * np.pi / 6.0)


class TestBoundaryValue:
    def test_frozen_airy_constant_is_consistent(self):
        assert abs(airy_f0_from_gammas() - AIRY_F0) < 1e-15

    def test_airy_oracle(self):
        sol = cap.solve_cap(0.0, 1.0)
        assert abs(sol.boundary_value - AIRY_F0) / abs(AIRY_F0) < 1e-6

    def test_sign_structure_at_eta_zero(self):
        # real part is minus the slope energy, imaginary part the potential mass
        for beta in (0.5, 1.0, 2.0):
            f0 = cap.solve_cap(0.0, beta).boundary_value
            assert f0.real < 0
            assert f0.imag > 0

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.2 + 0.3j, -0.1 - 0.35j])
    def test_beta0_closed_form(self, eta):
        sol = cap.solve_cap(eta, 0.0)
        exact = cap.boundary_value_closed_form_beta0(eta)
        assert abs(sol.boundary_value - exact) / abs(exact) < 1e-6

    def test_extrapolated_airy_oracle(self):
        f0, _ = cap.boundary_value(0.0, 1.0)
        assert abs(f0 - AIRY_F0) / abs(AIRY_F0) < 1e-9

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.2 + 0.3j, -0.1 - 0.35j])
    def test_extrapolated_beta0_closed_form(self, eta):
        f0, _ = cap.boundary_value(eta, 0.0)
        exact = cap.boundary_value_closed_form_beta0(eta)
        assert abs(f0 - exact) / abs(exact) < 1e-9

    @pytest.mark.parametrize("beta", [0.3, 0.43, 0.5])
    def test_extrapolated_matches_shooting_below_beta_one(self, beta):
        # x^beta has no bounded derivative at 0 here; point sampling it is
        # first order, the cell average is not
        for eta in (0.0, 0.1 + 0.05j, -0.1 - 0.2j):
            f0, _ = cap.boundary_value(eta, beta)
            shot = cap.boundary_value_by_shooting(eta, beta)
            assert abs(f0 - shot) / abs(shot) < 1e-7

    def test_extrapolated_derivative_matches_difference(self):
        eta, d = 0.1 + 0.05j, 1e-3
        _, df0 = cap.boundary_value(eta, 2.0)
        fd = (cap.boundary_value(eta + d, 2.0)[0]
              - cap.boundary_value(eta - d, 2.0)[0]) / (2 * d)
        assert abs(df0 - fd) / abs(fd) < 1e-5

    def test_truncation_stability(self):
        # doubling (L, n) together isolates the cut-off error; boundary_pair's
        # F(0) is the boundary value solve_cap returns
        a = cap.boundary_pair(0.3, 2.0, 10.0, 40000)[0]
        b = cap.boundary_pair(0.3, 2.0, 20.0, 80000)[0]
        assert abs(a - b) < 1e-8

    def test_shooting_cross_check_grid(self):
        ground = cap.neumann_ground(1.0)
        for eta in (0.0, 0.25, 0.3j, -0.2 + 0.2j):
            assert cap.check_eta_admissible(eta, ground)
            banded = cap.solve_cap(eta, 1.0).boundary_value
            shot = cap.boundary_value_by_shooting(eta, 1.0)
            assert abs(banded - shot) / abs(shot) < 1e-6

    def test_energy_identity_recorded(self):
        sol = cap.solve_cap(0.2 + 0.1j, 1.5)
        assert sol.identity_residual < 1e-6

    def test_slope_normalization(self):
        sol = cap.solve_cap(0.0, 1.0)
        dx = sol.x[1]
        one_sided = (
            -25 * sol.values[0] + 48 * sol.values[1] - 36 * sol.values[2]
            + 16 * sol.values[3] - 3 * sol.values[4]
        ) / (12 * dx)
        assert abs(one_sided - 1.0) < 1e-7

    def test_tail_guard_raises_for_short_cut(self, monkeypatch):
        monkeypatch.setattr(cap, "default_truncation", lambda beta: 1.0)
        with pytest.raises(TruncationError):
            cap.solve_cap(0.0, 1.0)

    def test_derivative_of_boundary_value(self):
        # exact discrete derivative vs a centered difference at a step large
        # enough to stay above the factorization noise
        f0, df0, _ = cap.boundary_pair(0.1 + 0.05j, 1.0, 10.5, 40000)
        d = 1e-3
        fp = cap.boundary_pair(0.1 + 0.05j + d, 1.0, 10.5, 40000)[0]
        fm = cap.boundary_pair(0.1 + 0.05j - d, 1.0, 10.5, 40000)[0]
        fd = (fp - fm) / (2 * d)
        assert abs(df0 - fd) / abs(fd) < 1e-4

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    def test_derivative_by_discrete_adjoint(self, beta):
        # the adjoint sum -dx sum D_i F_i r_i that boundary_pair returns
        # against the second solve dF = A^{-1} r it replaced
        eta = 0.1 + 0.05j
        L = cap.default_truncation(beta)
        n = cap.default_points(L)
        f0, df0, _ = cap.boundary_pair(eta, beta, L, n)
        f0_solved, df0_solved, _ = second_solve_pair(eta, beta, L, n)
        assert abs(f0 - f0_solved) / abs(f0_solved) < 1e-9
        assert abs(df0 - df0_solved) / abs(df0_solved) < 1e-9

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_full_grid_against_factor_and_solve(self, beta):
        # the one zgtsv pass against the zgttrf + zgttrs solve it replaced
        eta = 0.1 + 0.05j
        L = cap.default_truncation(beta)
        n = cap.default_points(L)
        _, _, F = cap.boundary_pair(eta, beta, L, n)
        _, _, F_solved = second_solve_pair(eta, beta, L, n)
        assert np.max(np.abs(F - F_solved)) / np.max(np.abs(F_solved)) <= 1e-13

    def test_zero_pivot_raises(self, monkeypatch):
        # zgtsv reports an exactly zero pivot only through info > 0
        zgtsv = cap.lapack.zgtsv

        def zero_pivot(*args, **kwargs):
            *solved, _ = zgtsv(*args, **kwargs)
            return (*solved, 7)

        monkeypatch.setattr(cap.lapack, "zgtsv", zero_pivot)
        with pytest.raises(RootFindError, match=r"\(eta, beta, L, n\) = "
                           r"\(0\.25, 1\.0, 10\.5, 40000\).*zero pivot U\(7, 7\)"):
            cap.boundary_pair(0.25, 1.0, 10.5, 40000)


class TestAdmissibility:
    def test_disk_examples(self):
        ground = cap.neumann_ground(2.0)
        assert cap.check_eta_admissible(0.49, ground)
        assert not cap.check_eta_admissible(0.51, ground)
        assert cap.check_eta_admissible(0.5j, ground)

    def test_solver_rejects_outside_disk(self):
        with pytest.raises(AdmissibilityError):
            cap.solve_cap(0.9, 2.0)

    def test_boundary_value_bounded_on_disk(self):
        ground = cap.neumann_ground(1.0)
        r = ground.admissible_radius
        vals = []
        for ang in np.linspace(0, 2 * np.pi, 12, endpoint=False):
            for rho in (0.5 * r, 0.95 * r):
                eta = rho * np.exp(1j * ang)
                vals.append(abs(cap.solve_cap(eta, 1.0).boundary_value))
        vals = np.array(vals)
        assert vals.min() > 0.2 and vals.max() < 5.0

    def test_boundary_value_smooth_in_eta(self):
        # bounded second differences across the disk, the working proxy for
        # analyticity of the boundary value
        ground = cap.neumann_ground(1.0)
        d = 5e-3
        for eta in (0.0, 0.2, 0.15j, -0.1 + 0.1j):
            f = [cap.boundary_pair(eta + k * d, 1.0, 10.5, 40000)[0]
                 for k in (-1, 0, 1)]
            second = (f[0] - 2 * f[1] + f[2]) / d**2
            assert abs(second) < 50.0
        assert ground.value > 1.0  # sanity on the cached ground level


class TestNeumannGround:
    def test_quadratic_potential(self):
        g = cap.neumann_ground(2.0)
        assert abs(g.value - 1.0) < 1e-5
        assert not g.essential

    def test_linear_potential(self):
        g = cap.neumann_ground(1.0)
        assert abs(g.value - 1.018792971647471) < 1e-4

    def test_indicator_case_flagged_essential(self):
        g = cap.neumann_ground(0.0)
        assert g.value == 1.0
        assert g.essential

    def test_variational_inequality(self):
        # ground level bounds the Rayleigh quotient of arbitrary test functions
        rng = np.random.default_rng(3)
        g = cap.neumann_ground(1.0)
        x = np.linspace(0, 30, 30001)
        dx = x[1] - x[0]
        for _ in range(5):
            c = rng.normal(size=4)
            u = (c[0] + c[1] * x + c[2] * x**2 + c[3] * x**3) * np.exp(-x**2 / 2)
            up = np.gradient(u, dx)
            num = np.trapezoid(up**2, x) + np.trapezoid(x * u**2, x)
            den = np.trapezoid(u**2, x)
            assert g.value * den <= num * (1 + 1e-3)
