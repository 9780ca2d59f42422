import numpy as np
import pytest

from stripdamp import cap, eigen, verify
from stripdamp.errors import AdmissibilityError, RootFindError
from stripdamp.model import BC_DIRICHLET, select_h


@pytest.fixture(scope="module")
def ctx1():
    return eigen.build_context(1.0, 1.0, 1)


class TestReflection:
    def test_dirichlet_at_exact_multiple(self):
        h, a, l = 0.05, 1.0, 3
        lam = np.pi * l * h / a
        assert eigen.reflection_coeff(lam, h, a) == pytest.approx(-1.0)

    def test_unimodular_for_real_frequency(self):
        ref = eigen.reflection_coeff(0.123, 0.04, 1.0)
        assert abs(ref) == pytest.approx(1.0, rel=1e-14)

    def test_modulus_formula(self):
        lam, h, a = 0.1 + 0.002j, 0.05, 1.0
        ref = eigen.reflection_coeff(lam, h, a)
        assert abs(ref) == pytest.approx(np.exp(2 * a * lam.imag / h), rel=1e-12)


class TestLeftSolution:
    def test_dirichlet_vanishes_at_origin(self):
        v, _ = eigen.left_solution(0.0, 0.11 + 0.001j, 0.04, 1.0)
        assert abs(v) < 1e-12

    def test_value_at_matching_point(self):
        lam, h, a = 0.13 + 0.002j, 0.04, 1.0
        v, _ = eigen.left_solution(a, lam, h, a)
        ref = eigen.reflection_coeff(lam, h, a)
        assert v == pytest.approx(1.0 + ref, rel=1e-14)

    def test_solves_equation(self):
        # second derivative equals -(lam/h)^2 v, checked by differences
        lam, h, a = 0.13 + 0.002j, 0.04, 1.0
        x = np.linspace(0.2, 0.8, 7)
        eps = 1e-5
        v0, _ = eigen.left_solution(x, lam, h, a)
        vp, _ = eigen.left_solution(x + eps, lam, h, a)
        vm, _ = eigen.left_solution(x - eps, lam, h, a)
        d2 = (vp - 2 * v0 + vm) / eps**2
        assert np.allclose(d2, -((lam / h) ** 2) * v0, rtol=1e-5)


class TestCompatibilityFunction:
    def test_zero_at_origin_of_parameters(self, ctx1):
        G, *_ = eigen.compatibility_value(0.0, 0.0, ctx1)
        assert abs(G) < 1e-14

    def test_slope_at_origin(self, ctx1):
        # derivative in mu at (0, 0) is -2ia
        G, dG, *_ = eigen.compatibility_value(0.0, 0.0, ctx1)
        assert dG == pytest.approx(-2j * ctx1.a, rel=1e-14)

    def test_linear_in_mu_at_h_zero(self, ctx1):
        G1, *_ = eigen.compatibility_value(0.3 + 0.1j, 0.0, ctx1)
        G0, *_ = eigen.compatibility_value(0.0, 0.0, ctx1)
        assert G1 - G0 == pytest.approx(-2j * ctx1.a * (0.3 + 0.1j), rel=1e-12)

    def test_derivative_matches_difference(self, ctx1):
        mu, h = 0.1 - 0.2j, 0.02
        G, dG, *_ = eigen.compatibility_value(mu, h, ctx1)
        d = 1e-4
        Gp, *_ = eigen.compatibility_value(mu + d, h, ctx1)
        Gm, *_ = eigen.compatibility_value(mu - d, h, ctx1)
        assert abs(dG - (Gp - Gm) / (2 * d)) / abs(dG) < 1e-3

    def test_equals_raw_matching_determinant(self, ctx1):
        # the remainder-split form and the undecomposed determinant are the
        # same function of (mu, h)
        mu, h = 0.05 - 0.1j, 0.03
        G, _, lam, eta, f0 = eigen.compatibility_value(mu, h, ctx1)
        eps = h ** (2.0 / 3.0)
        ref = eigen.reflection_coeff(lam, h, ctx1.a)
        v_la = 1.0 + ref
        dv_la = (1j * lam / h) * (1.0 - ref)
        D = dv_la * f0 - v_la / eps
        assert G == pytest.approx(D, rel=1e-9)

    def test_inadmissible_h_rejected(self, ctx1):
        with pytest.raises(AdmissibilityError):
            eigen.compatibility_value(0.0, 0.5, ctx1)

    def test_inadmissible_error_prints_the_admissible_radius(self, ctx1):
        radius = cap.neumann_ground(ctx1.beta).admissible_radius
        with pytest.raises(AdmissibilityError, match=rf"exceeds {radius:.4f}; reduce h"):
            eigen.compatibility_value(0.0, 0.5, ctx1)


class TestFindEigenvalue:
    def test_fixed_point_and_bounds(self, ctx1):
        sol = eigen.find_eigenvalue(1, 0.02, ctx1)
        G, *_ = eigen.compatibility_value(sol.mu, sol.h, ctx1)
        assert abs(G) <= 1e-10
        assert abs(sol.mu) < 1.0
        assert abs(sol.C_h) < ctx1.K_bound
        assert sol.glue_residual < 1e-7

    def test_lambda_definition_exact(self, ctx1):
        sol = eigen.find_eigenvalue(1, 0.02, ctx1)
        lam = np.pi * 1 * sol.h / 1.0 + sol.C_h * sol.h ** (5.0 / 3.0)
        assert lam == pytest.approx(sol.lambda_h, rel=1e-14)

    def test_imaginary_part_positive(self, ctx1):
        # damping pushes the matched frequency into the decaying half plane
        sol = eigen.find_eigenvalue(1, 0.02, ctx1)
        assert (sol.lambda_h**2).imag > 0

    def test_reflection_tends_to_unimodular(self, ctx1):
        mods = []
        for h in (0.04, 0.02, 0.01, 0.005):
            sol = eigen.find_eigenvalue(1, h, ctx1)
            ref = eigen.reflection_coeff(sol.lambda_h, h, 1.0)
            mods.append(abs(abs(ref) - 1.0))
        assert all(np.diff(mods) < 0)

    @pytest.mark.parametrize("l, bc, message", [
        (0.5, BC_DIRICHLET, "Dirichlet requires integer l"),
        # the Neumann strip variant is not solved; it is refused, not mis-solved
        (1, "neumann", "only the Dirichlet condition is supported"),
    ], ids=["dirichlet", "neumann"])
    def test_mode_index_must_fit_the_boundary_condition(self, l, bc, message):
        with pytest.raises(ValueError, match=message):
            eigen.build_context(1.0, 1.0, l, bc)

    def test_continuation_sweep_monotone_gap(self, ctx1):
        sols = eigen.eigen_sweep(ctx1, [0.02, 0.013, 0.008])
        gaps = [s.scaling_gap for s in sols]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_stops_on_noise_floor_near_tolerance(self):
        # a crossval-range point where a boundary value with noise near
        # 1e-10 leaves no |G| below the 1e-10 tolerance
        beta, l, h = 2.2464749783336675, 2, 0.004115860271575528
        ctx = eigen.build_context(beta, 1.0, l)
        sol = eigen.find_eigenvalue(l, h, ctx)
        assert sol.newton_stop in ("step", "floor")
        assert sol.iterations < 20
        assert sol.newton_residual < 1e-11
        # matching defect with F(0) from shooting, not from the solver
        f0 = cap.boundary_value_by_shooting(sol.eta, beta)
        ref = eigen.reflection_coeff(sol.lambda_h, h, ctx.a)
        rhs = (1.0 + ref) / h ** (2.0 / (beta + 2.0))
        defect = (1j * sol.lambda_h / h) * (1.0 - ref) * f0 - rhs
        assert abs(defect) / abs(rhs) < 1e-9

    def test_no_pinned_root_runs_to_max_iter(self):
        sols = [s for _, s in verify.mode_branch(2.0, verify.RESIDUAL_SWEEP[2.0][0])]
        for beta in verify.BETAS:
            ctx = verify.context_for(beta)
            b = verify.default_config(beta).profile.b
            sols += [eigen.find_eigenvalue(1, select_h(m, b), ctx)
                     for m in verify.EVOLVE_MODES[beta]]
            sols += verify.eigen_scaling_data(beta)[1]
        assert {s.newton_stop for s in sols} <= {"step", "floor"}
        assert max(s.iterations for s in sols) < 40
        assert "newton_stop" in verify.eigen_rows(sols)[0]

    def test_out_of_window_h_raises(self, ctx1):
        with pytest.raises((RootFindError, AdmissibilityError)):
            eigen.find_eigenvalue(1, 0.2, ctx1)


class TestRawCompatibilityRoot:
    def test_matches_newton(self, ctx1):
        sol = eigen.find_eigenvalue(1, 0.025, ctx1)
        lam_raw, mu_raw, _ = eigen.raw_compatibility_root(1, 0.025, ctx1)
        assert abs(mu_raw - sol.mu) < 1e-8
        assert abs(lam_raw - sol.lambda_h) < 1e-10

    def test_admissible_window_estimate(self, ctx1):
        h0 = eigen.admissible_h_max(ctx1)
        assert 0.01 < h0 < 0.2
        eigen.find_eigenvalue(1, 0.45 * h0, ctx1)  # solvable well inside

    def test_both_paths_use_the_cap_admissibility_test(self, ctx1, monkeypatch):
        # the Newton and the raw-determinant paths both ask cap whether eta is
        # admissible, so a refusal there stops each of them, well inside the disk
        monkeypatch.setattr(cap, "check_eta_admissible", lambda eta, ground: False)
        with pytest.raises(AdmissibilityError):
            eigen.find_eigenvalue(1, 0.025, ctx1)
        with pytest.raises(AdmissibilityError):
            eigen.raw_compatibility_root(1, 0.025, ctx1)
