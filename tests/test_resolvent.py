import math

import numpy as np
import pytest

from stripdamp import eigen, quasimode, resolvent, verify
from stripdamp.errors import ResolutionError
from stripdamp.model import UniformDamping, select_h


class TestAssembly:
    def test_undamped_matches_discrete_spectrum(self):
        b, n, q, m = 3.0, 4000, 11.0, 3
        zero = UniformDamping(0.0, b)
        samp = resolvent.resolvent_norm(q, m, zero, n)
        dx = 2 * b / (n + 1)
        k = np.arange(1, n + 1)
        eigs = (4 / dx**2) * np.sin(k * np.pi * dx / (4 * b)) ** 2 \
            + 4 * np.pi**2 * m**2 / b**2 - q * q
        assert samp.norm == pytest.approx(1.0 / np.min(np.abs(eigs)), rel=1e-6)

    def test_undamped_matches_continuum_to_grid_order(self):
        b, q, m = 3.0, 11.0, 3
        zero = UniformDamping(0.0, b)
        norms = []
        for n in (4000, 8000):
            norms.append(resolvent.resolvent_norm(q, m, zero, n).norm)
        k = np.arange(1, 400)
        eigs = (np.pi * k / (2 * b)) ** 2 + 4 * np.pi**2 * m**2 / b**2 - q * q
        exact = 1.0 / np.min(np.abs(eigs))
        assert abs(norms[1] - exact) < abs(norms[0] - exact)
        assert norms[1] == pytest.approx(exact, rel=5e-4)

    def test_zero_frequency_positive_definite(self, profile1):
        op = resolvent.assemble_reduced_operator(0.0, 2, profile1, 2000)
        d = op.matrix.diagonal()
        assert np.allclose(d.imag, 0.0)
        samp = resolvent.resolvent_norm(0.0, 2, profile1, 2000)
        assert samp.norm < 1.0  # operator bounded below by the transverse shift

    def test_hermitian_part_independent_of_damping(self, profile1):
        q, m, n = 9.0, 3, 3000
        op1 = resolvent.assemble_reduced_operator(q, m, profile1, n)
        strong = UniformDamping(5.0, profile1.b)
        op2 = resolvent.assemble_reduced_operator(q, m, strong, n)
        assert np.allclose(op1.hermitian_part_diagonal(),
                           op2.hermitian_part_diagonal())
        anti1 = op1.matrix.diagonal().imag
        assert np.allclose(anti1, q * profile1.damping(op1.x))

    def test_under_resolution_rejected(self, profile1):
        with pytest.raises(ResolutionError):
            resolvent.assemble_reduced_operator(200.0, 1, profile1, 500)

    def test_effective_wavenumber_drops_at_resonance(self):
        b = 3.0
        q = 2 * math.pi * 64 / b + 0.05
        assert resolvent.effective_wavenumber(q, 64, b) < 0.1 * q
        assert resolvent.min_grid_size(q, 64, b) < 2000


class TestScan:
    def test_lower_bound_from_quasimode(self, profile1, cutoff):
        ctx = verify.context_for(1.0)
        sol = eigen.find_eigenvalue(1, select_h(128, 3.0), ctx)
        qm = quasimode.build_quasimode(sol, profile1, cutoff)
        lb = resolvent.quasimode_lower_bound(qm, profile1)
        scanned = resolvent.resolvent_norm(lb.q, lb.m, profile1, lb.n)
        assert scanned.norm >= lb.norm * (1 - 1e-6)
        # near the peak the bound is tight to within a factor
        assert scanned.norm < 20 * lb.norm

    def test_gcc_damping_bounded(self):
        gcc = UniformDamping(1.0, 3.0)
        qs = np.geomspace(20.0, 640.0, 6)
        scan = resolvent.scan_and_fit(qs, gcc)
        assert scan.fit.slope <= 0.05
        norms = [s.norm for s in scan.samples]
        assert max(norms) <= norms[0] * 1.1

    def test_short_grid_warns(self, profile1):
        with pytest.warns(RuntimeWarning):
            resolvent.scan_and_fit([10.0, 20.0], profile1, n=4000)

    def test_exponent_balance_identity(self):
        # the cutoff-power choice gamma = beta/(beta+2) balances the two
        # dominant error powers and minimizes the worst of the three
        for beta in (0.5, 1.0, 2.0, 3.7):
            gamma = beta / (beta + 2.0)
            assert 2.0 - gamma == pytest.approx(gamma * (1.0 + 4.0 / beta), rel=1e-12)

            def worst(g):
                return max(2.0 - g, g * (1.0 + 4.0 / beta), g * (1.0 + 2.0 / beta))

            grid = np.linspace(0.01, 1.5, 500)
            assert worst(gamma) <= min(worst(g) for g in grid) + 1e-9


class TestPeakMode:
    """scan_peaks solves each peak on its branch's own transverse mode."""

    MODES = (192, 384)

    @pytest.fixture(scope="class")
    def branches(self):
        cfg = verify.default_config(0.0)
        hs = [select_h(m, cfg.profile.b) for m in self.MODES]
        return cfg.profile, eigen.eigen_sweep(verify.context_for(0.0), hs)

    def test_own_mode_maximizes_the_window(self, branches):
        profile, sols = branches
        for sol in sols:
            q, m = quasimode.ansatz_params(sol, profile.b)
            # the search scan_peaks used to make: loose tolerance, as only
            # the argmax matters
            norms = {mm: resolvent.resolvent_norm(q.real, mm, profile, 4000, tol=1e-4).norm
                     for mm in range(m - 3, m + 4)}
            assert max(norms, key=norms.get) == m

    def test_scan_uses_own_mode_at_full_tolerance(self, branches, monkeypatch):
        profile, sols = branches
        tols = []
        norm = resolvent.resolvent_norm

        def spy(*args, **kwargs):
            tols.append(kwargs["tol"])
            return norm(*args, **kwargs)

        monkeypatch.setattr(resolvent, "resolvent_norm", spy)
        scan = resolvent.scan_peaks(sols, profile, tol=1e-9)
        assert [s.m for s in scan.samples] == list(self.MODES)
        assert [s.n for s in scan.samples] == [4000, 4000]
        assert set(tols) == {1e-9}


@pytest.mark.slow
class TestBand:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_growth_exponent_in_band(self, beta):
        _, scan, _ = verify.resolvent_scan_data(beta)
        lo = 1.0 / (beta + 2.0) - 0.05
        hi = 2.0 / (beta + 2.0) + 0.05
        assert lo <= scan.fit.slope <= hi

    def test_scan_consistent_with_quasimode_bounds(self, profile1, cutoff):
        # scanned value at each stored peak dominates the plug-in lower bound
        _, scan, _ = verify.resolvent_scan_data(1.0)
        ctx = verify.context_for(1.0)
        sample = scan.samples[0]
        sol = eigen.find_eigenvalue(1, select_h(sample.m, 3.0), ctx)
        qm = quasimode.build_quasimode(sol, profile1, cutoff)
        lb = resolvent.quasimode_lower_bound(qm, profile1, n=sample.n)
        assert sample.norm >= lb.norm * (1 - 1e-6)

    def test_grid_doubling_stability(self):
        # fitted exponent moves by less than 0.02 when every grid doubles
        cfg = verify.default_config(1.0)
        ctx = verify.context_for(1.0)
        sols = []
        mu = 0.0
        for m in (2048, 8192, 32768):
            sol = eigen.find_eigenvalue(1, select_h(m, 3.0), ctx, mu0=mu)
            mu = sol.mu
            sols.append(sol)
        one = resolvent.scan_peaks(sols, cfg.profile)
        two = resolvent.scan_peaks(sols, cfg.profile, points_per_wavelength=40)
        assert abs(one.fit.slope - two.fit.slope) < 0.02
