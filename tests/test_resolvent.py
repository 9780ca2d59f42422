import inspect
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from stripdamp import eigen, quasimode, resolvent, verify
from stripdamp.errors import ResolutionError, RootFindError, StripDampError
from stripdamp.fits import loglog_fit
from stripdamp.model import DampingProfile, StripGrid, UniformDamping, select_h


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
        assert np.allclose(op.diag.imag, 0.0)
        samp = resolvent.resolvent_norm(0.0, 2, profile1, 2000)
        assert samp.norm < 1.0  # operator bounded below by the transverse shift

    def test_hermitian_part_independent_of_damping(self, profile1):
        q, m, n = 9.0, 3, 3000
        op1 = resolvent.assemble_reduced_operator(q, m, profile1, n)
        strong = UniformDamping(5.0, profile1.b)
        op2 = resolvent.assemble_reduced_operator(q, m, strong, n)
        # the diagonal of (P + P*)/2
        assert np.allclose(op1.diag.real, op2.diag.real)
        anti1 = op1.diag.imag
        assert np.allclose(anti1, q * profile1.damping(op1.grid.x))

    def test_indicator_operator_is_even(self):
        # on the grid n = 146 a node sat 1 ulp off its mirror at |x| = a when
        # the nodes were -b + dx * k, and W jumped there
        profile0 = DampingProfile(beta=0.0, a=1.0, sigma=1.0, b=3.0)
        op = resolvent.assemble_reduced_operator(5.0, 1, profile0, 146)
        assert np.array_equal(op.diag, op.diag[::-1])

    def test_lanczos_failure_raises(self, profile1, monkeypatch):
        # no quiet second path to the norm: the package error names the point.
        # The full-tolerance solve here takes 9 iterations, so a cap of 3
        # stops it unconverged.
        monkeypatch.setattr(resolvent, "LANCZOS_MAX_ITER", 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StripDampError, match=r"\(q, m, n\) = \(9\.0, 3, 2000\)"):
                resolvent.resolvent_norm(9.0, 3, profile1, n=2000)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_singular_factor_raises(self, profile1, monkeypatch):
        # zgttrf reports an exactly zero pivot only through info > 0
        zgttrf = resolvent.lapack.zgttrf

        def zero_pivot(*args, **kwargs):
            *factor, _ = zgttrf(*args, **kwargs)
            return (*factor, 7)

        monkeypatch.setattr(resolvent.lapack, "zgttrf", zero_pivot)
        with pytest.raises(RootFindError,
                           match=r"\(q, m, n\) = \(9\.0, 3, 2000\).*zero pivot U\(7, 7\)"):
            resolvent.resolvent_norm(9.0, 3, profile1, n=2000)

    def test_under_resolution_rejected(self, profile1):
        with pytest.raises(ResolutionError):
            resolvent.assemble_reduced_operator(200.0, 1, profile1, 500)

    def test_effective_wavenumber_drops_at_resonance(self):
        b = 3.0
        q = 2 * math.pi * 64 / b + 0.05
        assert resolvent.effective_wavenumber(q, 64, b) < 0.1 * q
        assert resolvent.min_grid_size(q, 64, b) < 2000


def _banded_sigma_min(diag, off):
    """Smallest singular value of the tridiagonal P = tridiag(off, diag, off).

    The Jordan-Wielandt matrix [[0, P], [P^H, 0]] is Hermitian with
    eigenvalues +-sigma_i. Interleaving its two halves (row i of P at 2i,
    column j at 2j + 1) makes it banded with bandwidth 3, so +sigma_min is
    its eigenvalue of index n in ascending order, which eig_banded selects
    alone. Lower band storage: band[k, c] holds entry (c + k, c).
    """
    n = diag.size
    band = np.zeros((4, 2 * n), dtype=complex)
    band[1, 0::2] = np.conj(diag)      # (2i + 1, 2i): conj(P[i, i])
    band[1, 1:-1:2] = off              # (2i + 2, 2i + 1): P[i + 1, i]
    band[3, 0:-2:2] = off              # (2i + 3, 2i): conj(P[i, i + 1])
    vals = scipy.linalg.eig_banded(band, lower=True, eigvals_only=True,
                                   select="i", select_range=(n, n))
    return float(vals[0])


@pytest.mark.parametrize("case", ["beta1-peak", "uniform", "undamped"])
def test_matches_dense_svd(case, profile1):
    # the fully independent oracle: sigma_min of P from the Hermitian
    # eigensolver of a banded matrix, no zgttrf and no ARPACK
    n = 2000
    if case == "beta1-peak":
        sol = eigen.find_eigenvalue(1, select_h(128, 3.0), verify.context_for(1.0))
        q, m = quasimode.ansatz_params(sol, 3.0)
        q, profile = q.real, profile1
    elif case == "uniform":
        # sigma_min of P clusters off resonance under uniform damping
        q, m, profile = 640.0, 309, UniformDamping(1.0, 3.0)
    else:
        q, m, profile = 11.0, 3, UniformDamping(0.0, 3.0)
    op = resolvent.assemble_reduced_operator(q, m, profile, n)
    oracle = 1.0 / _banded_sigma_min(op.diag, -1.0 / op.grid.dx**2)
    assert resolvent.resolvent_norm(q, m, profile, n).norm == pytest.approx(oracle, rel=1e-8)


def _arpack_norm(q, m, profile, n):
    """1 / sigma_min by ARPACK (eigsh, 16-vector basis) on (P*P)^-1, with the
    factor, start vector and tolerance of resolvent_norm's own Lanczos."""
    op = resolvent.assemble_reduced_operator(q, m, profile, n)
    off = np.full(n - 1, op.grid.off, dtype=complex)
    dl, d, du, du2, ipiv, info = scipy.linalg.lapack.zgttrf(off, op.diag, off)
    assert info == 0

    def matvec(z):
        y = scipy.linalg.lapack.zgttrs(dl, d, du, du2, ipiv, z, trans="C")[0]
        return scipy.linalg.lapack.zgttrs(dl, d, du, du2, ipiv, y, trans="N")[0]

    rng = np.random.default_rng(1234)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals = spla.eigsh(spla.LinearOperator((n, n), matvec=matvec, dtype=complex), k=1,
                      which="LM", tol=1e-9, maxiter=2000, v0=v0, ncv=16,
                      return_eigenvectors=False)
    return math.sqrt(float(vals[0]))


@pytest.fixture(scope="module")
def benchmark_peaks():
    """(q, m, profile, n) of the two beta = 1 peaks the resolvent-peaks
    benchmark workload solves, on the grids scan_peaks sizes for them."""
    scan, _ = verify.resolvent_scan(1.0, verify.RESOLVENT_BRANCH_M[1.0][:2])
    assert [s.m for s in scan.samples] == [2048, 4096]
    profile = verify.default_config(1.0).profile
    return [(s.q, s.m, profile, s.n) for s in scan.samples]


@pytest.mark.parametrize("case", [0, 1, "uniform"],
                         ids=["peak m=2048", "peak m=4096", "uniform q=640 m=309"])
def test_matches_arpack(case, benchmark_peaks):
    # the oracle of the kernel the Lanczos replaced, at the isolated sigma_min
    # of a peak and at the clustered one of uniform damping off resonance
    if case == "uniform":
        args = (640.0, 309, UniformDamping(1.0, 3.0), 4000)
    else:
        args = benchmark_peaks[case]
    assert resolvent.resolvent_norm(*args).norm == pytest.approx(_arpack_norm(*args), rel=1e-10)


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
            resolvent.scan_and_fit([10.0, 20.0], profile1)

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


def test_strip_grid_spectrum_is_the_dense_spectrum():
    # the closed form against eigvalsh of the dense tridiagonal -d^2/dx^2,
    # and its extremes as the numerical-range bound reads them
    b, n, m = 3.0, 60, 3
    grid = StripGrid(b, n)
    dx = 2 * b / (n + 1)
    off = np.full(n - 1, -1 / dx**2)
    dense = np.linalg.eigvalsh(np.diag(np.full(n, 2 / dx**2)) + np.diag(off, 1)
                               + np.diag(off, -1))
    np.testing.assert_allclose(grid.spectrum, dense, rtol=1e-12, atol=0)
    # undamped, the distance is lambda_1 + s below the spectrum and
    # -(lambda_n + s) above it
    shift = 4 * np.pi**2 * m**2 / b**2
    for q, expected in ((1.0, dense[0] + shift - 1.0), (60.0, -(dense[-1] + shift - 3600.0))):
        distance = resolvent._numerical_range_distance(q, m, grid, 0.0, 0.0)
        assert distance == pytest.approx(expected, rel=1e-12)


def _range_distance(q, m, profile, n):
    grid = StripGrid(profile.b, n)
    W = grid.damping(profile)
    return resolvent._numerical_range_distance(q, m, grid, W.min(), W.max())


def _unpruned_scan_point(q, profile):
    """The maximum over the whole window, one solve per mode."""
    mms = resolvent._m_window(q, profile.b)
    n = max(4000, max(resolvent.min_grid_size(q, mm, profile.b) for mm in mms))
    best = None
    for mm in mms:
        samp = resolvent.resolvent_norm(q, mm, profile, n)
        if best is None or samp.norm > best.norm:
            best = samp
    return best


class TestNumericalRangeSkip:
    """scan_point skips a mode whose norm 1/dist(0, numerical range) bounds
    below the best one found, and returns what the unpruned maximum does."""

    PROFILES = {
        "W=0": UniformDamping(0.0, 3.0),
        "W=1": UniformDamping(1.0, 3.0),
        **{f"strip beta={beta:g}": DampingProfile(beta=beta, a=1.0, sigma=1.0, b=3.0)
           for beta in (0.0, 1.0, 2.0)},
    }

    # q = 40 resonates with m = b q / (2 pi) = 19.1
    @pytest.mark.parametrize("m", [16, 19, 22], ids=["below", "at", "above"])
    @pytest.mark.parametrize("name", list(PROFILES))
    def test_bound_dominates_norm(self, name, m):
        q, n, profile = 40.0, 4000, self.PROFILES[name]
        d = _range_distance(q, m, profile, n)
        assert resolvent.resolvent_norm(q, m, profile, n).norm * d <= 1.0 + 1e-9

    def test_bound_exact_for_uniform_damping_above_resonance(self):
        # P = K + s + i q is normal, and lambda_1 + s > 0 puts the nearest
        # eigenvalue at the corner of the numerical range
        b, n, q, m = 3.0, 4000, 40.0, 22
        dx = 2.0 * b / (n + 1)
        k = np.arange(1, n + 1)
        eigs = 4.0 / dx**2 * np.sin(k * math.pi * dx / (4.0 * b)) ** 2 \
            + 4.0 * math.pi**2 * m**2 / b**2 - q * q
        assert eigs.min() > 0
        exact = 1.0 / np.min(np.abs(eigs + 1j * q))
        d = _range_distance(q, m, UniformDamping(1.0, b), n)
        assert 1.0 / d == pytest.approx(exact, rel=1e-8)

    def test_gcc_grid_equals_unpruned(self):
        gcc = UniformDamping(1.0, 3.0)
        for q in np.geomspace(20.0, 640.0, 6):
            assert resolvent.scan_point(q, gcc) == _unpruned_scan_point(q, gcc)

    def test_pinned_scan_equals_unpruned(self, profile1):
        _, scan = verify.time_pinned_resolvent_scan(1.0)
        # scan_point picks its floor n = 4000 at every q of the pinned grid
        assert all(samp.n == 4000 for samp in scan.samples)
        for samp in scan.samples[::5]:
            assert samp == _unpruned_scan_point(samp.q, profile1)

    @pytest.mark.parametrize("q, modes", [(640.0, [303, 304, 305]), (20.0, [7, 8, 9])])
    def test_uniform_pair_solves_three_modes(self, q, modes, monkeypatch):
        solved = []
        norm = resolvent.resolvent_norm

        def spy(*args, **kwargs):
            solved.append(args[1])
            return norm(*args, **kwargs)

        monkeypatch.setattr(resolvent, "resolvent_norm", spy)
        samp = resolvent.scan_point(q, UniformDamping(1.0, 3.0))
        assert solved == modes
        assert samp.m in modes


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
        signature = inspect.signature(norm)

        def spy(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            tols.append(call.arguments["tol"])
            return norm(*args, **kwargs)

        monkeypatch.setattr(resolvent, "resolvent_norm", spy)
        scan = resolvent.scan_peaks(sols, profile)
        assert [s.m for s in scan.samples] == list(self.MODES)
        assert [s.n for s in scan.samples] == [4000, 4000]
        assert set(tols) == {1e-9}
        # one solve per branch, at the prediction
        assert len(tols) == len(self.MODES)

    def test_prediction_is_the_local_peak(self, branches):
        """The norm at Re q exceeds the norms 0.2 |Im q| to either side."""
        profile, sols = branches
        peaks = {s.m: s for s in resolvent.scan_peaks(sols, profile).samples}
        for sol in sols:
            q, m = quasimode.ansatz_params(sol, profile.b)
            peak = peaks[m]
            assert peak.q == q.real
            for side in (-0.2, 0.2):
                off = resolvent.resolvent_norm(q.real + side * abs(q.imag), m, profile, peak.n)
                assert off.norm < peak.norm


@pytest.mark.slow
class TestBand:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_growth_exponent_in_band(self, beta):
        scan, _ = verify.resolvent_scan_data(beta)
        lo = 1.0 / (beta + 2.0) - 0.05
        hi = 2.0 / (beta + 2.0) + 0.05
        assert lo <= scan.fit.slope <= hi

    def test_scan_consistent_with_quasimode_bounds(self, profile1, cutoff):
        # scanned value at each stored peak dominates the plug-in lower bound
        scan, _ = verify.resolvent_scan_data(1.0)
        ctx = verify.context_for(1.0)
        sample = scan.samples[0]
        sol = eigen.find_eigenvalue(1, select_h(sample.m, 3.0), ctx)
        qm = quasimode.build_quasimode(sol, profile1, cutoff)
        lb = resolvent.quasimode_lower_bound(qm, profile1)
        assert lb.n == sample.n
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
        # every peak again on twice its grid
        two = [resolvent.resolvent_norm(s.q, s.m, cfg.profile, 2 * s.n)
               for s in one.samples]
        fit = loglog_fit([s.q for s in two], [s.norm for s in two])
        assert abs(one.fit.slope - fit.slope) < 0.02
