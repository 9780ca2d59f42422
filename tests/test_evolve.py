import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stripdamp import eigen, evolve, quasimode, verify
from stripdamp.errors import InstabilityError, PreconditionError
from stripdamp.fits import loglog_fit
from stripdamp.model import StripGrid, UniformDamping, select_h


@pytest.fixture(scope="module")
def qm(profile1, cutoff):
    ctx = verify.context_for(1.0)
    sol = eigen.find_eigenvalue(1, select_h(64, 3.0), ctx)
    return quasimode.build_quasimode(sol, profile1, cutoff)


def bump_state(n, b=3.0, m=3):
    x = StripGrid(b, n).x
    u = np.exp(-4 * x**2) * (1 + 0.2j)
    return evolve.WaveState(u=u, v=np.zeros_like(u), m=m, b=b)


def sparse_stiffness(n, b, m):
    """(A, dx): the assembled -d^2/dx^2 + 4 pi^2 m^2 / b^2 with Dirichlet ends."""
    dx = StripGrid(b, n).dx
    off = np.full(n - 1, -1.0 / dx**2)
    diag = np.full(n, 2.0 / dx**2 + 4.0 * np.pi**2 * m**2 / b**2)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csc"), dx


def oracle_evolve(state, profile, dt, steps):
    """The implicit midpoint rule stepped in (u, v) with a sparse LU and a stiffness product.

    Returns the final (u, v) and the energy (<A u, u> + |v|^2) dx / 2 after
    every step, with A the assembled sparse stiffness.
    """
    A, dx = sparse_stiffness(state.n, state.b, state.m)
    W = profile.damping(StripGrid(state.b, state.n).x)
    alpha = 0.5 * dt
    one_plus_aw = 1.0 + alpha * W
    lu = spla.splu(sp.diags(one_plus_aw, format="csc", dtype=complex)
                   + alpha**2 * A.astype(complex))
    u, v = state.u.astype(complex), state.v.astype(complex)

    def energy(u, v):
        return 0.5 * dx * (np.vdot(u, A @ u).real + np.vdot(v, v).real)

    energies = [energy(u, v)]
    for _ in range(steps):
        r1 = u + alpha * v
        r2 = v - alpha * (A @ u + W * v)
        u_new = lu.solve(alpha * r2 + one_plus_aw * r1)
        u, v = u_new, (u_new - r1) / alpha
        energies.append(energy(u, v))
    return u, v, np.asarray(energies)


class TestScheme:
    def test_energy_summed_by_parts(self):
        # random data, so the end terms of the summation by parts count
        rng = np.random.default_rng(7)
        n, b, m = 500, 3.0, 3
        u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        A, dx = sparse_stiffness(n, b, m)
        expected = 0.5 * dx * (np.vdot(u, A @ u).real + np.vdot(v, v).real)
        state = evolve.WaveState(u=u, v=v, m=m, b=b)
        assert evolve.discrete_energy(state) == pytest.approx(expected, rel=1e-13)

    def test_times_are_k_dt_from_zero(self):
        # every run starts at t = 0 and samples every stride-th step and the last
        dt, stride = 1e-3, 7
        trace = evolve.evolve(bump_state(200), UniformDamping(0.0, 3.0), dt=dt, T=0.05,
                              stride=stride)
        ks = list(range(0, 50, stride)) + [50]
        assert np.array_equal(trace.times, np.array([k * dt for k in ks]))
        assert trace.times[0] == 0.0

    def test_energy_conserved_without_damping(self):
        state = bump_state(800)
        trace = evolve.evolve(state, UniformDamping(0.0, 3.0), dt=2e-3, T=30.0,
                              stride=25)
        drift = np.max(np.abs(trace.energies / trace.energies[0] - 1.0))
        assert drift < 1e-10

    def test_discrete_dissipation_identity(self, profile1):
        # E[k+1] - E[k] = -dt * integral W |v at the midpoint|^2, exactly;
        # the bump sits inside the damped region so the per-step dissipation
        # dwarfs the rounding of the energy evaluations
        n = 400
        x = StripGrid(3.0, n).x
        u = np.exp(-6 * (np.abs(x) - 1.8) ** 2) * (1 + 0.2j)
        state = evolve.WaveState(u=u, v=(3.0 + 1.0j) * u, m=3, b=3.0)
        trace, states = evolve.evolve(state, profile1, dt=1e-3, T=0.02,
                                      stride=1, store_states=True)
        W = profile1.damping(x)
        dx = state.grid.dx
        for k in range(len(states) - 1):
            vh = 0.5 * (states[k].v + states[k + 1].v)
            lhs = trace.energies[k + 1] - trace.energies[k]
            rhs = -1e-3 * dx * float(np.sum(W * np.abs(vh) ** 2))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_energy_never_increases_with_damping(self, profile1):
        state = bump_state(600)
        trace = evolve.evolve(state, profile1, dt=1e-3, T=5.0, stride=10)
        assert np.all(np.diff(trace.energies) <= 1e-12 * trace.energies[0])

    def test_negative_damping_detected(self):
        state = bump_state(300)
        with pytest.raises(InstabilityError, match=r"damping is negative \(min W = -0\.3\)"):
            evolve.evolve(state, UniformDamping(-0.3, 3.0), dt=1e-3, T=2.0,
                          stride=5)

    def test_step_matrix_not_positive_definite(self):
        # 1 + W dt/2 = -0.5: the step matrix has a negative pivot, which no
        # energy sample would show before the first step
        state = bump_state(300)
        with pytest.raises(InstabilityError, match=r"\(n, dt, m\) = \(300, 0\.001, 3\).*pivot 1 "):
            evolve.evolve(state, UniformDamping(-3000.0, 3.0), dt=1e-3, T=2.0,
                          stride=5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"dt": 0.0}, r"dt must be positive \(got 0\.0\)"),
        ({"dt": -1e-3}, r"dt must be positive \(got -0\.001\)"),
        ({"T": -1.0}, r"T must be nonnegative \(got -1\.0\)"),
        ({"stride": 0}, r"stride must be at least 1 \(got 0\)"),
    ])
    def test_bad_step_arguments_refused(self, kwargs, message, profile1, monkeypatch):
        # refused before the step matrix is factored, not by a division by
        # zero or a one-sample trace
        def boom(*args, **kwargs):
            raise AssertionError("the step matrix was factored")

        monkeypatch.setattr(evolve.lapack, "dpttrf", boom)
        args = {"dt": 1e-3, "T": 1.0, "stride": 1, **kwargs}
        with pytest.raises(PreconditionError, match=message):
            evolve.evolve(bump_state(300), profile1, **args)

    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_matches_sparse_lu_stepper(self, beta):
        """The eliminated step reproduces the (u, v) step it replaced."""
        cfg = verify.default_config(beta)
        ctx = verify.context_for(beta)
        m = verify.EVOLVE_MODES[beta][0]
        sol = eigen.find_eigenvalue(ctx.l, select_h(m, cfg.profile.b), ctx)
        qmode = quasimode.build_quasimode(sol, cfg.profile, cfg.cutoff)
        n = max(600, int(round(2.0 * cfg.profile.b / (qmode.s / 25.0))))
        state = evolve.quasimode_state(qmode, n)
        dt = 0.12 / qmode.q.real
        steps = 500
        u, v, energies = oracle_evolve(state, cfg.profile, dt, steps)
        trace, states = evolve.evolve(state, cfg.profile, dt, steps * dt,
                                      store_states=True)
        assert trace.energies.size == steps + 1
        assert np.linalg.norm(states[-1].u - u) <= 1e-11 * np.linalg.norm(u)
        assert np.linalg.norm(states[-1].v - v) <= 1e-11 * np.linalg.norm(v)
        assert np.max(np.abs(trace.energies / energies - 1.0)) <= 1e-11

    @pytest.mark.parametrize("n", [301, 300])
    @pytest.mark.parametrize("parity, block_rows", [
        ("even", lambda n: n // 2 + n % 2),
        ("odd", lambda n: n // 2),
        ("mixed", lambda n: n),
        ("bump", lambda n: n // 2 + n % 2),
    ])
    def test_reflection_blocks_match_sparse_lu(self, n, parity, block_rows, profile1,
                                               monkeypatch):
        """Each parity, at odd and even n, steps as the full-grid (u, v) step
        does, and on only the rows of its reflection blocks. The bump the
        controls start from is sampled on the mirror-symmetric grid, so it is
        exactly even."""
        x = StripGrid(3.0, n).x
        if parity == "mixed":
            rng = np.random.default_rng(11)
            u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        elif parity == "bump":
            bump = bump_state(n)
            u, v = bump.u, bump.v
        else:
            sign = 1.0 if parity == "even" else -1.0
            f = (1.0 + x) * np.exp(-4.0 * (x - 0.3) ** 2) * (1 + 0.2j)
            u = 0.5 * (f + sign * f[::-1])
            v = (3.0 + 1.0j) * u
        state = evolve.WaveState(u=u, v=v, m=3, b=3.0)
        rows = []
        dpttrf = evolve.lapack.dpttrf

        def counted(d, e):
            rows.append(d.size)
            return dpttrf(d, e)

        monkeypatch.setattr(evolve.lapack, "dpttrf", counted)
        dt, steps = 1e-3, 200
        u_ref, v_ref, energies = oracle_evolve(state, profile1, dt, steps)
        trace, states = evolve.evolve(state, profile1, dt, steps * dt, store_states=True)
        assert rows == [block_rows(n)]
        assert np.linalg.norm(states[-1].u - u_ref) <= 1e-11 * np.linalg.norm(u_ref)
        assert np.linalg.norm(states[-1].v - v_ref) <= 1e-11 * np.linalg.norm(v_ref)
        assert np.max(np.abs(trace.energies / energies - 1.0)) <= 1e-11

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_grid_keeps_both_blocks(self, n, profile1):
        # a one-parity state on fewer than 4 nodes would leave a one-row block
        x = StripGrid(3.0, n).x
        u = (x - x[::-1]) * (1 + 0.2j)
        state = evolve.WaveState(u=u, v=np.zeros_like(u), m=3, b=3.0)
        u_ref, _, energies = oracle_evolve(state, profile1, 1e-3, 20)
        trace, states = evolve.evolve(state, profile1, 1e-3, 0.02, store_states=True)
        assert np.linalg.norm(states[-1].u - u_ref) <= 1e-11 * np.linalg.norm(u_ref)
        assert np.max(np.abs(trace.energies / energies - 1.0)) <= 1e-11

    def test_uneven_damping_refused(self):
        class Ramp:
            """W = 1 + x / 10: positive, but not even."""

            def damping(self, x):
                return 1.0 + 0.1 * np.asarray(x, dtype=float)

        with pytest.raises(PreconditionError, match=r"damping is not even: W\(x\) = 1\.29801 "
                                                    r"but W\(-x\) = 0\.701993 at x = 2\.98007"):
            evolve.evolve(bump_state(300), Ramp(), dt=1e-3, T=1.0)

    @pytest.mark.parametrize("n", [601, 600])
    def test_quasimode_state_is_odd(self, qm, n):
        state = evolve.quasimode_state(qm, n)
        assert np.array_equal(state.u, -state.u[::-1])
        assert np.array_equal(state.v, -state.v[::-1])
        if n % 2:
            assert state.u[n // 2] == 0.0

    def test_quasimode_decays_at_twice_imq(self, qm, profile1):
        n = max(600, int(round(6.0 / (qm.s / 25.0))))
        state = evolve.quasimode_state(qm, n)
        dt = 0.12 / qm.q.real
        T = 0.025 / qm.q.imag
        trace = evolve.evolve(state, profile1, dt, T,
                              stride=max(1, int(T / dt / 300)))
        fit = evolve.fit_exponential_rate(trace)
        assert -fit.slope == pytest.approx(2.0 * qm.q.imag, rel=0.05)

    def test_uniform_damping_exponential(self):
        state = bump_state(500)
        trace = evolve.evolve(state, UniformDamping(1.0, 3.0), dt=1e-3, T=30.0,
                              stride=30)
        fit = evolve.fit_exponential_rate(trace, t_min=2.0)
        assert fit.r2 > 0.999
        assert fit.slope < 0


class TestRateFit:
    def synthetic_trace(self, f):
        t = np.geomspace(0.5, 200.0, 400)
        t = np.concatenate([[1e-3], t])
        return evolve.EnergyTrace(t, f(t))

    def test_exact_power_law(self):
        trace = self.synthetic_trace(lambda t: 2.0 * t ** (-4.0 / 3.0))
        fit = evolve.fit_decay(trace)
        assert not fit.inconclusive
        assert fit.exponent == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_exponential_flagged(self):
        trace = self.synthetic_trace(lambda t: np.exp(-0.8 * t))
        fit = evolve.fit_decay(trace)
        assert fit.inconclusive
        assert fit.exponent is None
        assert fit.reason in ("r2", "curvature")

    def test_window_excludes_transient(self):
        trace = self.synthetic_trace(lambda t: t**-2.0)
        fit = evolve.fit_decay(trace)
        assert fit.window[0] >= 0.1 * trace.times[-1] * (1 - 1e-12)

    def test_narrow_window_rejected(self):
        t = np.linspace(50.0, 100.0, 60)
        trace = evolve.EnergyTrace(t, t**-1.0)
        with pytest.raises(ValueError):
            evolve.fit_decay(trace)


@pytest.mark.slow
class TestDecayBand:
    def test_multimode_band(self):
        """Superposed strip modes decay inside the theory band.

        Separation is exact, so each transverse mode evolves on its own and
        the energies add. Amplitudes weight the initial data like the
        second-derivative norm the decay definition divides by, which is what
        lets a finite family trace out the envelope.
        """
        beta = 1.0
        from stripdamp.model import CutoffFunction, DampingProfile
        profile = DampingProfile(beta=beta, a=2.0, sigma=0.5, b=3.0)
        cut = CutoffFunction(b=3.0, delta=0.2)
        ctx = eigen.build_context(beta, 2.0, 1)
        traces = []
        T = 420.0
        for m in (6, 12, 24, 48):
            sol = eigen.find_eigenvalue(1, select_h(m, 3.0), ctx)
            qmode = quasimode.build_quasimode(sol, profile, cut)
            n = max(500, int(round(6.0 / (qmode.s / 20.0))))
            state = evolve.quasimode_state(qmode, n)
            weight = 1.0 / abs(qmode.q) ** 2  # data norm with two derivatives
            state = evolve.WaveState(u=weight * state.u, v=weight * state.v,
                                     m=state.m, b=state.b)
            dt = 0.15 / qmode.q.real
            stride = max(1, int(round((T / dt) / 2000)))
            traces.append(evolve.evolve(state, profile, dt, T, stride=stride))
        tgrid = np.geomspace(4.0, T, 160)
        total = np.zeros_like(tgrid)
        for tr in traces:
            total += np.interp(tgrid, tr.times, tr.energies)
        fit = evolve.fit_decay(
            evolve.EnergyTrace(tgrid, total)
        )
        # an inconclusive fit asserts no exponent; read the window's slope
        sel = (tgrid >= fit.window[0]) & (tgrid <= fit.window[1])
        slope = loglog_fit(tgrid[sel], total[sel]).slope
        alpha = fit.exponent if fit.exponent is not None else -0.5 * slope
        lo = (beta + 2) / (beta + 4) - 0.15
        hi = (beta + 2) / (beta + 3) + 0.15
        assert lo <= alpha <= hi
