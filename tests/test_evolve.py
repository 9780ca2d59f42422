import numpy as np
import pytest

from stripdamp import eigen, evolve, quasimode, verify
from stripdamp.errors import InstabilityError
from stripdamp.model import UniformDamping, interior_grid, select_h


@pytest.fixture(scope="module")
def qm(profile1, cutoff):
    ctx = verify.context_for(1.0)
    sol = eigen.find_eigenvalue(1, select_h(64, 3.0), ctx)
    return quasimode.build_quasimode(sol, profile1, cutoff)


def bump_state(n, b=3.0, m=3):
    x, _ = interior_grid(b, n)
    u = np.exp(-4 * x**2) * (1 + 0.2j)
    return evolve.WaveState(u=u, v=np.zeros_like(u), m=m, b=b)


class TestScheme:
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
        x, _ = interior_grid(3.0, n)
        u = np.exp(-6 * (np.abs(x) - 1.8) ** 2) * (1 + 0.2j)
        state = evolve.WaveState(u=u, v=(3.0 + 1.0j) * u, m=3, b=3.0)
        trace, states = evolve.evolve(state, profile1, dt=1e-3, T=0.02,
                                      stride=1, store_states=True)
        W = profile1.damping(x)
        dx = state.dx
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
        with pytest.raises(InstabilityError):
            evolve.evolve(state, UniformDamping(-0.3, 3.0), dt=1e-3, T=2.0,
                          stride=5)

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
        return evolve.EnergyTrace(t, f(t), m=0)

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
        trace = evolve.EnergyTrace(t, t**-1.0, m=0)
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
            evolve.EnergyTrace(tgrid, total, m=0), curvature_tol=1.0
        )
        alpha = fit.exponent if fit.exponent is not None else -0.5 * fit.fit.slope
        lo = (beta + 2) / (beta + 4) - 0.15
        hi = (beta + 2) / (beta + 3) + 0.15
        assert lo <= alpha <= hi
