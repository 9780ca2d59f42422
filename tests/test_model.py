import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripdamp.errors import ConfigError, DomainError
from stripdamp.model import (
    CutoffFunction,
    DampingProfile,
    RunConfig,
    StripGrid,
    UniformDamping,
    select_h,
)


class TestDampingProfile:
    def test_zero_on_strip(self, profile1):
        assert profile1.damping(profile1.a / 2) == 0.0

    def test_growth_region_value(self):
        p = DampingProfile(beta=2.0, a=1.0, sigma=1.0, b=3.0)
        x = p.a + p.sigma / 2
        assert p.damping(x) == pytest.approx((p.sigma / 2) ** 2, rel=1e-15)

    def test_even(self):
        p = DampingProfile(beta=2.0, a=1.0, sigma=1.0, b=3.0)
        x = -(p.a + p.sigma / 2)
        assert p.damping(x) == pytest.approx((p.sigma / 2) ** 2, rel=1e-15)

    def test_outside_domain_raises(self, profile1):
        with pytest.raises(DomainError):
            profile1.damping(profile1.b + 0.1)

    def test_indicator_limit(self):
        p = DampingProfile(beta=0.0, a=1.0, sigma=1.0, b=3.0)
        x = np.array([0.5, 1.0, 1.5, 2.5])
        assert np.allclose(p.damping(x), [0.0, 0.0, 1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3.0, 3.0))
    def test_evenness_property(self, x):
        p = DampingProfile(beta=1.5, a=1.0, sigma=1.0, b=3.0)
        assert p.damping(x) == pytest.approx(p.damping(-x), abs=1e-15)

    def test_monotone_then_floored(self):
        p = DampingProfile(beta=1.5, a=1.0, sigma=1.0, b=3.0)
        grid = np.linspace(p.a, p.a + p.sigma, 500)
        w = p.damping(grid)
        assert np.all(np.diff(w) >= 0)
        outer = np.linspace(p.a + p.sigma, p.b, 200)
        assert np.all(p.damping(outer) >= p.sigma**p.beta)

    def test_invalid_geometry_collects_violations(self):
        with pytest.raises(ConfigError) as exc:
            DampingProfile(beta=1.0, a=2.0, sigma=1.5, b=3.0)
        assert "a + sigma < b" in str(exc.value)

    def test_uniform_damping(self):
        u = UniformDamping(0.7, b=3.0)
        assert np.allclose(u.damping(np.linspace(-3, 3, 11)), 0.7)


class TestStripGrid:
    def test_mirror_symmetric_bit_for_bit(self):
        for n in range(1, 2001):
            x = StripGrid(3.0, n).x
            assert x.size == n and np.array_equal(x, -x[::-1]), n

    # at n = 93, -b + dx * (n // 2 + 1) rounds to -4.4e-16, not to 0
    @pytest.mark.parametrize("n", [1, 2, 93, 146, 1000])
    def test_right_half_keeps_the_spacing_formula(self, n):
        grid, half = StripGrid(3.0, n), n // 2
        assert np.array_equal(grid.x[half:][n % 2:],
                              (-3.0 + grid.dx * np.arange(half + 1, n + 1))[n % 2:])
        assert np.all(np.diff(grid.x) > 0)
        if n % 2:
            assert grid.x[half] == 0.0

    def test_indicator_damping_sampled_evenly(self):
        # n = 146 is the first n >= 100 at which the nodes -b + dx * k miss
        # their mirrors at |x| = a, reading W = 0 on one side and 1 on the other
        W = StripGrid(3.0, 146).damping(DampingProfile(0.0, 1.0, 1.0, 3.0))
        assert np.array_equal(W, W[::-1])


class TestCutoff:
    def test_plateaus(self, cutoff):
        b, d = cutoff.b, cutoff.delta
        assert cutoff.value(b - 3 * d) == 1.0
        assert cutoff.value(b - d / 2) == 0.0

    def test_transition_interior_and_monotone(self, cutoff):
        b, d = cutoff.b, cutoff.delta
        mid = cutoff.value(b - 1.5 * d)
        assert 0.0 < mid < 1.0
        xs = np.linspace(b - 2 * d + 1e-9, b - d - 1e-9, 300)
        diffs = np.diff(cutoff.value(xs))
        assert np.all(diffs <= 0)  # exp(-1/t) underflows flat at the edges
        core = np.linspace(b - 1.9 * d, b - 1.1 * d, 100)
        assert np.all(np.diff(cutoff.value(core)) < 0)

    def test_derivatives_vanish_at_ends(self, cutoff):
        b, d = cutoff.b, cutoff.delta
        for x in (b - 2 * d + 1e-7, b - d - 1e-7):
            assert abs(cutoff.derivative(x, 1)) < 1e-4
            assert abs(cutoff.derivative(x, 2)) < 1e-2

    def test_derivatives_match_finite_differences(self, cutoff):
        b, d = cutoff.b, cutoff.delta
        xs = np.linspace(b - 2 * d + 0.05, b - d - 0.05, 40)
        eps = 1e-6
        fd1 = (cutoff.value(xs + eps) - cutoff.value(xs - eps)) / (2 * eps)
        assert np.allclose(cutoff.derivative(xs, 1), fd1, rtol=1e-7, atol=1e-9)
        fd2 = (
            cutoff.value(xs + eps) - 2 * cutoff.value(xs) + cutoff.value(xs - eps)
        ) / eps**2
        assert np.allclose(cutoff.derivative(xs, 2), fd2, rtol=1e-3, atol=1e-5)

    def test_product_identity_outside_transition(self, cutoff):
        b, d = cutoff.b, cutoff.delta
        xs = np.concatenate([np.linspace(0, b - 2 * d, 50),
                             np.linspace(b - d, b, 20)])
        phi = cutoff.value(xs)
        assert np.all(phi * (1 - phi) == 0.0)

    def test_max_slope_is_finite_and_reported(self, cutoff):
        xs = np.linspace(cutoff.b - 2 * cutoff.delta, cutoff.b - cutoff.delta, 2000)
        assert np.max(np.abs(cutoff.derivative(xs, 1))) < 100.0


class TestSelectH:
    def test_known_values(self):
        assert select_h(100, 1.0) == pytest.approx(0.0398942, abs=1e-6)
        assert select_h(400, 1.0) == pytest.approx(0.0199471, abs=1e-6)
        assert select_h(1, 2 * math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            select_h(0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**7), st.floats(0.1, 10.0))
    def test_roundtrip(self, m, b):
        h = select_h(m, b)
        assert b / (2 * math.pi * h**2) == pytest.approx(m, rel=1e-12)


class TestConfig:
    """RunConfig checks the profile and the cutoff against each other."""

    def test_geometry_violation_named(self, profile1):
        with pytest.raises(ConfigError) as exc:
            RunConfig(profile=profile1, cutoff=CutoffFunction(b=4.0, delta=0.4))
        assert "disagree on the domain half-width b" in str(exc.value)

    def test_cutoff_margin_violation_named(self, cutoff):
        profile = DampingProfile(beta=1.0, a=1.0, sigma=1.5, b=3.0)
        with pytest.raises(ConfigError) as exc:
            RunConfig(profile=profile, cutoff=cutoff)
        assert "b - 2*delta" in str(exc.value)
