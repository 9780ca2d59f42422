import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripdamp.errors import ConfigError, DomainError
from stripdamp.model import (
    CutoffFunction,
    DampingProfile,
    UniformDamping,
    config_from_dict,
    mode_from_h,
    parse_config_text,
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
        assert np.all(p.damping(outer) >= p.c_floor)

    def test_smooth_join_reaches_plateau(self):
        p = DampingProfile(beta=1.0, a=0.5, sigma=0.5, b=3.0, join="smooth")
        assert p.damping(p.a + 2 * p.sigma + 0.1) == pytest.approx(
            (2 * p.sigma) ** p.beta
        )
        outer = np.linspace(p.a + p.sigma, p.b, 400)
        assert np.all(p.damping(outer) >= p.c_floor - 1e-14)
        # join is smooth at a + sigma: values approach the edge power there
        eps = 1e-4
        assert p.damping(p.a + p.sigma + eps) == pytest.approx(
            p.edge_power(p.a + p.sigma + eps), rel=1e-6
        )

    def test_invalid_geometry_collects_violations(self):
        with pytest.raises(ConfigError) as exc:
            DampingProfile(beta=1.0, a=2.0, sigma=1.5, b=3.0)
        assert "a + sigma < b" in str(exc.value)

    def test_uniform_damping(self):
        u = UniformDamping(0.7, b=3.0)
        assert np.allclose(u.damping(np.linspace(-3, 3, 11)), 0.7)


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
        assert mode_from_h(select_h(m, b), b) == pytest.approx(m, rel=1e-12)


class TestConfig:
    def test_parse_and_build(self):
        text = """
        # geometry
        beta = 1.0
        a = 1.0
        sigma = 1.0
        b = 3.0
        delta = 0.4
        bc = "dirichlet"
        l = 1
        m_list = [64, 128]
        """
        cfg = config_from_dict(parse_config_text(text))
        assert cfg.profile.beta == 1.0
        assert cfg.m_list == (64, 128)
        # solver tolerances and grids are not configuration keys
        with pytest.raises(ConfigError, match="unknown key 'newton_tol'"):
            parse_config_text(text + "newton_tol = 1e-9\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("betta = 1.0")

    def test_geometry_violation_named(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"a": 2.0, "sigma": 1.5, "b": 3.0})
        assert "a + sigma < b" in str(exc.value)

    def test_dirichlet_rejects_half_integer_l(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"bc": "dirichlet", "l": 0.5})
        assert "integer l" in str(exc.value)

    def test_neumann_requires_half_integer_l(self):
        cfg = config_from_dict({"bc": "neumann", "l": 0.5})
        assert cfg.l == 0.5
        with pytest.raises(ConfigError):
            config_from_dict({"bc": "neumann", "l": 1})

    def test_cutoff_margin_violation_named(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"a": 1.0, "sigma": 1.5, "b": 3.0, "delta": 0.4})
        assert "b - 2*delta" in str(exc.value)
