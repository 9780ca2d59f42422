import numpy as np
import pytest

from stripdamp.fits import linear_fit, local_slopes, loglog_fit
from stripdamp.quadrature import complex_interp, fd_derivative, fd_derivative_at, gauss_panels


class TestGaussPanels:
    def test_polynomial_exact(self):
        # the 10-node rule integrates degree 2 * 10 - 1 exactly
        x, w = gauss_panels([0.0, 1.0, 2.0], 0.3)
        assert np.sum(w * x**19) == pytest.approx(2.0**20 / 20.0, rel=1e-13)

    def test_oscillatory(self):
        x, w = gauss_panels([0.0, np.pi], 0.2)
        assert np.sum(w * np.sin(x)) == pytest.approx(2.0, rel=1e-12)

    def test_panels_respect_breakpoints(self):
        # integrand with a kink at 1: still exact because panels do not straddle
        x, w = gauss_panels([0.0, 1.0, 2.0], 0.5)
        f = np.abs(x - 1.0)
        assert np.sum(w * f) == pytest.approx(1.0, rel=1e-13)

    def test_bad_breakpoints(self):
        with pytest.raises(ValueError):
            gauss_panels([0.0, 0.0, 1.0], 0.1)


class TestFiniteDifferences:
    def test_fourth_order_first_derivative(self):
        errs = []
        for n in (100, 200):
            x = np.linspace(0, 1, n + 1)
            f = np.sin(3 * x) + 1j * np.cos(2 * x)
            d = fd_derivative(f, x[1] - x[0], order=1)
            exact = 3 * np.cos(3 * x) - 2j * np.sin(2 * x)
            errs.append(np.max(np.abs(d - exact)))
        assert errs[1] < errs[0] / 12.0  # at least fourth order

    def test_fourth_order_second_derivative(self):
        errs = []
        for n in (100, 200):
            x = np.linspace(0, 1, n + 1)
            f = np.exp(-(x**2)) * np.exp(1j * x)
            d = fd_derivative(f, x[1] - x[0], order=2)
            g = -2 * x + 1j
            exact = f * (g**2 - 2)
            errs.append(np.max(np.abs(d - exact)))
        assert errs[1] < errs[0] / 12.0

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("n", [7, 8, 41])
    def test_derivative_at_equals_full_grid(self, order, n):
        x = np.linspace(0.0, 1.0, n)
        f = np.exp(3j * x) * (1.0 + x**2)
        full = fd_derivative(f, x[1] - x[0], order=order)
        ends = [0, 1, n - 2, n - 1]
        for idx in (np.array(ends), np.arange(2, n - 2), np.arange(n),
                    np.array([n - 1, n // 2, 0, n // 2, 1, 3, n - 2])):
            at = fd_derivative_at(f, x[1] - x[0], idx, order)
            assert np.array_equal(at, full[idx])

    def test_derivative_at_rejects_indices_off_the_grid(self):
        f = np.ones(9, dtype=complex)
        for idx in ([-1], [9]):
            with pytest.raises(IndexError):
                fd_derivative_at(f, 0.1, np.array(idx), 1)

    def test_complex_interp_outside_is_zero(self):
        x = np.linspace(0, 1, 11)
        y = x + 1j * x
        out = complex_interp(np.array([-0.5, 0.5, 1.5]), x, y)
        assert out[0] == 0 and out[2] == 0
        assert out[1] == pytest.approx(0.5 + 0.5j)


class TestFits:
    def test_exact_power_law(self):
        x = np.geomspace(1, 100, 20)
        y = 3.5 * x**-1.75
        fit = loglog_fit(x, y)
        assert fit.slope == pytest.approx(-1.75, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_local_slopes(self):
        x = np.array([1.0, 2.0, 4.0])
        y = x**3
        assert np.allclose(local_slopes(x, y), [3.0, 3.0])

    def test_linear_fit_basics(self):
        t = np.linspace(0, 10, 50)
        fit = linear_fit(t, -0.7 * t + 2.0)
        assert fit.slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_positive_data_required(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0, 2.0], [1.0, -2.0])
