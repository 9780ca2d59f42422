"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line per check so the gate reads as a
checklist under ``pytest -v -s``. The heavy sweeps are cached inside
stripdamp.verify, so module tests and this gate share the work.

Criterion 4 asserts the quasimode-residual exponent -2 +- 0.1. The residual
of the glued construction is dominated by the term (i lambda^2/2) W u that
its half-line factor leaves behind, whose exponent is
-(4 beta + 7)/(2 (beta + 2)), i.e. -1.75, -1.83, -1.88 for beta = 0, 1, 2.
The fitted exponents are -1.727, -1.761 and -1.841; the companion check
asserts the construction value to +- 0.1. At beta = 2 the lowest sweep point
(m = 512) has an outer-region residual from the constant join, 2.32e-5, as
large as its inner residual, 2.27e-5, so the fitted -1.841 is not the inner
law: the fit over the inner residual alone gives -1.767. The other leftover,
-(lambda^4/4) u, decays with exponent -2, the rate a construction absorbing
all of q W into the half-line factor would show; nothing in the repository
settles which construction the pin is meant for (see CHANGES.md). The -2
assertion is kept as written and is expected to fail; it is not weakened
here.
"""

import numpy as np
import pytest

from stripdamp import verify

# the whole pipeline gate; `pytest -m "not slow"` leaves it out
pytestmark = pytest.mark.slow


def _assert_all(report):
    for check in report.checks:
        print(check.line())
    failed = [c for c in report.checks if not c.passed]
    assert not failed, "; ".join(c.line() for c in failed)


class TestCriterion1CapOracle:
    def test_airy_boundary_value_and_runtime(self):
        _assert_all(verify.check_cap_oracle())


class TestCriterion2NeumannOracle:
    def test_ground_levels(self):
        _assert_all(verify.check_neumann_oracles())


class TestCriterion3EigenvalueScaling:
    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_gap_exponent_and_bound(self, beta):
        _assert_all(verify.check_eigen_scaling(beta))


class TestCriterion4QuasimodeResidual:
    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_residual_exponent(self, beta):
        # asserts the specified -2 +- 0.1; see the module docstring
        _assert_all(verify.check_residual_scaling(beta))


class TestCriterion5FrequencyPlacement:
    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_imq_exponent(self, beta):
        _assert_all(verify.check_frequency_placement(beta))


class TestCriterion6TailDecay:
    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_tail_and_mass_bound(self, beta):
        _assert_all(verify.check_tail_decay(beta))


class TestCriterion7ResolventBand:
    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_band_and_budget(self, beta):
        _assert_all(verify.check_resolvent_band(beta))

    def test_undamped_control(self):
        _assert_all(verify.check_resolvent_w0_control())

    def test_uniform_damping_control(self):
        _assert_all(verify.check_resolvent_gcc_control())

    def test_pinned_grid_scan_budget(self):
        elapsed, scan = verify.time_pinned_resolvent_scan(1.0)
        budget = verify.THRESHOLDS["resolvent_budget_s"]
        line = (f"[{'PASS' if elapsed < budget else 'FAIL'}] pinned n=4000 scan: "
                f"{elapsed:.0f}s over q in [{scan.samples[0].q:.0f}, "
                f"{scan.samples[-1].q:.0f}]")
        print(line)
        assert elapsed < budget


class TestCriterion8TimeDomain:
    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_quasimode_decay_rate(self, beta):
        _assert_all(verify.check_quasimode_decay(beta))

    def test_conservation_and_controls(self):
        _assert_all(verify.check_conservation_and_gcc())


class TestCriterion9CrossValidation:
    def test_newton_equals_raw_root(self):
        _assert_all(verify.check_crossval())


class TestSupplementaryScaling:
    """Positive certification of what the construction actually obeys."""

    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_residual_bound_and_true_exponent(self, beta):
        rep = verify.check_residual_scaling(beta)
        by_name = {c.name: c for c in rep.checks}
        key = f"residual matches the construction exponent (beta={beta:g})"
        assert by_name[key].passed, by_name[key].line()
        key = f"residual bounded by C / Re q (beta={beta:g})"
        assert by_name[key].passed, by_name[key].line()

    @pytest.mark.parametrize("beta", verify.BETAS)
    def test_scaling_summary_table(self, beta):
        qms = verify.quasimode_sweep_data(beta, "residual")
        qs = np.array([q.q.real for q in qms])
        res = np.array([q.residual for q in qms])
        imq = np.array([abs(q.q.imag) for q in qms])
        from stripdamp.fits import loglog_fit
        print(
            f"beta={beta:g}: residual exponent {loglog_fit(qs, res).slope:+.3f}, "
            f"Im q exponent {loglog_fit(qs, imq).slope:+.3f} over "
            f"Re q in [{qs[0]:.0f}, {qs[-1]:.0f}]"
        )
