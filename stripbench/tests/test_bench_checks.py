"""Each output check rejects a perturbed output, and a memoized pass is caught.

    python3 -m pytest stripbench/tests

Every test runs one real pass of a workload (a few seconds each) and then
perturbs one output the way a wrong program would.
"""

import dataclasses

import numpy as np
import pytest

from stripbench import checks as ck
from stripbench import tracing, workloads


def _outputs(cls):
    wl = cls(seed=0)
    return wl, wl.run_pass()


def _failing(results):
    return {c.name for c in results if not c.passed}


@pytest.fixture(scope="module")
def branch():
    return _outputs(workloads.BranchMatching)


@pytest.fixture(scope="module")
def profiles():
    return _outputs(workloads.QuasimodeProfiles)


@pytest.fixture(scope="module")
def peaks():
    return _outputs(workloads.ResolventPeaks)


@pytest.mark.parametrize("label", ["window beta=0 #3", "window beta=1 #3",
                                   "residual-sweep beta=2 m=512"])
def test_matching_rejects_a_root_moved_by_1e_6(branch, label):
    wl, out = branch
    assert not _failing(wl.check(out))
    sol = out[label]
    moved = dict(out)
    moved[label] = dataclasses.replace(sol, lambda_h=sol.lambda_h * (1.0 + 1e-6))
    assert _failing(wl.check(moved)) == {f"matching equation, independent F(0) ({label})"}


def test_beta0_profile_rejects_a_changed_decay_constant(profiles):
    wl, out = profiles
    assert not _failing(wl.check(out))
    label = "quasimode beta=0 m=2048"
    qm = out[label]
    a = qm.eig.a
    beyond = qm.x > a
    v = qm.v.copy()
    theta = np.sqrt(1j - qm.eig.eta) * (1.0 + 1e-4)
    v[beyond] = v[beyond][0] / np.exp(-theta * (qm.x[beyond][0] - a) / qm.h) \
        * np.exp(-theta * (qm.x[beyond] - a) / qm.h)
    changed = dict(out)
    changed[label] = dataclasses.replace(qm, v=v)
    assert _failing(wl.check(changed)) == {f"profile beyond a is the exponential ({label})"}


def test_sigma_min_rejects_a_norm_off_by_1e_6(peaks):
    wl, out = peaks
    assert not _failing(wl.check(out))
    label = "peak beta=1 m=2048"
    off = dict(out)
    off[label] = dataclasses.replace(out[label], norm=out[label].norm * (1.0 - 1e-6))
    assert _failing(wl.check(off)) == {f"sigma_min by banded inverse iteration ({label})"}


def test_dissipation_rejects_a_dropped_step():
    wl = workloads.DecayAndControls(seed=0)
    energies, dissipations = wl.dissipation_terms()
    assert ck.dissipation_defect(energies, dissipations) <= ck.DISSIPATION_RTOL
    k = len(dissipations) // 2
    dropped = np.array(energies)
    dropped[k + 1:] += dissipations[k]        # step k loses no energy
    assert ck.dissipation_defect(dropped, dissipations) > ck.DISSIPATION_RTOL


def test_two_traced_passes_give_equal_counts_and_a_cached_pass_is_caught():
    wl = workloads.QuasimodeProfiles(seed=0)
    spans = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            wl.run_pass()
        spans.append(tracer.spans)
    assert tracing.differing_counts(spans) == []
    counts = tracing.layer_metrics(spans[0], 0.0)
    assert counts["cap.solves"]["value"] > 0 and counts["quasimode.nodes"]["value"] > 0

    tracer = tracing.Tracer()
    with tracer.installed():
        pass        # a memoized pass returns stored outputs and calls no layer
    assert set(tracing.differing_counts([spans[0], tracer.spans])) >= {
        "cap.solves", "cap.points", "eigen.newton_iters", "quasimode.nodes"}
