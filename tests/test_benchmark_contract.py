"""The benchmark's in-process workloads still run cleanly on this library.

``perfbench`` calls aodkit by name and checks its outputs; an op whose
check fails for a reason other than one of its two declared noisy-path
defects (a failure with ``known`` None) makes the benchmark report wrong
outputs.  This runs a few tiny ops of ``lab-noisy`` and ``design-sweep``
so that a signature or output change shows here first.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def bench():
    """perfbench's workloads module and the reference system its ops perturb."""
    sys.path.insert(0, PERFBENCH)
    try:
        import common
        import workloads as wl
    finally:
        sys.path.remove(PERFBENCH)
    return wl, wl.reference_system(common.CONFIG)


def _unexpected(failures):
    return [f for f in failures if f[2] is None]


def test_lab_campaign_has_no_unexpected_failure(bench):
    wl, ref = bench
    for system in wl.lab_tiny_inputs(1, 5):
        _, checks = wl.lab_campaign(system, ref, points=401)
        assert _unexpected(checks.failures) == [], system


def test_design_evaluation_has_no_unexpected_failure(bench):
    wl, ref = bench
    for case in wl.design_tiny_inputs(1, 3):
        _, checks = wl.design_evaluation(case, ref, mc_samples=70_000)
        assert _unexpected(checks.failures) == [], case
