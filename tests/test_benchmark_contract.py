"""The benchmark's in-process workloads still run cleanly on this library.

``perfbench`` calls aodkit by name and checks its outputs; an op whose
check fails for a reason other than one of its two declared noisy-path
defects (a failure with ``known`` None) makes the benchmark report wrong
outputs.  This runs a few tiny ops of ``lab-noisy`` and ``design-sweep``
so that a signature or output change shows here first.  It also runs the
benchmark's self-test paths in process: one op of each under its span
tracer (which wraps library functions by name) and under its fault
injection (which rebuilds ``ProfileFit`` and ``CrosstalkMatrix``
positionally).
"""

import json
import os
import sys

import pytest

from aodkit.cli import main, report, svgplot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


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


@pytest.fixture(scope="module")
def harness():
    """perfbench's tracing and worker modules."""
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
        import worker
    finally:
        sys.path.remove(PERFBENCH)
    return tracing, worker


def _one_op_each(wl, ref):
    _, lab = wl.lab_campaign(wl.lab_tiny_inputs(1, 1)[0], ref, points=401)
    _, design = wl.design_evaluation(wl.design_tiny_inputs(1, 1)[0], ref, mc_samples=70_000)
    return lab.failures + design.failures


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


def test_traced_ops_count_and_have_no_unexpected_failure(bench, harness):
    wl, ref = bench
    tracer = harness[0].Tracer()
    tracer.install(cli=True)
    try:
        failures = _one_op_each(wl, ref)
    finally:
        tracer.uninstall()
    assert _unexpected(failures) == []
    counted = {name for name, _value, _op in tracer.counters}
    assert {"virtual_lab.noise_draws", "addressing_analyzer.clipped_crosstalk.offsets",
            "prism_designer.tolerance_monte_carlo.samples"} <= counted, counted


def test_traced_cli_command_records_its_stage_spans(tmp_path, harness):
    """``main`` reads the config parser, handler table and report writer at
    call time, so the wrappers the tracer installs record their spans."""
    tracer = harness[0].Tracer()
    tracer.install(cli=True)
    config = os.path.join(ROOT, "configs", "paper_system.yaml")
    try:
        assert main(["trace", "--config", config, "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for name in ("cli.config.parse_config", "cli.handler.trace",
                 "cli.report.write_run_report", "cli.report.write_csv"):
        assert names.count(name) == 1, names


@pytest.mark.parametrize("workload, message", [
    ("lab-noisy", "fitted waist off"), ("design-sweep", "crosstalk diagonal is not 1")])
def test_injected_fault_trips_a_check(bench, harness, workload, message):
    from aodkit import addressing_analyzer, virtual_lab

    wl, ref = bench
    saved = virtual_lab.fit_gaussian_profile, addressing_analyzer.crosstalk_matrix
    try:
        harness[1].InProcess(workload, 1, 0)._inject_fault()
        failures = _one_op_each(wl, ref)
    finally:
        virtual_lab.fit_gaussian_profile, addressing_analyzer.crosstalk_matrix = saved
    # the check trips on the wrong value, not on a raise of the rebuild
    assert any(message in f[1] for f in _unexpected(failures)), failures


def test_every_manifest_artifact_goes_through_the_traced_writers(tmp_path, monkeypatch):
    """perfbench times artifact writes by wrapping ``report.write_csv`` and
    ``svgplot.line_plot``; a write that bypasses them leaves
    ``cli.report.write_s`` short."""
    calls = []

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            calls.append(kind)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(report, "write_csv", counting("csv", report.write_csv))
    monkeypatch.setattr(svgplot, "line_plot", counting("svg", svgplot.line_plot))
    config = os.path.join(ROOT, "configs", "paper_system.yaml")
    assert main(["crosstalk", "--config", config, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "crosstalk_report.json", encoding="utf-8") as fh:
        manifest = json.load(fh)["artifacts"]
    assert (calls.count("csv"), calls.count("svg")) == (2, 1)
    assert len(calls) == len(manifest)
