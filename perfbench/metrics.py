"""Metric definitions and the reduction of spans and op records to them.

``END_TO_END`` and ``PER_LAYER`` are the metrics BENCHMARK.json declares;
the self-test checks that the two agree.  Per-layer seconds are self time
per op (nested spans subtracted); ``cli.handler.<slug>.s`` is per run of
that subcommand.
"""

from collections import defaultdict

from common import median, rolling_window_medians, tail
from tracing import LAYERS, layer_of, self_times

CLI_SLUGS = ("design_prism", "tolerance", "trace", "steer", "efficiency", "monitor",
             "crosstalk", "misalign", "lab_profile_scan", "lab_chain_scan",
             "lab_crosstalk", "lab_switching")

END_TO_END = (
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("pass_s_p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_TIMED = (
    "cli.config.parse_config", "addressing_analyzer.clipped_crosstalk",
    "addressing_analyzer.crosstalk_matrix", "beam_optics.diffract",
    "beam_optics.focused_field_at", "beam_optics.trace_train",
    "prism_designer.tolerance_monte_carlo", "prism_designer.solve_alpha_prime",
    "prism_designer.sensitivity", "aod_model.steering_map",
    "aod_model.diffraction_efficiency", "virtual_lab.simulate_chain_scan",
    "virtual_lab.count_resolved_peaks", "virtual_lab.simulate_profile_scan",
    "virtual_lab.fit_gaussian_profile", "virtual_lab.simulate_crosstalk_experiment",
    "virtual_lab.simulate_switching_experiment", "virtual_lab.fit_switch_time",
    "bloch.excited_population",
)
_CALLS = ("addressing_analyzer.clipped_crosstalk", "aod_model.steering_map",
          "bloch.excited_population")
_REPORT_SPANS = ("cli.report.write_csv", "cli.report.line_plot", "cli.report.write_run_report")

PER_LAYER = (
    (("import.aodkit_cli_s", "s"), ("import.modules_loaded", "count"),
     ("import.scipy_heavy_loaded", "count"))
    + tuple((f"{name}.s", "s") for name in _TIMED)
    + tuple((f"cli.handler.{slug}.s", "s") for slug in CLI_SLUGS)
    + (("cli.report.write_s", "s"), ("cli.report.bytes", "B"))
    + tuple((f"{name}.calls", "count") for name in _CALLS)
    + (("addressing_analyzer.clipped_crosstalk.distinct_offset_frac", "frac"),
       ("beam_optics.focused_field_at.probe_samples", "count"),
       ("beam_optics.focused_field_at.bytes", "B"),
       ("prism_designer.tolerance_monte_carlo.samples_per_s", "1/s"),
       ("prism_designer.tolerance_monte_carlo.infeasible_frac", "frac"),
       ("virtual_lab.noise_draws", "count"),
       ("virtual_lab.count_resolved_peaks.wrong_frac", "frac"),
       ("virtual_lab.fit_switch_time.fail_frac", "frac"),
       ("bloch.excited_population.max_abs_err", "abs"))
    + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)
    + (("layer.unattributed.self_s", "s"),
       ("trace.op_s_p50", "s"),
       ("trace.spans_per_op", "count"),
       ("trace.import_addressing_share", "frac"),
       ("ops.fail_frac", "frac"))
)


def end_to_end(record, setup_samples):
    """End-to-end metric values of one run from the worker's record."""
    times = record["op_times"]
    tail_value, tail_pct, count = tail(times)
    values = {
        "op_s_p50": median(times),
        "op_s_tail": tail_value,
        "ops_per_s": len(times) / sum(times),
        "pass_s_p50": rolling_window_medians(times, record["period"]),
        "setup_s": median(setup_samples),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    notes = {"op_s_tail_percentile": tail_pct, "op_count": count,
             "pass_ops": record["period"], "setup_samples": setup_samples}
    return values, notes


def fail_frac(record):
    """Share of ops with any failed check, known defects included."""
    return len({f["op"] for f in record["failures"]}) / len(record["op_times"])


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(record):
    """Per-layer metric values of a traced run from the worker's record.

    ``record["spans"]`` holds one span list per process (span parents are
    indices into their own list); ``record["counters"]`` holds
    ``(name, value, op)`` triples.  Only spans and counters of timed ops
    (``op`` not None) count, except the import span, which in-process
    workloads pay once during set-up.
    """
    n_ops = len(record["op_times"])
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    root_time = 0.0
    import_addressing = 0.0  # inclusive: clipped_crosstalk holds the optics under it
    for spans in record["spans"]:
        for (name, self_s, op), span in zip(self_times(spans), spans):
            if op is None:
                continue
            self_by_name[name] += self_s
            calls[name] += 1
            layer_self[layer_of(name)] += self_s
            if span[3] is None:
                root_time += span[2] - span[1]
            if layer_of(name) in ("import", "addressing_analyzer"):
                import_addressing += span[2] - span[1]
    counters = defaultdict(float)
    for name, value, op in record["counters"]:
        if op is not None:
            counters[name] += value
    obs = defaultdict(float)
    for o in record["op_obs"]:
        for key, value in o.items():
            obs[key] += value

    # A CLI process that dies before writing its spans leaves no import facts.
    out = {name: median(record[key]) if record[key] else 0.0 for name, key in (
        ("import.aodkit_cli_s", "import_s"), ("import.modules_loaded", "modules_loaded"),
        ("import.scipy_heavy_loaded", "scipy_heavy_loaded"))}
    for name in _TIMED:
        out[f"{name}.s"] = self_by_name[name] / n_ops
    for slug in CLI_SLUGS:
        runs = record["handler_runs"].get(slug, 0)
        out[f"cli.handler.{slug}.s"] = _ratio(self_by_name[f"cli.handler.{slug}"], runs)
    out["cli.report.write_s"] = sum(self_by_name[n] for n in _REPORT_SPANS) / n_ops
    out["cli.report.bytes"] = obs["report_bytes"] / n_ops
    for name in _CALLS:
        out[f"{name}.calls"] = calls[name] / n_ops
    xt = "addressing_analyzer.clipped_crosstalk"
    out[f"{xt}.distinct_offset_frac"] = _ratio(counters[f"{xt}.distinct_offsets"],
                                               counters[f"{xt}.offsets"])
    for key in ("probe_samples", "bytes"):
        name = f"beam_optics.focused_field_at.{key}"
        out[name] = counters[name] / n_ops
    mc = "prism_designer.tolerance_monte_carlo"
    out[f"{mc}.samples_per_s"] = _ratio(counters[f"{mc}.samples"], self_by_name[mc])
    out[f"{mc}.infeasible_frac"] = _ratio(counters[f"{mc}.infeasible"], counters[f"{mc}.samples"])
    out["virtual_lab.noise_draws"] = counters["virtual_lab.noise_draws"] / n_ops
    out["virtual_lab.count_resolved_peaks.wrong_frac"] = _ratio(
        obs["peaks_wrong"], obs["peaks_counted"])
    out["virtual_lab.fit_switch_time.fail_frac"] = _ratio(
        obs["switch_fit_failed"], obs["switch_fits"])
    out["bloch.excited_population.max_abs_err"] = max(
        (o.get("bloch_max_abs_err", 0.0) for o in record["op_obs"]), default=0.0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer] / n_ops
    out["layer.unattributed.self_s"] = (sum(record["op_times"]) - root_time) / n_ops
    out["trace.op_s_p50"] = median(record["op_times"])
    out["trace.spans_per_op"] = sum(calls.values()) / n_ops
    out["trace.import_addressing_share"] = import_addressing / sum(record["op_times"])
    out["ops.fail_frac"] = fail_frac(record)
    return out
