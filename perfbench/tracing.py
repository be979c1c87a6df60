"""In-memory span tracing around the public functions of each aodkit module.

The benchmark never edits the package: it replaces module attributes with
wrappers that record a span per call, then restores them.  A span is
``(name, start, end, parent, op)``; a layer's self time is its spans'
duration minus the part covered by their child spans.
"""

import time
from collections import defaultdict

HEAVY_SCIPY = ("scipy.optimize", "scipy.special", "scipy.signal", "scipy.integrate")

LAYERS = ("import", "cli", "beam_optics", "prism_designer", "aod_model",
          "addressing_analyzer", "virtual_lab", "bloch")

# (module path, attribute, span name).  Names start with their layer.
LIBRARY_TARGETS = (
    ("aodkit.beam_optics", "diffract", "beam_optics.diffract"),
    ("aodkit.beam_optics", "focused_field_at", "beam_optics.focused_field_at"),
    ("aodkit.beam_optics", "trace_train", "beam_optics.trace_train"),
    ("aodkit.prism_designer", "tolerance_monte_carlo", "prism_designer.tolerance_monte_carlo"),
    ("aodkit.prism_designer", "solve_alpha_prime", "prism_designer.solve_alpha_prime"),
    ("aodkit.prism_designer", "sensitivity", "prism_designer.sensitivity"),
    ("aodkit.aod_model", "steering_map", "aod_model.steering_map"),
    ("aodkit.aod_model", "diffraction_efficiency", "aod_model.diffraction_efficiency"),
    ("aodkit.addressing_analyzer", "clipped_crosstalk", "addressing_analyzer.clipped_crosstalk"),
    ("aodkit.addressing_analyzer", "crosstalk_matrix", "addressing_analyzer.crosstalk_matrix"),
    ("aodkit.virtual_lab", "simulate_profile_scan", "virtual_lab.simulate_profile_scan"),
    ("aodkit.virtual_lab", "fit_gaussian_profile", "virtual_lab.fit_gaussian_profile"),
    ("aodkit.virtual_lab", "simulate_chain_scan", "virtual_lab.simulate_chain_scan"),
    ("aodkit.virtual_lab", "count_resolved_peaks", "virtual_lab.count_resolved_peaks"),
    ("aodkit.virtual_lab", "simulate_crosstalk_experiment",
     "virtual_lab.simulate_crosstalk_experiment"),
    ("aodkit.virtual_lab", "simulate_switching_experiment",
     "virtual_lab.simulate_switching_experiment"),
    ("aodkit.virtual_lab", "fit_switch_time", "virtual_lab.fit_switch_time"),
    ("aodkit.bloch", "excited_population", "bloch.excited_population"),
)

# The CLI binds some functions by name, so each binding is wrapped.
CLI_TARGETS = (
    ("aodkit.cli", "parse_config", "cli.config.parse_config"),
    ("aodkit.cli.config", "parse_config", "cli.config.parse_config"),
    ("aodkit.cli", "write_run_report", "cli.report.write_run_report"),
    ("aodkit.cli.report", "write_run_report", "cli.report.write_run_report"),
    ("aodkit.cli.report", "write_csv", "cli.report.write_csv"),
    ("aodkit.cli.svgplot", "line_plot", "cli.report.line_plot"),
)


def _distinct_offsets(args, kwargs, result):
    # Offsets that agree to 1 fm count once: uniform chains built by
    # IonChain.uniform differ in the last bits only.
    positions = args[0].positions
    offsets = {round((b - a) * 1e15) for a in positions for b in positions}
    return {"addressing_analyzer.clipped_crosstalk.distinct_offsets": len(offsets),
            "addressing_analyzer.clipped_crosstalk.offsets": len(positions) ** 2}


def _probe_samples(args, kwargs, result):
    positions = args[2] if len(args) > 2 else kwargs["positions"]
    n = len(args[0].samples) * int(getattr(positions, "size", 1))
    return {"beam_optics.focused_field_at.probe_samples": n,
            # complex128 phase matrix, probes x grid samples
            "beam_optics.focused_field_at.bytes": 16 * n}


def _monte_carlo(args, kwargs, result):
    return {"prism_designer.tolerance_monte_carlo.samples": result.samples,
            "prism_designer.tolerance_monte_carlo.infeasible": result.infeasible_samples}


def _noise_draws(points_of):
    """Counter of binomial draws: every simulated point draws once with shots."""
    def annotate(args, kwargs, result):
        if kwargs.get("shots") is None:
            return {}
        return {"virtual_lab.noise_draws": points_of(result)}
    return annotate


ANNOTATE = {
    "addressing_analyzer.clipped_crosstalk": _distinct_offsets,
    "beam_optics.focused_field_at": _probe_samples,
    "prism_designer.tolerance_monte_carlo": _monte_carlo,
    "virtual_lab.simulate_profile_scan": _noise_draws(lambda r: r.values.size),
    "virtual_lab.simulate_chain_scan": _noise_draws(lambda r: r.per_ion.size),
    "virtual_lab.simulate_crosstalk_experiment": _noise_draws(
        lambda r: r.target_trace.values.size
        + sum(t.values.size for t in r.neighbor_traces)),
    "virtual_lab.simulate_switching_experiment": _noise_draws(
        lambda r: r.ion0.values.size + r.ion1.values.size),
}


class Tracer:
    """Collects spans and counters in memory; ``op`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.counters = []
        self.stack = []
        self.op = None
        self._restore = []

    def begin(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name, value):
        self.counters.append((name, value, self.op))

    def wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if annotate is not None:
                for key, value in annotate(args, kwargs, result).items():
                    self.count(key, value)
            return result

        setattr(owner, attr, traced)
        self._restore.append(lambda: setattr(owner, attr, original))

    def install(self, cli=False):
        """Wrap every library target, and the CLI ones when ``cli``."""
        import importlib

        targets = LIBRARY_TARGETS + (CLI_TARGETS if cli else ())
        for module, attr, name in targets:
            self.wrap(importlib.import_module(module), attr, name)
        if cli:
            commands = importlib.import_module("aodkit.cli.commands")
            for key, (slug, handler) in list(commands.HANDLERS.items()):
                self.wrap_handler(commands.HANDLERS, key, slug, handler)

    def wrap_handler(self, table, key, slug, handler):
        name = f"cli.handler.{slug}"

        def traced(ctx):
            self.begin(name)
            try:
                return handler(ctx)
            finally:
                self.end()

        table[key] = (slug, traced)
        self._restore.append(lambda: table.__setitem__(key, (slug, handler)))

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def export(self):
        return {"spans": self.spans, "counters": self.counters}


def self_times(spans):
    """Per-span self time: duration minus the duration of direct children."""
    child = defaultdict(float)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[0], (s[2] - s[1]) - child[i], s[4]) for i, s in enumerate(spans)]


def layer_of(name):
    return name.split(".", 1)[0]
