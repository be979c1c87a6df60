"""One fresh interpreter that sets a workload up and, unless ``--setup-only``,
measures it.

Prints ``READY`` once set-up is complete (import, input generation and
warm-up), then, after the timed ops, one JSON record on the last line.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracing  # noqa: E402

INPUT_COUNT = 256  # far more than one run consumes


def new_record(period):
    return {"op_times": [], "op_labels": [], "op_obs": [], "failures": [],
            "spans": [], "counters": [], "import_s": [], "modules_loaded": [],
            "scipy_heavy_loaded": [], "handler_runs": {}, "peak_rss_mb": 0.0,
            "period": period}


class InProcess:
    """Set-up and op loop of ``lab-noisy`` and ``design-sweep``."""

    def __init__(self, name, seed, trace, fault=False, tiny=False):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.fault = fault
        self.tracer = tracing.Tracer() if trace else None
        self.import_facts = None

    def setup(self):
        before = len(sys.modules)
        start = time.perf_counter()
        if self.tracer:
            self.tracer.begin("import.aodkit_cli")
        import aodkit.cli  # noqa: F401  (what a library user of the CLI config layer loads)
        import workloads
        if self.tracer:
            self.tracer.end()
        self.import_facts = (time.perf_counter() - start, len(sys.modules) - before)

        self.wl = workloads
        spec = workloads.WORKLOADS[self.name]
        self.period = spec["period"]
        self.op = spec["op"]
        self.ref = workloads.reference_system(common.CONFIG)
        self.inputs = spec["tiny" if self.tiny else "inputs"](self.seed, INPUT_COUNT)
        # Warm-up: one small op, untimed, loads lazy imports and fills caches.
        self._call(spec["tiny"](self.seed + 1, 1)[0], small=True)
        if self.fault:
            self._inject_fault()

    def _call(self, inp, small=False):
        if not (small or self.tiny):
            return self.op(inp, self.ref)
        if self.name == "design-sweep":
            return self.op(inp, self.ref, mc_samples=70_000)
        return self.op(inp, self.ref, points=401)

    def _inject_fault(self):
        """Self-test: make one library result wrong so its check must trip."""
        from aodkit import addressing_analyzer, virtual_lab

        if self.name == "lab-noisy":
            fit = virtual_lab.fit_gaussian_profile

            def wrong(*args, **kwargs):
                r = fit(*args, **kwargs)
                return type(r)(r.waist * 1.5, r.center_frequency, r.peak_rabi,
                               r.residual_rms, r.mode)
            virtual_lab.fit_gaussian_profile = wrong
        else:
            matrix = addressing_analyzer.crosstalk_matrix

            def wrong(*args, **kwargs):
                m = matrix(*args, **kwargs)
                return type(m)(m.values * 2.0, m.ion_positions, m.beam_centers,
                               m.waist, m.mode)
            addressing_analyzer.crosstalk_matrix = wrong

    def run(self, seconds, record):
        if self.tracer:
            self.tracer.install()
        clock = common.PassClock(self.period, seconds)
        k = 0
        while clock.more(k):
            inp = self.inputs[k]
            if self.tracer:
                self.tracer.op = k
            t0 = time.perf_counter()
            obs, checks = self._call(inp)
            record["op_times"].append(time.perf_counter() - t0)
            record["op_labels"].append(_label(inp))
            record["op_obs"].append(obs)
            record["failures"] += [{"op": k, "label": _label(inp), "step": step,
                                    "message": message, "known": known}
                                   for step, message, known in checks.failures]
            k += 1
        self.consumed = k
        if self.tracer:
            self.tracer.op = None
            self.tracer.uninstall()
            exported = self.tracer.export()
            record["spans"].append(exported["spans"])
            record["counters"] = exported["counters"]
        record["import_s"].append(self.import_facts[0])
        record["modules_loaded"].append(self.import_facts[1])
        record["scipy_heavy_loaded"].append(
            sum(m in sys.modules for m in tracing.HEAVY_SCIPY))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def describe_inputs(self):
        used = self.inputs[:self.consumed]
        return {"seed": self.seed, "generated": self.wl.summarise_inputs(self.name, used)}


def _label(inp):
    ions = getattr(inp, "ions", None) or len(inp.positions)
    if hasattr(inp, "shots"):
        return f"{ions} ions, {inp.shots} shots, {inp.ramp}"
    return f"{ions} ions, {'uniform' if inp.uniform else 'harmonic'}"


def input_properties(record):
    """Measured shares of the inputs the run consumed, from op observations."""
    total = {}
    for obs in record["op_obs"]:
        for key in ("offsets", "distinct_offsets", "simulated_points", "noisy_points"):
            total[key] = total.get(key, 0) + obs.get(key, 0)
    return {"distinct_offset_frac": total["distinct_offsets"] / total["offsets"],
            "noisy_point_frac": (total["noisy_points"] / total["simulated_points"]
                                 if total["simulated_points"] else 0.0)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--fault", action="store_true")
    args = parser.parse_args()

    common.pin_threads()
    if args.workload == "cli-reference":
        from cli_reference import CliReference
        runner = CliReference(args.seed, args.trace, fault=args.fault, tiny=args.tiny)
    else:
        runner = InProcess(args.workload, args.seed, args.trace, fault=args.fault,
                           tiny=args.tiny)
    runner.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    record = new_record(runner.period)
    runner.run(args.seconds, record)
    inputs = runner.describe_inputs()
    if args.workload != "cli-reference":
        inputs["properties"] = input_properties(record)
    record["inputs"] = inputs
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
