"""The ``cli-reference`` workload: reference-config CLI passes, one process per op.

A pass runs all 12 subcommands once, in the order below, each as a fresh
``python -m aodkit.cli`` process on ``configs/paper_system.yaml`` with the
workload seed.  Whole passes repeat for the run time, to the nearest pass
(``common.PassClock``).  Each process writes into its own directory, which
is checked and then removed.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import yaml

from common import BENCH_DIR, CONFIG, ROOT, SWITCH_WINDOW_NS, PassClock, child_env

COMMANDS = (
    (("design-prism",), "design_prism"),
    (("tolerance",), "tolerance"),
    (("trace",), "trace"),
    (("steer",), "steer"),
    (("efficiency",), "efficiency"),
    (("monitor",), "monitor"),
    (("crosstalk",), "crosstalk"),
    (("misalign",), "misalign"),
    (("lab", "profile-scan"), "lab_profile_scan"),
    (("lab", "chain-scan"), "lab_chain_scan"),
    (("lab", "crosstalk"), "lab_crosstalk"),
    (("lab", "switching"), "lab_switching"),
)

TRACE_CLI = os.path.join(BENCH_DIR, "trace_cli.py")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _in_switch_window(t_ns):
    return SWITCH_WINDOW_NS[0] <= t_ns <= SWITCH_WINDOW_NS[1]


def gate_failures(slug, results):
    """Acceptance-gate bounds that the reference results must meet."""
    fails = []
    if slug == "steer":
        span = results["ion_span_um"]
        if not 142.5 <= span <= 157.5:
            fails.append(f"ion span {span:.4g} um outside 150 um +/- 5 %")
    elif slug == "crosstalk":
        values = list(results["clipping_sweep"].values())
        if not (min(values) <= 2.6e-4 and max(values) >= 8.6e-4):
            fails.append("clipping sweep does not bracket 2.6e-4 .. 8.6e-4")
    elif slug == "lab_chain_scan":
        if results["resolved_peaks"] != results["ion_count"]:
            fails.append(f"{results['resolved_peaks']} peaks for {results['ion_count']} ions")
    elif slug == "tolerance":
        worst = results["worst_case_relative_error_pct"]
        if not 10.0 <= worst <= 20.0:
            fails.append(f"worst-case tolerance error {worst:.4g} % outside 10-20 %")
    elif slug == "lab_switching":
        t_ns = results["fitted_switch_time_ns"]
        if not _in_switch_window(t_ns):
            fails.append(f"switch time {t_ns:.4g} ns outside {SWITCH_WINDOW_NS} ns")
    return fails


def check_output(outdir, slug, returncode, manifests, fault=False):
    """Failures of one command's output, and its observations."""
    if returncode != 0:
        with open(os.path.join(outdir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            return [f"exit code {returncode}: {fh.read()[-300:]}"], {}
    report_path = os.path.join(outdir, f"{slug}_report.json")
    if not os.path.isfile(report_path):
        return [f"missing {slug}_report.json"], {}
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    if fault:  # self-test: corrupt one artifact after the command wrote it
        with open(os.path.join(outdir, report["artifacts"][0]["name"]), "ab") as fh:
            fh.write(b"\n")
    fails = []
    digests = []
    for entry in report["artifacts"]:
        path = os.path.join(outdir, entry["name"])
        if not os.path.isfile(path):
            fails.append(f"manifest lists missing {entry['name']}")
            continue
        if os.path.getsize(path) != entry["bytes"] or _sha256(path) != entry["sha256"]:
            fails.append(f"{entry['name']} does not match its manifest entry")
        digests.append((entry["name"], entry["sha256"]))
    earlier = manifests.setdefault(slug, digests)
    if earlier != digests:
        fails.append("artifact digests differ from an earlier pass with the same seed")
    results = report["results"]
    fails += gate_failures(slug, results)
    obs = {"report_bytes": sum(os.path.getsize(os.path.join(outdir, n))
                               for n in os.listdir(outdir) if not n.endswith(".txt")
                               and not n.endswith(".spans.json"))}
    if slug == "lab_chain_scan":
        obs.update(peaks_counted=1, peaks_wrong=int(results["resolved_peaks"]
                                                   != results["ion_count"]))
    if slug == "lab_switching":
        t_ns = results["fitted_switch_time_ns"]
        obs.update(switch_fits=1, switch_fit_failed=int(not _in_switch_window(t_ns)))
    return fails, obs


def input_properties():
    """Shares of the reference config's inputs with each property."""
    with open(CONFIG, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    exp, ions = cfg["experiments"], cfg["chain"]["count"]
    parts = {
        "profile_scan": exp["profile_scan"]["points"],
        "chain_scan": ions * exp["chain_scan"]["points"],
        "crosstalk": (ions + 1) * exp["crosstalk"]["points"],
        "switching": 2 * exp["switching"]["points"],
    }
    noisy = sum(n for name, n in parts.items() if exp[name].get("shots"))
    return {"distinct_offset_frac": (2 * ions - 1) / ions**2,
            "noisy_point_frac": noisy / sum(parts.values())}


class CliReference:
    """Set-up and op loop of the CLI workload, run inside the worker."""

    def __init__(self, seed, trace, fault=False, tiny=False):
        self.seed = seed
        self.trace = trace
        self.fault = fault
        self.commands = COMMANDS[:3] if tiny else COMMANDS
        self.period = len(self.commands)
        self.env = child_env()
        self.workdir = os.path.join(BENCH_DIR, f".work-{os.getpid()}")

    def setup(self):
        """Warm the interpreter's file cache and byte-code with one untimed process."""
        done = subprocess.run([sys.executable, "-m", "aodkit.cli", "--help"], cwd=ROOT,
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"aodkit.cli does not start: {done.stderr.decode()[-300:]}")

    def run(self, seconds, record):
        os.makedirs(self.workdir)
        manifests = {}
        clock = PassClock(self.period, seconds)
        k = 0
        while clock.more(k):
            argv, slug = self.commands[k % self.period]
            outdir = os.path.join(self.workdir, f"op{k}")
            os.makedirs(outdir)
            spans_path = os.path.join(outdir, "op.spans.json")
            args = list(argv) + ["--config", CONFIG, "--out", outdir, "--seed", str(self.seed)]
            cmd = ([sys.executable, TRACE_CLI, spans_path] if self.trace
                   else [sys.executable, "-m", "aodkit.cli"]) + args
            with open(os.path.join(outdir, "stdout.txt"), "wb") as out, \
                    open(os.path.join(outdir, "stderr.txt"), "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
                _pid, status, usage = os.wait4(proc.pid, 0)
                elapsed = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            record["peak_rss_mb"] = max(record["peak_rss_mb"], usage.ru_maxrss / 1024.0)
            fails, obs = check_output(outdir, slug, proc.returncode, manifests,
                                      fault=self.fault and k == 0)
            if self.trace and os.path.isfile(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    traced = json.load(fh)
                for span in traced["spans"]:
                    span[4] = k
                record["spans"].append(traced["spans"])
                record["counters"] += [(n, v, k) for n, v, _op in traced["counters"]]
                record["import_s"].append(traced["import_s"])
                record["modules_loaded"].append(traced["modules_loaded"])
                record["scipy_heavy_loaded"].append(traced["scipy_heavy_loaded"])
            record["handler_runs"][slug] = record["handler_runs"].get(slug, 0) + 1
            record["op_times"].append(elapsed)
            record["op_labels"].append(slug)
            record["op_obs"].append(obs)
            record["failures"] += [{"op": k, "label": slug, "step": slug, "message": m,
                                    "known": None} for m in fails]
            shutil.rmtree(outdir)
            k += 1
        shutil.rmtree(self.workdir)

    def describe_inputs(self):
        return {"commands": [" ".join(argv) for argv, _slug in self.commands],
                "config": os.path.relpath(CONFIG, ROOT), "seed": self.seed,
                "properties": input_properties()}
