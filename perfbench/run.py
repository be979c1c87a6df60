"""aodkit benchmark: one command, three workloads, every metric by name and unit.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (see ``workloads.py`` and ``cli_reference.py``):

``cli-reference``  12 fresh ``aodkit`` CLI processes per pass on the reference config
``lab-noisy``      in-process noisy calibration campaigns, one per generated system
``design-sweep``   in-process noiseless design evaluations, one per generated design

The load is one closed-loop client in one process (plus, for
``cli-reference``, one CLI child at a time), with one BLAS thread.  The
benchmark sets the workload up three times in fresh interpreters (twice
set-up only, once before measuring) and reports the median as
``setup_s``.  Ops run back to back in whole passes (one round of the
workload's fixed size schedule) for ``--seconds``, to the nearest whole
pass, so every run sees the same mix of sizes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public functions of every aodkit module (``tracing.py``) and prints the
per-layer metrics instead.  Either way the last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``, and the full record
-- inputs, machine facts, failures, spans -- goes to ``perfbench/results/``.

An op fails when it raises, exits non-zero or fails an output check that
any correct implementation passes; ``failed`` counts those ops and
``correct`` is false when there is one.  The two known defects of the
noisy path (see the ``workloads`` docstring) are recorded but do not fail
the op: they are the program's measured accuracy at this version, shown
as ``ops.fail_frac`` (ops with any failed check, known defects included),
``virtual_lab.count_resolved_peaks.wrong_frac`` and
``virtual_lab.fit_switch_time.fail_frac``, in the printed summary and in
the record's ``failures``.
"""

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import metrics  # noqa: E402

SETUPS = 3          # fresh-interpreter set-ups per run; the median is setup_s
HARD_LIMIT_S = 170  # the whole run, set-ups included
WAITING_NOTE = ("waiting time: none -- one process, one thread of control and no queue, "
                "so no op ever waits for another")


class WorkerError(RuntimeError):
    pass


def _declared():
    """BENCHMARK.json, with each workload's one-line rationale under ``why``."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    declared["why"] = {w["name"]: w["why"] for w in declared["workloads"]}
    return declared


def run_worker(workload, seed, seconds, trace, deadline, setup_only=False, extra=()):
    """Start a worker; return (set-up seconds, record or None)."""
    cmd = [sys.executable, os.path.join(common.BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else []) + list(extra)
    lines = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=common.ROOT, env=common.child_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)

    def reader():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkerError(f"{workload} worker overran the {HARD_LIMIT_S} s limit") from None
    finally:
        thread.join(timeout=10)
        proc.stdout.close()
    ready = [t for t, line in lines if line == "READY"]
    if proc.returncode != 0 or not ready:
        raise WorkerError(f"{workload} worker failed with exit code {proc.returncode}")
    setup_s = ready[0] - start
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(lines[-1][1])


def measure(workload, seed, seconds, trace, extra=()):
    """Set up SETUPS times, measure once; returns the result record."""
    deadline = time.monotonic() + HARD_LIMIT_S
    setups = [run_worker(workload, seed, seconds, trace, deadline, setup_only=True,
                         extra=extra)[0] for _ in range(SETUPS - 1)]
    setup_s, record = run_worker(workload, seed, seconds, trace, deadline, extra=extra)
    setups.append(setup_s)

    e2e, notes = metrics.end_to_end(record, setups)
    unexpected = [f for f in record["failures"] if f["known"] is None]
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not unexpected,
        "attempted": len(record["op_times"]),
        "failed": len({f["op"] for f in unexpected}),
        "fail_frac": metrics.fail_frac(record),
        "end_to_end": e2e, "notes": notes,
        "per_layer": metrics.per_layer(record) if trace else None,
        "inputs": record["inputs"],
        "op_times": record["op_times"], "op_labels": record["op_labels"],
        "failures": record["failures"],
        "rationale": _declared()["why"][workload],
        "waiting": WAITING_NOTE,
        "machine": common.machine_facts(),
    }
    return result, record


def _tracing_overhead(result):
    """Traced op_s_p50 minus that of the latest untraced run in this checkout."""
    pattern = os.path.join(common.RESULTS_DIR, f"{result['workload']}-seed*-trace0.json")
    runs = sorted(glob.glob(pattern), key=os.path.getmtime)
    if not runs:
        return None
    with open(runs[-1], encoding="utf-8") as fh:
        untraced = json.load(fh)["end_to_end"]["op_s_p50"]
    return {"untraced_op_s_p50": untraced,
            "traced_op_s_p50": result["per_layer"]["trace.op_s_p50"],
            "overhead_s": result["per_layer"]["trace.op_s_p50"] - untraced,
            "untraced_run": os.path.basename(runs[-1])}


def _print_summary(result):
    e2e = result["end_to_end"]
    units = {name: unit for name, unit, _better in metrics.END_TO_END}
    print(f"workload {result['workload']}: {result['rationale']}")
    print(f"  seed {result['seed']}, {result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}; fail_frac {result['fail_frac']:.3g} with the "
          f"known defects")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    notes = result["notes"]
    print(f"  op_s_tail is p{notes['op_s_tail_percentile']:.1f} of {notes['op_count']} ops; "
          f"a pass is {notes['pass_ops']} consecutive ops")
    print(f"  inputs: {json.dumps(result['inputs'], sort_keys=True)}")
    if result["per_layer"]:
        units = dict(metrics.PER_LAYER)
        for name, value in result["per_layer"].items():
            print(f"  {name} = {value:.6g} {units[name]}")
        if result.get("tracing_overhead"):
            print(f"  tracing overhead: {json.dumps(result['tracing_overhead'])}")
    for kind in sorted({f["known"] or "unexpected" for f in result["failures"]}):
        hits = [f for f in result["failures"] if (f["known"] or "unexpected") == kind]
        print(f"  failures [{kind}]: {len(hits)}, e.g. {hits[0]['label']}: "
              f"{hits[0]['step']}: {hits[0]['message'][:120]}")
    print(f"  {result['waiting']}")
    print(f"  machine: {json.dumps(result['machine'], sort_keys=True)}")


def final_line(result):
    if result["per_layer"]:
        values, units = result["per_layer"], dict(metrics.PER_LAYER)
    else:
        values = result["end_to_end"]
        units = {name: unit for name, unit, _better in metrics.END_TO_END}
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })


def self_test():
    """Tiny runs of every workload: every metric is emitted, a wrong result trips a check."""
    declared = _declared()
    problems = []
    if [m["name"] for m in declared["end_to_end"]] != [n for n, _u, _b in metrics.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if [m["name"] for m in declared["per_layer"]] != [n for n, _u in metrics.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in declared["workloads"]] != list(common.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from common.WORKLOADS")
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            result, _ = measure(workload, 1, 0, trace, extra=("--tiny",))
            line = json.loads(final_line(result))
            names = metrics.PER_LAYER if trace else metrics.END_TO_END
            if set(line["metrics"]) != {n[0] for n in names}:
                problems.append(f"{workload} trace {trace}: metric names differ")
            if not line["correct"]:
                problems.append(f"{workload} trace {trace}: unexpected failures "
                                f"{result['failures'][:2]}")
            print(f"self-test {workload} trace {trace}: {line['attempted']} ops, "
                  f"{line['failed']} failed, correct={line['correct']}")
        clean, _ = measure(workload, 1, 0, 0, extra=("--tiny",))
        faulty, _ = measure(workload, 1, 0, 0, extra=("--tiny", "--fault"))
        if (faulty["correct"] or faulty["failed"] <= clean["failed"]
                or faulty["fail_frac"] < clean["fail_frac"]):
            problems.append(f"{workload}: an injected wrong result did not trip a check")
        print(f"self-test {workload} fault: failed ops {clean['failed']} -> "
              f"{faulty['failed']}, fail_frac {clean['fail_frac']:.3g} -> "
              f"{faulty['fail_frac']:.3g}, correct={faulty['correct']}")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        common.check_checkout()
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, WorkerError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["tracing_overhead"] = _tracing_overhead(result)
        common.write_json(os.path.join(common.RESULTS_DIR, f"{stem}.spans.json"),
                          {"spans": record["spans"], "counters": record["counters"]})
    common.write_json(os.path.join(common.RESULTS_DIR, f"{stem}.json"), result)
    _print_summary(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
