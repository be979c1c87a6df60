"""Command-line interface.

``aodkit <command> --config system.yaml [--out DIR] [--seed N]``

Every run validates the configuration, executes one analysis or virtual
experiment, writes CSV/SVG artifacts plus a JSON run report into the
output directory, and prints a summary.  Exit codes: 0 success, 1 for a
domain error (infeasible request), 2 for a configuration error.

Output directory precedence: ``--out`` flag, then the ``AODKIT_OUT``
environment variable, then ``output.directory`` in the config, then
``./aodkit-out``.  Seed precedence: ``--seed``, then ``seed`` in the
config; commands that need randomness without either generate one and
echo it.

Only the standard library loads before the arguments parse: ``--help``
and usage errors never import numpy, PyYAML or the physics modules, and
a command loads only the modules it runs.
"""

import argparse
import importlib
import os
import sys
import time

OUTPUT_ENV_VAR = "AODKIT_OUT"
DEFAULT_OUTPUT = "aodkit-out"

# Names this module re-exports from its submodules, loaded on first access.
_REEXPORTS = {"parse_config": ".config", "write_run_report": ".report"}


def __getattr__(name):
    if name in _REEXPORTS:
        return getattr(importlib.import_module(_REEXPORTS[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _add_common(parser):
    parser.add_argument("--config", required=True, help="YAML system configuration")
    parser.add_argument("--out", default=None, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic commands (overrides the config)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aodkit",
        description="Design and virtual characterization of an AOD "
                    "individual-addressing optical system.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    specs = [
        ("design-prism", "solve the prism pair for a target expansion"),
        ("tolerance", "Monte-Carlo mounting-tolerance study of the prism pair"),
        ("trace", "propagate the input beam through the optical train"),
        ("steer", "frequency-to-position steering map across the band"),
        ("efficiency", "diffraction efficiency across the band"),
        ("monitor", "pick-off monitor voltage across the band"),
        ("crosstalk", "ideal and clipped addressing crosstalk"),
        ("misalign", "rate imbalance from steering-axis misalignment"),
    ]
    for name, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name == "design-prism":
            sp.add_argument("--target", type=float, default=None,
                            help="target expansion factor (overrides the config)")

    lab = sub.add_parser("lab", help="virtual Rabi-experiment lab")
    labsub = lab.add_subparsers(dest="lab_command", required=True, metavar="experiment")
    for name, help_text in [
        ("profile-scan", "scan the beam across one ion and fit the waist"),
        ("chain-scan", "scan the beam across the whole chain"),
        ("crosstalk", "drive one ion, fit every ion's Rabi rate"),
        ("switching", "sweep extra drive time after a frequency hop"),
    ]:
        sp = labsub.add_parser(name, help=help_text)
        _add_common(sp)
    return parser


def _resolve_outdir(args, cfg):
    """The output directory; a ConfigError if a file stands at it or above it."""
    outdir = args.out or os.environ.get(OUTPUT_ENV_VAR) or cfg.output_directory \
        or DEFAULT_OUTPUT
    head = os.path.abspath(outdir)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        from ..errors import ConfigError
        raise ConfigError(f"output directory {outdir}: {head} is not a directory")
    return outdir


def _print_results(results, indent="  "):
    for key in results:
        value = results[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_results(value, indent + "  ")
        elif isinstance(value, float):
            print(f"{indent}{key}: {value + 0.0:.6g}")
        else:
            print(f"{indent}{key}: {value}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    # Submodule attributes are read at call time, so a wrapper installed on
    # them (a tracer, a test double) sees every call.
    from ..errors import ConfigError, DomainError, ValidationError, as_count
    from . import commands, config, report

    key = args.command if args.command != "lab" else f"lab {args.lab_command}"
    slug, handler = commands.HANDLERS[key]

    try:
        cfg = config.parse_config(args.config)
        outdir = _resolve_outdir(args, cfg)
        seed = args.seed if args.seed is not None else cfg.seed
        if seed is not None:
            try:
                seed = as_count("seed", seed, 0)
            except ValidationError as exc:
                raise ConfigError(str(exc)) from None
        ctx = commands.RunContext(cfg=cfg, seed=seed, target=getattr(args, "target", None))

        start = time.perf_counter()
        results, artifacts = handler(ctx)
        os.makedirs(outdir, exist_ok=True)  # only once the handler has succeeded
        paths = report.write_artifacts(outdir, artifacts)
        wall = time.perf_counter() - start

        report_path = report.write_run_report(outdir, slug, key, cfg.digest, ctx.seed,
                                              results, paths)

        print(f"command: {key}")
        print(f"config digest: {cfg.digest[:16]}")
        if ctx.generated_seed:
            print(f"seed: {ctx.seed} (generated)")
        elif ctx.seed is not None:
            print(f"seed: {ctx.seed}")
        _print_results(results)
        for path in paths:
            print(f"wrote: {path}")
        print(f"wrote: {report_path}")
        print(f"wall time: {wall:.3f} s")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
