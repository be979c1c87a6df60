import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
import yaml

from aodkit import addressing_analyzer, beam_optics
from aodkit.cli import OUTPUT_ENV_VAR, build_parser, main, svgplot
from aodkit.cli.commands import HANDLERS, RunContext
from aodkit.cli.config import parse_config
from aodkit.cli.report import Plot, Table
from aodkit.errors import ConfigError
from aodkit.prism_designer import ToleranceSpec

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "configs" / "paper_system.yaml")

MINIMAL_PRISM_CONFIG = """\
seed: 7
system:
  wavelength_um: 0.355
prism:
  alpha_deg: 39.0
  alpha_prime_deg: 14.75
  beta_deg: 30.0
  beta_prime_deg: 30.0
  refractive_index: 1.476
  target_expansion: 4.7
"""


def _read_report(outdir, slug):
    with open(Path(outdir) / f"{slug}_report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_trace_writes_verifiable_report(tmp_path):
    assert main(["trace", "--config", CONFIG, "--out", str(tmp_path)]) == 0
    rep = _read_report(tmp_path, "trace")
    assert rep["command"] == "trace"
    assert "prism_convention" not in rep
    assert rep["seed"] == 20250814
    assert rep["config_digest"] == hashlib.sha256(
        Path(CONFIG).read_bytes()).hexdigest()
    for art in rep["artifacts"]:
        blob = (tmp_path / art["name"]).read_bytes()
        assert len(blob) == art["bytes"]
        assert hashlib.sha256(blob).hexdigest() == art["sha256"]
    res = rep["results"]
    assert res["final_waist_x_um"] == pytest.approx(1.8783246275805465, rel=1e-9)
    assert res["final_waist_z_um"] == pytest.approx(8.828125749628569, rel=1e-9)
    # negative zero must not leak into artifacts
    text = (tmp_path / "trace_report.json").read_text(encoding="utf-8")
    assert "-0.0" not in text
    # the prism angle convention is reported where prism results are
    assert main(["design-prism", "--config", CONFIG, "--out", str(tmp_path)]) == 0
    assert _read_report(tmp_path, "design_prism")["results"]["convention"] == \
        "grazing-chained"


def test_steer_reports_reference_geometry(tmp_path):
    assert main(["steer", "--config", CONFIG, "--out", str(tmp_path)]) == 0
    res = _read_report(tmp_path, "steer")["results"]
    assert res["full_band_deflection_mrad"] == pytest.approx(6.228070175438596, rel=1e-9)
    assert res["fourier_span_um"] == pytest.approx(622.8070175438597, rel=1e-9)
    assert res["ion_span_um"] == pytest.approx(155.70175438596492, rel=1e-9)
    assert res["steering_efficiency_um_per_mhz"] == pytest.approx(
        1.557017543859649, rel=1e-9)


def test_steer_without_focusing_lens_is_a_config_error(tmp_path, capsys):
    cfg = _train_config(tmp_path, {"type": "aod"},
                        {"type": "thin_lens", "focal_length_um": 1.0e5, "axis": "z"})
    out = tmp_path / "out"
    assert main(["steer", "--config", cfg, "--out", str(out)]) == 2
    assert "focusing lens on the x axis" in capsys.readouterr().err
    assert not out.exists()


def test_profile_scan_sweeps_either_way(tmp_path):
    data = _reference_data()
    scan = data["experiments"]["profile_scan"]
    scan["frequency_start_mhz"], scan["frequency_stop_mhz"] = \
        scan["frequency_stop_mhz"], scan["frequency_start_mhz"]
    out = tmp_path / "out"
    assert main(["lab", "profile-scan", "--config", _write_config(tmp_path, data),
                 "--out", str(out)]) == 0
    res = _read_report(out, "lab_profile_scan")["results"]
    assert res["fitted_waist_um"] == pytest.approx(1.57, rel=0.05)


def test_zero_span_profile_scan_is_a_fit_failure(tmp_path, capsys):
    data = _reference_data()
    data["experiments"]["profile_scan"].update(frequency_start_mhz=150.0,
                                               frequency_stop_mhz=150.0)
    out = tmp_path / "out"
    assert main(["lab", "profile-scan", "--config", _write_config(tmp_path, data),
                 "--out", str(out)]) == 1
    assert "zero frequency span" in capsys.readouterr().err


def test_crosstalk_plots_a_one_ion_chain(tmp_path):
    # nothing positive for the log axis: the plot falls back to a fixed range
    data = _reference_data()
    data["chain"] = {"count": 1, "spacing_um": 3.8}
    data["experiments"]["crosstalk"]["target_ion"] = 0
    out = tmp_path / "out"
    assert main(["crosstalk", "--config", _write_config(tmp_path, data),
                 "--out", str(out)]) == 0
    svgs = sorted(out.glob("*.svg"))
    assert svgs
    for svg in svgs:
        assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


@pytest.mark.parametrize("x, ys, ylog", [([], [], False), ([], [], True),
                                         ([1.0, 2.0], [0.0, -1.0], True)],
                         ids=["empty", "empty-log", "non-positive-log"])
def test_line_plot_with_nothing_to_scale_writes_valid_svg(tmp_path, x, ys, ylog):
    path = tmp_path / "plot.svg"
    svgplot.line_plot(str(path), x, {"a": ys}, ylog=ylog)
    assert ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_partial_tolerances_take_the_spec_defaults(tmp_path):
    data = _reference_data()
    data["prism"]["tolerances_deg"] = {"beta": 0.5}
    tolerances = parse_config(_write_config(tmp_path, data)).prism.tolerances
    assert tolerances == dataclasses.replace(ToleranceSpec(), beta=0.5)


def test_design_prism_with_target_override(tmp_path):
    assert main(["design-prism", "--config", CONFIG, "--target", "4.7",
                 "--out", str(tmp_path)]) == 0
    res = _read_report(tmp_path, "design_prism")["results"]
    assert res["solved_alpha_prime_deg"] == pytest.approx(14.730809731408954, abs=1e-6)
    assert res["achieved_expansion"] == pytest.approx(4.7, rel=1e-6)


def test_readme_command_block_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("aodkit ")]
    parser = build_parser()
    listed = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        listed.add(args.command if args.command != "lab" else f"lab {args.lab_command}")
    assert len(lines) == len(listed)
    assert listed == set(HANDLERS)


def test_outdir_flag_beats_environment(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv(OUTPUT_ENV_VAR, str(env_dir))
    assert main(["steer", "--config", CONFIG, "--out", str(flag_dir)]) == 0
    assert flag_dir.is_dir() and not env_dir.exists()

    assert main(["steer", "--config", CONFIG]) == 0
    assert (env_dir / "steer_report.json").is_file()


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["trace", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_key_is_reported_with_path(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(MINIMAL_PRISM_CONFIG + "prsim_typo: 3\n", encoding="utf-8")
    assert main(["design-prism", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and "prsim_typo" in err


def test_malformed_yaml_points_at_line(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("system:\n  wavelength_um: [unclosed\n", encoding="utf-8")
    assert main(["trace", "--config", str(cfg)]) == 2
    assert "line" in capsys.readouterr().err


def test_negative_seed_rejected(tmp_path, capsys):
    assert main(["trace", "--config", CONFIG, "--seed", "-4",
                 "--out", str(tmp_path)]) == 2


def test_zero_target_flag_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["design-prism", "--config", CONFIG, "--target", "0",
                 "--out", str(out)]) == 1
    assert "target must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_unachievable_target_is_a_domain_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_PRISM_CONFIG, encoding="utf-8")
    assert main(["design-prism", "--config", str(cfg), "--target", "40",
                 "--out", str(tmp_path)]) == 1
    assert "not achievable" in capsys.readouterr().err


def test_missing_experiment_section_lists_requirement(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL_PRISM_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["lab", "switching", "--config", str(cfg), "--out", str(out)]) == 2
    assert "experiments" in capsys.readouterr().err
    assert not out.exists()  # a failed command leaves no empty output directory


def _reference_data():
    with open(CONFIG, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _write_config(tmp_path, data):
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def _edited_config(tmp_path, section, **values):
    data = _reference_data()
    data[section].update(values)
    return _write_config(tmp_path, data)


def _train_config(tmp_path, *elements, drop=()):
    """Reference config with ``elements`` as its train and ``drop`` sections removed."""
    data = _reference_data()
    data["train"] = list(elements)
    for section in drop:
        del data[section]
    return _write_config(tmp_path, data)


@pytest.mark.parametrize("element, expected", [
    ({"type": "free_space", "length_um": 2500.0}, beam_optics.FreeSpace(2.5e-3)),
    ({"type": "thin_lens", "focal_length_um": -5.0e4, "axis": "z"},
     beam_optics.ThinLens(-0.05, axis="z")),
    ({"type": "anamorphic_scaler", "mx": 4.7, "mz": 0.5},
     beam_optics.AnamorphicScaler(mx=4.7, mz=0.5)),
    ({"type": "imaging_system", "magnification": 0.25}, beam_optics.ImagingSystem(0.25)),
    ({"type": "aod", "drive_frequency_mhz": 160.0},
     beam_optics.AodDeflector(center_frequency=150e6, acoustic_velocity=5700.0,
                              drive_frequency=160e6)),
    ({"type": "image_rotator", "angle_deg": 33.0},
     beam_optics.ImageRotator(math.radians(33.0))),
    ({"type": "beam_sampler", "sample_fraction": 0.002}, beam_optics.BeamSampler(0.002)),
], ids=lambda v: v["type"] if isinstance(v, dict) else "")
def test_train_element_types_parse(tmp_path, element, expected):
    (element_read,) = parse_config(_train_config(tmp_path, element)).train
    assert type(element_read) is type(expected)
    for name, value in vars(expected).items():
        read = getattr(element_read, name)
        if isinstance(value, float) and name != "angle":
            assert read == pytest.approx(value, rel=1e-12), name
        else:
            assert read == value, name  # the angle is exactly math.radians(angle_deg)


def test_train_element_defaults(tmp_path):
    lens, scaler, aod = parse_config(_train_config(
        tmp_path, {"type": "thin_lens", "focal_length_um": 1.0e5},
        {"type": "anamorphic_scaler"}, {"type": "aod"})).train
    assert lens.axis == "both"
    assert (scaler.mx, scaler.mz) == (1.0, 1.0)
    assert aod.drive_frequency == aod.center_frequency == 150e6


@pytest.mark.parametrize("elements, drop, expected", [
    ([{"type": "free_space", "length_um": 10.0, "focal_length_um": 3.0}], (),
     "config.train[0].focal_length_um: unknown key"),
    ([{"type": "free_space", "length_um": 10.0}, {"type": "prism"}], (),
     "config.train[1].type: must be one of"),
    ([{"type": "free_space", "length_um": 10.0}, {"type": "aod"}], ("aod",),
     "config.train[1]: an 'aod' element needs the top-level aod section"),
], ids=["unknown-key", "unknown-type", "aod-without-section"])
def test_bad_train_element_gives_one_violation(tmp_path, elements, drop, expected):
    with pytest.raises(ConfigError) as info:
        parse_config(_train_config(tmp_path, *elements, drop=drop))
    (violation,) = info.value.violations
    assert violation.startswith(expected), violation


@pytest.mark.parametrize("command, section, key", [
    ("misalign", "addressing", "misalignment_deg"),
    ("trace", "input_beam", "waist_position_x_um"),
    ("crosstalk", "chain", "center_um"),
])
def test_non_finite_config_value_is_a_config_error(tmp_path, capsys, command, section, key):
    cfg = _edited_config(tmp_path, section, **{key: float("nan")})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"config.{section}.{key}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_clipping_ratio_is_a_config_error(tmp_path, capsys, bad):
    cfg = _edited_config(tmp_path, "addressing", clipping_ratios=[0.6, bad])
    assert main(["crosstalk", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.addressing.clipping_ratios[1]: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["crosstalk", "trace"])
def test_empty_clipping_ratios_is_a_config_error(tmp_path, capsys, command):
    cfg = _edited_config(tmp_path, "addressing", clipping_ratios=[])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config.addressing.clipping_ratios: must hold at least one ratio" in \
        capsys.readouterr().err


def test_chain_with_positions_and_count_is_a_config_error(tmp_path, capsys):
    cfg = _edited_config(tmp_path, "chain", positions_um=[-3.8, 0.0, 3.8])
    assert main(["crosstalk", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "give either positions_um or count and spacing_um, not both" in \
        capsys.readouterr().err


def test_bad_chain_positions_are_reported_per_entry(tmp_path, capsys):
    cfg = _edited_config(tmp_path, "chain", count=None, spacing_um=None,
                         positions_um=[0.0, "3.8", 7.6, float("nan")])
    assert main(["crosstalk", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config.chain.positions_um[1]: expected int/float, got str" in err
    assert "config.chain.positions_um[3]: must be finite" in err


TARGET_OUTSIDE = "config.experiments.crosstalk.target_ion: 30 but the chain holds 30 ions"
EMPTY_SWEEP = ("config.experiments.switching: extra_time_stop_ns must exceed "
               "extra_time_start_ns")


@pytest.mark.parametrize("command", [["lab", "crosstalk"], ["lab", "switching"], ["trace"]],
                         ids=" ".join)
@pytest.mark.parametrize("experiment, values, violation", [
    ("crosstalk", {"target_ion": 30}, TARGET_OUTSIDE),
    ("switching", {"extra_time_start_ns": 900.0}, EMPTY_SWEEP),
    ("switching", {"extra_time_start_ns": 500.0, "extra_time_stop_ns": 400.0}, EMPTY_SWEEP),
], ids=["target-outside", "stop-at-start", "stop-before-start"])
def test_experiment_value_rule_fails_every_command(tmp_path, capsys, command, experiment,
                                                   values, violation):
    data = _reference_data()
    data["experiments"][experiment].update(values)
    out = tmp_path / "out"
    assert main(command + ["--config", _write_config(tmp_path, data),
                           "--out", str(out)]) == 2
    assert violation in capsys.readouterr().err
    assert not out.exists()


def test_experiment_value_rules_accept_the_edge(tmp_path):
    data = _reference_data()
    data["experiments"]["crosstalk"]["target_ion"] = 29
    data["experiments"]["switching"].update(extra_time_start_ns=899.0)
    exps = parse_config(_write_config(tmp_path, data)).experiments
    assert exps.crosstalk.target_ion == 29
    assert exps.switching.extra_stop > exps.switching.extra_start


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_output_path_blocked_by_a_file_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                         below):
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n", encoding="utf-8")
    ran = []
    monkeypatch.setitem(HANDLERS, "monitor", ("monitor", lambda ctx: ran.append(ctx)))
    out = blocker / below if below else blocker
    assert main(["monitor", "--config", CONFIG, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(blocker) in err
    assert not ran  # refused before the handler does any work
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_nearest_neighbor_rate_uses_the_closest_pair(tmp_path):
    data = _reference_data()
    data["chain"] = {"positions_um": [0.0, 10.0, 13.8]}
    data["experiments"]["crosstalk"]["target_ion"] = 1  # inside the three-ion chain
    cfg = _write_config(tmp_path, data)
    assert main(["crosstalk", "--config", cfg, "--out", str(tmp_path)]) == 0
    res = _read_report(tmp_path, "crosstalk")["results"]
    assert res["nearest_neighbor_rate"] == pytest.approx(
        addressing_analyzer.relative_rate(1.5e-6, 3.8e-6), rel=1e-9)


@pytest.mark.parametrize("key", sorted(HANDLERS))
def test_handler_declares_artifacts_and_opens_no_file(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    _results, artifacts = HANDLERS[key][1](RunContext(parse_config(CONFIG), seed=5))
    assert list(tmp_path.iterdir()) == []
    assert artifacts and all(isinstance(a, (Table, Plot)) for a in artifacts)
    names = [a.name for a in artifacts]
    assert len(set(names)) == len(names), names


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["lab", "profile-scan", "--config", CONFIG,
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_flag_changes_shot_noise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["lab", "profile-scan", "--config", CONFIG, "--out", str(a)]) == 0
    assert main(["lab", "profile-scan", "--config", CONFIG, "--out", str(b),
                 "--seed", "99"]) == 0
    csv_a = (a / "lab_profile_scan.csv").read_text(encoding="utf-8")
    csv_b = (b / "lab_profile_scan.csv").read_text(encoding="utf-8")
    assert csv_a != csv_b
    assert csv_a.splitlines()[0] == csv_b.splitlines()[0]


def test_csv_values_parse_and_avoid_negative_zero(tmp_path):
    assert main(["trace", "--config", CONFIG, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("index,element,")
    assert rows
    for row in rows:
        for cell in row.split(",")[2:]:  # first two columns are index and label
            float(cell)
            assert cell != "-0"


_IMPORT_PROBE = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from aodkit.cli import main

commands = (["design-prism"], ["tolerance"], ["trace"], ["steer"], ["efficiency"],
            ["monitor"], ["crosstalk"], ["misalign"], ["lab", "profile-scan"],
            ["lab", "chain-scan"], ["lab", "crosstalk"], ["lab", "switching"])
for argv in commands:
    assert main(argv + ["--config", sys.argv[1], "--out", sys.argv[2]]) == 0, argv
print(len(commands))
"""


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's aodkit."""
    import aodkit

    src = str(Path(aodkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)


def test_every_command_runs_without_scipy(tmp_path):
    proc = _run_python(_IMPORT_PROBE, CONFIG, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "12"


_LOADED_PROBE = """
import sys
from aodkit.cli import main
try:
    print("exit", main(sys.argv[1:]))
except SystemExit as exc:
    print("exit", exc.code)
print(*sorted(m for m in sys.modules if m.split(".")[0] in ("aodkit", "numpy", "yaml")))
"""


def _loaded_after(*argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, and the aodkit,
    numpy and yaml modules it left loaded."""
    proc = _run_python(_LOADED_PROBE, *argv)
    *_, exit_line, modules = proc.stdout.splitlines()
    return int(exit_line.split()[1]), set(modules.split())


@pytest.mark.parametrize("argv", [["--help"], ["lab", "--help"], ["trace"],
                                  ["no-such-command"]])
def test_help_and_usage_errors_load_no_physics(argv):
    code, loaded = _loaded_after(*argv)
    assert code == (0 if "--help" in argv else 2)
    assert loaded == {"aodkit", "aodkit.cli"}


def test_only_lab_commands_load_the_virtual_lab(tmp_path):
    common = ["--config", CONFIG, "--out", str(tmp_path)]
    code, loaded = _loaded_after("trace", *common)
    assert code == 0
    assert "aodkit.beam_optics" in loaded and "aodkit.virtual_lab" not in loaded
    code, loaded = _loaded_after("lab", "switching", *common)
    assert code == 0
    assert "aodkit.virtual_lab" in loaded


def test_lazy_reexports_are_the_submodule_functions():
    # perfbench's tracer wraps these two names on aodkit.cli by getattr
    proc = _run_python("""
import aodkit.cli
parse, write = getattr(aodkit.cli, "parse_config"), getattr(aodkit.cli, "write_run_report")
from aodkit.cli import config, report
assert parse is config.parse_config and write is report.write_run_report
assert not hasattr(aodkit.cli, "HANDLERS")
""")
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "aodkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "design-prism" in proc.stdout
