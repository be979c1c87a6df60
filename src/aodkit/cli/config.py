"""YAML system configuration: parsing, validation, unit conversion.

Operator-facing units follow lab conventions (lengths in um, frequencies
in MHz, times in ns, angles in degrees); everything is converted to SI
at this boundary so the library below never sees a unit suffix.

Validation is strict and total: unknown keys, missing required fields,
type and range problems, and the rules that tie two values together (a
crosstalk target inside the chain, a switching sweep that ends after it
starts) are all collected into one :class:`~aodkit.errors.ConfigError`
listing every violation, whichever command runs.  Every mapping is read
through a :class:`_Section`; each optical-train entry is one, with its
keys and constructor taken from the ``_ELEMENTS`` table.  Which sections
a command needs is the command's own check.
"""

import functools
import hashlib
import math
import os
from dataclasses import dataclass

import yaml

from .. import aod_model, beam_optics
from ..addressing_analyzer import COUPLING_MODES, IonChain
from ..errors import (ConfigError, ValidationError, as_count, finite, in_range, non_negative,
                      nonzero, positive)
from ..prism_designer import ANGLE_NAMES, PrismPairDesign, ToleranceSpec

UM = 1e-6
MHZ = 1e6
NS = 1e-9


class _Section:
    """One mapping level of the config with violation accumulation."""

    def __init__(self, data, path, violations):
        self.data = data if isinstance(data, dict) else {}
        self.path = path
        self.violations = violations
        self.seen = set()
        if data is not None and not isinstance(data, dict):
            violations.append(f"{path}: must be a mapping")

    def get(self, key, *, required=False, default=None, types=(int, float),
            check=finite, choices=None, scale=None):
        """``data[key]`` (times ``scale``) if it is valid, else ``default``."""
        self.seen.add(key)
        if key not in self.data or self.data[key] is None:
            if required:
                self.violations.append(f"{self.path}.{key}: required field is missing")
            return default
        v = self.value(f"{self.path}.{key}", self.data[key], types, check, choices)
        if v is None:
            return default
        if scale is not None:
            return float(v) * scale
        return v

    def value(self, path, v, types=(int, float), check=finite, choices=None):
        """``v`` if it has one of ``types``, is one of ``choices`` and, as a
        number, passes ``check`` (an :mod:`aodkit.errors` check, called with
        ``path`` and ``v``); otherwise None, with the violation recorded."""
        if isinstance(v, bool) and bool not in types:
            self.violations.append(f"{path}: expected a number, got a boolean")
            return None
        if not isinstance(v, types):
            names = "/".join(t.__name__ for t in types)
            self.violations.append(f"{path}: expected {names}, got {type(v).__name__}")
            return None
        if choices is not None and v not in choices:
            self.violations.append(f"{path}: must be one of {sorted(choices)}, got {v!r}")
            return None
        if isinstance(v, (int, float)):
            try:
                check(path, v)
            except ValidationError as exc:
                self.violations.append(f"{path}: {exc.reason}")
                return None
        return v

    def subsection(self, key):
        self.seen.add(key)
        sub = self.data.get(key)
        if sub is None:
            return None
        return _Section(sub, f"{self.path}.{key}", self.violations)

    def finish(self):
        for key in sorted(set(self.data) - self.seen):
            self.violations.append(f"{self.path}.{key}: unknown key")


# ---------------------------------------------------------------------------
# Typed sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrismSection:
    design: PrismPairDesign
    target_expansion: float
    tolerances: ToleranceSpec
    monte_carlo_samples: int


@dataclass(frozen=True)
class AddressingSection:
    ion_waist: float
    perpendicular_waist: float
    coupling: str
    misalignment_angle: float  # rad
    steering_half_range: float
    clipping_ratios: tuple
    collimated_waist: float


@dataclass(frozen=True)
class ScanSetup:
    """Frequency sweep; profile scans also inject ``waist`` and ``center_frequency``."""

    pi_time: float
    drive_time: float
    frequency_start: float
    frequency_stop: float
    points: int
    shots: int  # None for noiseless
    steering_efficiency: float  # None -> derive from the train
    waist: float = None  # type: ignore[assignment]
    center_frequency: float = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CrosstalkSetup:
    target_ion: int
    pi_time: float
    max_time: float
    points: int
    shots: int


@dataclass(frozen=True)
class SwitchingSetup:
    model: str  # pure_delay | transit_ramp | linear_ramp
    switch_delay: float
    settle_time: float
    pi2_time_ion0: float
    pi2_time_ion1: float
    extra_start: float
    extra_stop: float
    points: int
    shots: int


@dataclass(frozen=True)
class ExperimentsSection:
    profile_scan: ScanSetup
    chain_scan: ScanSetup
    crosstalk: CrosstalkSetup
    switching: SwitchingSetup


@dataclass(frozen=True)
class SystemConfig:
    """Fully validated configuration; sections absent from the file are None."""

    path: str
    digest: str
    seed: int
    output_directory: str
    wavelength: float
    input_beam: beam_optics.AstigmaticBeam
    train: beam_optics.OpticalTrain
    prism: PrismSection
    aod: aod_model.AodSpec
    monitor: aod_model.MonitorChain
    beam_power: float
    chain: IonChain
    addressing: AddressingSection
    experiments: ExperimentsSection


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------


def _build_beam(sec, wavelength):
    wx = sec.get("waist_x_um", required=True, check=positive, scale=UM)
    wz = sec.get("waist_z_um", required=True, check=positive, scale=UM)
    px = sec.get("waist_position_x_um", default=0.0, scale=UM)
    pz = sec.get("waist_position_z_um", default=0.0, scale=UM)
    sec.finish()
    if None in (wx, wz) or wavelength is None:
        return None
    return beam_optics.AstigmaticBeam(
        wavelength=wavelength,
        x=beam_optics.BeamAxis(waist_radius=wx, waist_position=px),
        z=beam_optics.BeamAxis(waist_radius=wz, waist_position=pz),
    )


# Each train element type: its constructor and, per config key, the
# constructor keyword and the ``_Section.get`` rules.  The rules are at least
# as strict as the constructor's own checks, ``scale=1.0`` passes the value
# on as a float, and a key left out takes the constructor's default.
_ELEMENTS = {
    "free_space": (beam_optics.FreeSpace, {
        "length_um": ("length", dict(required=True, check=non_negative, scale=UM))}),
    "thin_lens": (beam_optics.ThinLens, {
        "focal_length_um": ("focal_length", dict(required=True, check=nonzero, scale=UM)),
        "axis": ("axis", dict(types=(str,), choices=("x", "z", "both")))}),
    "anamorphic_scaler": (beam_optics.AnamorphicScaler, {
        "mx": ("mx", dict(check=positive)),
        "mz": ("mz", dict(check=positive))}),
    "imaging_system": (beam_optics.ImagingSystem, {
        "magnification": ("magnification", dict(required=True, check=nonzero, scale=1.0))}),
    "aod": (aod_model.AodSpec.deflector, {
        "drive_frequency_mhz": ("drive_frequency", dict(check=positive, scale=MHZ))}),
    "image_rotator": (beam_optics.ImageRotator, {
        "angle_deg": ("angle", dict(required=True, scale=math.pi / 180.0))}),
    "beam_sampler": (beam_optics.BeamSampler, {
        "sample_fraction": ("sample_fraction", dict(
            required=True, check=lambda path, v: in_range(path, v, 0.0, 1.0, "[)"),
            scale=1.0))}),
}


def _build_train(entries, path, violations, aod_spec):
    if not isinstance(entries, list) or not entries:
        violations.append(f"{path}: must be a non-empty list of elements")
        return None
    start = len(violations)
    elements = []
    for i, entry in enumerate(entries):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            violations.append(f"{epath}: must be a mapping with a 'type' key")
            continue
        sec = _Section(entry, epath, violations)
        etype = sec.get("type", required=True, types=(str,), choices=_ELEMENTS)
        if etype is None:
            continue
        make, keys = _ELEMENTS[etype]
        kwargs = {name: sec.get(key, **rules) for key, (name, rules) in keys.items()}
        sec.finish()
        if etype == "aod":
            if aod_spec is None:
                violations.append(
                    f"{epath}: an 'aod' element needs the top-level aod section")
                continue
            make = functools.partial(make, aod_spec)
        if len(violations) == start:  # else the train is dropped; keep collecting
            elements.append(make(**{k: v for k, v in kwargs.items() if v is not None}))
    if len(violations) > start:
        return None
    return beam_optics.OpticalTrain(tuple(elements))


def _build_prism(sec):
    alpha = sec.get("alpha_deg", required=True, check=positive)
    alpha_prime = sec.get("alpha_prime_deg", required=True, check=positive)
    beta = sec.get("beta_deg", required=True, check=non_negative)
    beta_prime = sec.get("beta_prime_deg", required=True, check=non_negative)
    index = sec.get("refractive_index", required=True,
                    check=lambda path, v: in_range(path, v, 1.0, 5.0, "[)"))
    target = sec.get("target_expansion", default=None, check=positive)
    samples = sec.get("monte_carlo_samples", default=100000, types=(int,), check=positive)
    tol_sec = sec.subsection("tolerances_deg")
    tolerances = {}
    if tol_sec is not None:  # a key left out takes ToleranceSpec's default
        tolerances = {k: tol_sec.get(k, check=non_negative) for k in ANGLE_NAMES}
        tol_sec.finish()
    tol = ToleranceSpec(**{k: v for k, v in tolerances.items() if v is not None})
    sec.finish()
    if None in (alpha, alpha_prime, beta, beta_prime, index):
        return None
    try:
        design = PrismPairDesign(float(alpha), float(alpha_prime), float(beta),
                                 float(beta_prime), float(index))
    except ValidationError as exc:
        sec.violations.append(f"{sec.path}: {exc}")
        return None
    return PrismSection(design=design,
                        target_expansion=float(target) if target else None,
                        tolerances=tol, monte_carlo_samples=int(samples))


def _build_aod(sec, wavelength):
    fc = sec.get("center_frequency_mhz", required=True, check=positive, scale=MHZ)
    bw = sec.get("bandwidth_mhz", required=True, check=positive, scale=MHZ)
    vel = sec.get("acoustic_velocity_m_s", required=True, check=positive)
    waist = sec.get("crystal_waist_um", required=True, check=positive, scale=UM)
    peak = sec.get("peak_efficiency", default=1.0,
                   check=lambda path, v: in_range(path, v, 0.0, 1.0, "(]"))
    width = sec.get("efficiency_width_mhz", default=None, check=positive, scale=MHZ)
    sec.finish()
    if None in (fc, bw, vel, waist) or wavelength is None:
        return None
    return aod_model.AodSpec(
        center_frequency=fc, bandwidth=bw, acoustic_velocity=float(vel),
        optical_wavelength=wavelength, crystal_waist=waist,
        peak_efficiency=float(peak), efficiency_width=width)


def _build_monitor(sec):
    frac = sec.get("sample_fraction", required=True,
                   check=lambda path, v: in_range(path, v, 0.0, 1.0, "()"))
    resp = sec.get("responsivity_a_w", required=True, check=positive)
    gain = sec.get("tia_gain_v_a", required=True, check=positive)
    power = sec.get("beam_power_w", required=True, check=positive)
    sec.finish()
    if None in (frac, resp, gain, power):
        return None
    chain = aod_model.MonitorChain(sample_fraction=float(frac),
                                   responsivity=float(resp),
                                   transimpedance_gain=float(gain))
    return chain, float(power)


def _build_chain(sec):
    positions = sec.get("positions_um", default=None, types=(list,))
    count = sec.get("count", default=None, types=(int,), check=positive)
    spacing = sec.get("spacing_um", default=None, check=positive, scale=UM)
    center = sec.get("center_um", default=0.0, scale=UM)
    sec.finish()
    if positions is not None and (count is not None or spacing is not None):
        sec.violations.append(
            f"{sec.path}: give either positions_um or count and spacing_um, not both")
        return None
    if positions is not None:
        checked = [sec.value(f"{sec.path}.positions_um[{i}]", p)
                   for i, p in enumerate(positions)]
        if None in checked:
            return None
        try:
            return IonChain(tuple(float(p) * UM for p in checked))
        except ValidationError as exc:
            sec.violations.append(f"{sec.path}.positions_um: {exc}")
            return None
    if count is None or spacing is None:
        sec.violations.append(
            f"{sec.path}: provide either positions_um or both count and spacing_um")
        return None
    return IonChain.uniform(int(count), spacing, center=center)


def _build_addressing(sec):
    waist = sec.get("ion_waist_um", required=True, check=positive, scale=UM)
    perp = sec.get("perpendicular_waist_um", required=True, check=positive, scale=UM)
    coupling = sec.get("coupling", default="intensity", types=(str,),
                       choices=COUPLING_MODES)
    mis = sec.get("misalignment_deg", default=1.0)
    half = sec.get("steering_half_range_um", default=75.0, check=non_negative, scale=UM)
    ratios = sec.get("clipping_ratios", default=[0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0],
                     types=(list,))
    if not ratios:
        sec.violations.append(f"{sec.path}.clipping_ratios: must hold at least one ratio")
    coll = sec.get("collimated_waist_um", default=1500.0, check=positive, scale=UM)
    sec.finish()
    if None in (waist, perp):
        return None
    checked = [sec.value(f"{sec.path}.clipping_ratios[{i}]", r, check=positive)
               for i, r in enumerate(ratios)]
    clean_ratios = [float(r) for r in checked if r is not None]
    return AddressingSection(
        ion_waist=waist, perpendicular_waist=perp, coupling=coupling,
        misalignment_angle=math.radians(float(mis)),
        steering_half_range=half, clipping_ratios=tuple(clean_ratios),
        collimated_waist=coll)


def _scan_setup(sec, default_points, **beam):
    """The seven keys every frequency scan shares, plus ``beam`` as given."""
    setup = ScanSetup(
        pi_time=sec.get("pi_time_ns", required=True, check=positive, scale=NS),
        drive_time=sec.get("drive_time_ns", required=True, check=positive, scale=NS),
        frequency_start=sec.get("frequency_start_mhz", required=True, check=positive,
                                scale=MHZ),
        frequency_stop=sec.get("frequency_stop_mhz", required=True, check=positive,
                               scale=MHZ),
        points=sec.get("points", default=default_points, types=(int,),
                       check=lambda path, v: as_count(path, v, 4)),
        shots=sec.get("shots", types=(int,), check=positive),
        steering_efficiency=sec.get("steering_efficiency_um_per_mhz", default=None,
                                    check=nonzero, scale=UM / MHZ),
        **beam,
    )
    sec.finish()
    return setup


def _build_experiments(sec, chain):
    """The experiment setups; ``chain`` (None if absent) bounds the crosstalk target."""
    profile = chain_scan = crosstalk = switching = None

    ps = sec.subsection("profile_scan")
    if ps is not None:
        profile = _scan_setup(
            ps, 201,
            waist=ps.get("waist_um", required=True, check=positive, scale=UM),
            center_frequency=ps.get("beam_center_mhz", required=True, check=positive,
                                    scale=MHZ))

    cs = sec.subsection("chain_scan")
    if cs is not None:
        chain_scan = _scan_setup(cs, 1601)

    ct = sec.subsection("crosstalk")
    if ct is not None:
        crosstalk = CrosstalkSetup(
            target_ion=ct.get("target_ion", required=True, types=(int,),
                              check=non_negative),
            pi_time=ct.get("pi_time_ns", required=True, check=positive, scale=NS),
            max_time=ct.get("max_time_ns", required=True, check=positive, scale=NS),
            points=ct.get("points", default=400, types=(int,),
                          check=lambda path, v: as_count(path, v, 8)),
            shots=ct.get("shots", types=(int,), check=positive),
        )
        ct.finish()
        if None not in (chain, crosstalk.target_ion) and crosstalk.target_ion >= len(chain):
            sec.violations.append(
                f"{ct.path}.target_ion: {crosstalk.target_ion} "
                f"but the chain holds {len(chain)} ions")

    sw = sec.subsection("switching")
    if sw is not None:
        switching = SwitchingSetup(
            model=sw.get("model", default="pure_delay", types=(str,),
                         choices=("pure_delay", "transit_ramp", "linear_ramp")),
            switch_delay=sw.get("switch_delay_ns", default=0.0, check=non_negative,
                                scale=NS),
            settle_time=sw.get("settle_time_ns", default=0.0, check=non_negative,
                               scale=NS),
            pi2_time_ion0=sw.get("pi2_time_ion0_ns", required=True, check=positive,
                                 scale=NS),
            pi2_time_ion1=sw.get("pi2_time_ion1_ns", required=True, check=positive,
                                 scale=NS),
            extra_start=sw.get("extra_time_start_ns", default=0.0, check=non_negative,
                               scale=NS),
            extra_stop=sw.get("extra_time_stop_ns", required=True, check=positive,
                              scale=NS),
            points=sw.get("points", default=181, types=(int,),
                          check=lambda path, v: as_count(path, v, 8)),
            shots=sw.get("shots", types=(int,), check=positive),
        )
        sw.finish()
        if None not in (switching.extra_start, switching.extra_stop) \
                and switching.extra_stop <= switching.extra_start:
            sec.violations.append(
                f"{sw.path}: extra_time_stop_ns must exceed extra_time_start_ns")

    sec.finish()
    return ExperimentsSection(profile_scan=profile, chain_scan=chain_scan,
                              crosstalk=crosstalk, switching=switching)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_config(path):
    """Parse and validate a YAML system configuration.

    Raises :class:`ConfigError` for a missing file, a YAML syntax error
    (with line and column) or any schema violation; on success returns a
    :class:`SystemConfig` with SI values and constructed library objects.
    """
    if not os.path.exists(path):
        raise ConfigError(f"configuration file not found: {path}")
    with open(path, "rb") as fh:
        raw_bytes = fh.read()
    digest = hashlib.sha256(raw_bytes).hexdigest()

    try:
        data = yaml.safe_load(raw_bytes)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"YAML parse error{where}: {exc.problem or exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error: {exc}") from exc

    if data is None:
        raise ConfigError("configuration file is empty")
    if not isinstance(data, dict):
        raise ConfigError("top level of the configuration must be a mapping")

    violations = []
    root = _Section(data, "config", violations)

    seed = root.get("seed", default=None, types=(int,), check=non_negative)
    out_sec = root.subsection("output")
    outdir = None
    if out_sec is not None:
        outdir = out_sec.get("directory", default=None, types=(str,))
        out_sec.finish()

    sys_sec = root.subsection("system")
    wavelength = None
    if sys_sec is None:
        violations.append("config.system: required section is missing")
    else:
        wavelength = sys_sec.get("wavelength_um", required=True, check=positive, scale=UM)
        sys_sec.finish()

    aod_sec = root.subsection("aod")
    aod = _build_aod(aod_sec, wavelength) if aod_sec is not None else None

    beam_sec = root.subsection("input_beam")
    beam = _build_beam(beam_sec, wavelength) if beam_sec is not None else None

    root.seen.add("train")
    train = None
    if "train" in data:
        train = _build_train(data["train"], "config.train", violations, aod)

    prism_sec = root.subsection("prism")
    prism = _build_prism(prism_sec) if prism_sec is not None else None

    mon_sec = root.subsection("monitor")
    monitor = beam_power = None
    if mon_sec is not None:
        built = _build_monitor(mon_sec)
        if built is not None:
            monitor, beam_power = built

    chain_sec = root.subsection("chain")
    chain = _build_chain(chain_sec) if chain_sec is not None else None

    addr_sec = root.subsection("addressing")
    addressing = _build_addressing(addr_sec) if addr_sec is not None else None

    exp_sec = root.subsection("experiments")
    if exp_sec is not None:
        experiments = _build_experiments(exp_sec, chain)
    else:
        experiments = ExperimentsSection(None, None, None, None)

    root.finish()
    if violations:
        raise ConfigError(f"invalid configuration ({len(violations)} problem(s))",
                          violations)

    return SystemConfig(
        path=str(path), digest=digest,
        seed=int(seed) if seed is not None else None,
        output_directory=outdir,
        wavelength=wavelength, input_beam=beam, train=train, prism=prism,
        aod=aod, monitor=monitor, beam_power=beam_power, chain=chain,
        addressing=addressing, experiments=experiments,
    )
