"""Flat key-value experiment configuration.

Files hold one ``key = value`` per line with ``#`` comments.  Unknown keys
are hard errors so typos cannot silently fall back to defaults.  Every key
has a default matching the bundled reference scenario (``default.cfg``),
but for that file's channel-gain override: ``gain_h11``..``gain_h32``
default to None, so a file without them uses the computed gain matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .channel import ChannelGains, OpticalFrontEnd, ScenarioGeometry, gain_matrix
from .constellation import ConstellationSet, SpectralEfficiencies, design_constellation
from .errors import ParameterError
from .montecarlo import MAX_POINTS, SweepConfig


def parse_finite(text: str) -> float:
    """float(text), rejecting nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_schemes(text: str) -> tuple[str, ...]:
    """Comma-separated scheme names; SweepConfig checks what they name."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _fmt(value) -> str:
    """A value as every output writes it: numpy scalars and bools as Python numbers."""
    if value is None:
        return ""
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


def _parse_snr_points(text: str) -> tuple[float, ...]:
    return tuple(parse_finite(part) for part in text.split(":"))


# key -> (parser, default, location).  None defaults mean "absent unless
# configured"; location is the ``section.field`` of the value in a validated
# ExperimentConfig: build_config places the value there and config_echo
# reads it back.  Keys without a location only feed other values and are
# not echoed.
SCHEMA: dict[str, tuple] = {
    "room_height_m": (parse_finite, 4.0, "geometry.room_height_m"),
    # feeds no computation, but every output header echoes it
    "cell_radius_m": (parse_finite, 3.6, "geometry.cell_radius_m"),
    "rx_height_u1_m": (parse_finite, 0.5, "geometry.rx_height_u1_m"),
    "rx_height_u2_m": (parse_finite, 0.5, "geometry.rx_height_u2_m"),
    "rx_height_u3_m": (parse_finite, 1.0, "geometry.rx_height_u3_m"),
    "r11_m": (parse_finite, 0.4885, "geometry.r11_m"),
    "r21_m": (parse_finite, 3.2880, "geometry.r21_m"),
    "r22_m": (parse_finite, 3.4670, "geometry.r22_m"),
    "r32_m": (parse_finite, 0.3030, "geometry.r32_m"),
    "semi_angle_deg": (parse_finite, 60.0, "front_end.semi_angle_deg"),
    "fov_deg": (parse_finite, 60.0, "front_end.fov_deg"),
    "filter_gain": (parse_finite, 1.0, "front_end.filter_gain"),
    "responsivity_a_per_w": (parse_finite, 0.4, "front_end.responsivity_a_per_w"),
    "detector_area_m2": (parse_finite, 1e-4, "front_end.detector_area_m2"),
    "concentrator_index": (parse_finite, 1.5, "front_end.concentrator_index"),
    "gain_h11": (parse_finite, None, "gain_override.h11"),
    "gain_h21": (parse_finite, None, "gain_override.h21"),
    "gain_h22": (parse_finite, None, "gain_override.h22"),
    "gain_h32": (parse_finite, None, "gain_override.h32"),
    "bpcu_u1": (int, 3, "bpcu.u1"),
    "bpcu_u2": (int, 2, "bpcu.u2"),
    "bpcu_u3": (int, 2, "bpcu.u3"),
    "target_power_w": (parse_finite, 1.0, "sweep.target_power_w"),
    "snr_start_db": (parse_finite, 100.0, None),
    "snr_stop_db": (parse_finite, 150.0, None),
    "snr_step_db": (parse_finite, 2.0, None),
    # explicit grid; wins over start/stop/step when present (exact echo replay)
    "snr_points_db": (_parse_snr_points, None, "sweep.snr_points_db"),
    "trials_per_point": (int, 100_000, "sweep.trials_per_point"),
    "seed": (int, 1, "sweep.seed"),
    "min_errors": (int, 0, "sweep.min_errors"),
    "batch_size": (int, 1 << 15, "sweep.batch_size"),
    "schemes": (parse_schemes, ("noma-sic",), "sweep.schemes"),
}

# How config_echo writes a value, by the parser that reads it back; any other as _fmt.
ECHO_FORMAT = {
    _parse_snr_points: lambda points: ":".join(map(_fmt, points)),
    parse_schemes: ",".join,
}

# ExperimentConfig field -> the domain type built from the keys located in it.
SECTIONS = {
    "geometry": ScenarioGeometry,
    "front_end": OpticalFrontEnd,
    "bpcu": SpectralEfficiencies,
    "sweep": SweepConfig,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated scenario, efficiencies, and sweep settings."""

    geometry: ScenarioGeometry
    front_end: OpticalFrontEnd
    gain_override: ChannelGains | None
    bpcu: SpectralEfficiencies
    sweep: SweepConfig

    @property
    def target_power_w(self) -> float:
        return self.sweep.target_power_w

    def effective_gains(self) -> ChannelGains:
        """Override when configured, otherwise the computed matrix."""
        if self.gain_override is not None:
            return self.gain_override
        return gain_matrix(self.geometry, self.front_end)

    def design(self) -> tuple[ChannelGains, ConstellationSet]:
        """Effective gains and the constellation designed for them.

        The design's conditions span several keys, so a failure names the
        keys it reads.
        """
        try:
            gains = self.effective_gains()
            return gains, design_constellation(self.bpcu, gains, self.target_power_w)
        except ParameterError as exc:
            raise ParameterError(f"{exc}; the design reads bpcu_u1..bpcu_u3, target_power_w and"
                                 " gain_h11..gain_h32, else the geometry keys") from exc


def default_config_path() -> Path:
    return Path(str(resources.files("vlcnoma").joinpath("default.cfg")))


def snr_grid(start_db: float, stop_db: float, step_db: float) -> tuple[float, ...]:
    """Inclusive arithmetic SNR grid, robust to floating-point step error;
    a step too fine for start + k * step to tell two points apart is rejected,
    as is a grid of more than ``MAX_POINTS`` points, before it is built."""
    if step_db <= 0:
        raise ParameterError(f"snr_step_db must be > 0, got {step_db}")
    if stop_db < start_db:
        raise ParameterError(f"snr_stop_db {stop_db} is below snr_start_db {start_db}")
    steps = (stop_db - start_db) / step_db + 1e-9
    grid = f"snr_start_db {start_db} to snr_stop_db {stop_db} in steps of snr_step_db {step_db}"
    if not steps < MAX_POINTS:
        raise ParameterError(f"{grid} gives too many points, more than {MAX_POINTS}")
    points = tuple(start_db + k * step_db for k in range(int(math.floor(steps)) + 1))
    if len(set(points)) < len(points):
        raise ParameterError(f"{grid} gives repeated points")
    return points


def parse_kv_file(path) -> dict[str, str]:
    """Raw key/value strings from a flat config file; strict about shape."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ParameterError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def build_config(raw: dict[str, str], source: str = "<config>") -> ExperimentConfig:
    """Typed, validated config from raw strings; defaults fill missing keys."""
    typed: dict[str, object] = {}
    placed: dict[str, dict] = {}
    for key, (parser, default, location) in SCHEMA.items():
        try:
            typed[key] = parser(raw[key]) if key in raw else default
        except ValueError as exc:
            raise ParameterError(f"{source}: bad value for {key!r}: {exc}") from exc
        if location is not None:
            section, name = location.split(".")
            placed.setdefault(section, {})[name] = typed[key]
    # the override's keys are gain_h11 .. gain_h32, located at gain_override.h11 ..
    gains = placed.pop("gain_override")
    missing = [f"gain_{name}" for name, value in gains.items() if value is None]
    if 0 < len(missing) < len(gains):
        raise ParameterError(f"{source}: gain override needs all four gains, missing {missing}")
    for name, value in gains.items():
        if not missing and value <= 0:
            raise ParameterError(f"{source}: gain_{name} must be > 0, got {value}")
    override = None if missing else ChannelGains(**gains)
    try:  # snr_grid and the domain-type validators already name the offending key
        if placed["sweep"]["snr_points_db"] is None:
            placed["sweep"]["snr_points_db"] = snr_grid(
                typed["snr_start_db"], typed["snr_stop_db"], typed["snr_step_db"])
        sections = {name: cls(**placed[name]) for name, cls in SECTIONS.items()}
    except ParameterError as exc:
        raise ParameterError(f"{source}: {exc}") from exc
    return ExperimentConfig(gain_override=override, **sections)


def load_config(path=None, overrides=None, flags: str = "") -> ExperimentConfig:
    """Load and validate a config file; the bundled defaults when path is None.

    ``overrides`` maps keys to raw values that replace the file's, None
    removing one, parsed as its lines are; messages name the file and then
    ``flags``, the command-line text the overrides came from.
    """
    actual = default_config_path() if path is None else Path(path)
    try:
        if not actual.is_file():
            raise ParameterError(f"config path {actual} is not a file" if actual.exists()
                                 else f"config file not found: {actual}")
        values = parse_kv_file(actual)
    except OSError as exc:  # a name too long or a file without read permission, say
        raise ParameterError(f"config file {actual}: {exc.strerror}") from None
    raw = {**values, **(overrides or {})}
    return build_config({key: value for key, value in raw.items() if value is not None},
                        source=f"{actual} {flags}".rstrip())


def config_echo(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Canonical (key, value) pairs describing cfg, for embedding in outputs."""
    pairs = []
    for key, (parser, _, location) in SCHEMA.items():
        if location is not None:
            section, name = location.split(".")
            owner = getattr(cfg, section)  # None: no gain override
            value = None if owner is None else getattr(owner, name)
            if value is not None:
                pairs.append((key, ECHO_FORMAT.get(parser, _fmt)(value)))
    return pairs
