"""Flat key-value experiment configuration.

Files hold one ``key = value`` per line with ``#`` comments.  Unknown keys
are hard errors so typos cannot silently fall back to defaults.  Every key
has a default matching the bundled reference scenario (``default.cfg``),
including the externally supplied channel-gain override used when
reproducing the reference results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .channel import ChannelGains, OpticalFrontEnd, ScenarioGeometry, gain_matrix
from .constellation import ConstellationSet, SpectralEfficiencies, design_constellation
from .errors import ConfigError, ParameterError
from .montecarlo import SweepConfig


def parse_finite(text: str) -> float:
    """float(text), rejecting nan and infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_schemes(text: str) -> tuple[str, ...]:
    """Comma-separated scheme names; SweepConfig checks what they name."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_snr_points(text: str) -> tuple[float, ...]:
    return tuple(parse_finite(part) for part in text.split(":"))


# key -> (parser, default, location).  None defaults mean "absent unless
# configured"; location is the dotted path of the value in a validated
# ExperimentConfig: build_config places the value there and config_echo
# reads it back.  A numeric part indexes a tuple.  Keys without a location
# only feed other values and are not echoed.
SCHEMA: dict[str, tuple] = {
    "room_height_m": (parse_finite, 4.0, "geometry.room_height_m"),
    # feeds no computation, but every output header echoes it
    "cell_radius_m": (parse_finite, 3.6, "geometry.cell_radius_m"),
    "rx_height_u1_m": (parse_finite, 0.5, "geometry.rx_heights_m.0"),
    "rx_height_u2_m": (parse_finite, 0.5, "geometry.rx_heights_m.1"),
    "rx_height_u3_m": (parse_finite, 1.0, "geometry.rx_heights_m.2"),
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

# How config_echo writes a value, by the parser that reads it back.
ECHO_FORMAT = {
    parse_finite: repr,
    int: str,
    _parse_snr_points: lambda points: ":".join(repr(s) for s in points),
    parse_schemes: ",".join,
}

GAIN_KEYS = ("gain_h11", "gain_h21", "gain_h22", "gain_h32")

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

    def computed_gains(self) -> ChannelGains:
        return gain_matrix(self.geometry, self.front_end)

    def effective_gains(self) -> ChannelGains:
        """Override when configured, otherwise the computed matrix."""
        if self.gain_override is not None:
            return self.gain_override
        return self.computed_gains()

    def design(self) -> tuple[ChannelGains, ConstellationSet]:
        """Effective gains and the constellation designed for them.

        The design's conditions span several keys, so a failure names the
        keys it reads.
        """
        try:
            gains = self.effective_gains()
            return gains, design_constellation(self.bpcu, gains, self.target_power_w)
        except ParameterError as exc:
            raise ConfigError(f"{exc}; the design reads bpcu_u1..bpcu_u3, target_power_w and"
                              " gain_h11..gain_h32, else the geometry keys") from exc


def default_config_path() -> Path:
    return Path(str(resources.files("vlcnoma").joinpath("default.cfg")))


def snr_grid(start_db: float, stop_db: float, step_db: float) -> tuple[float, ...]:
    """Inclusive arithmetic SNR grid, robust to floating-point step error."""
    if step_db <= 0:
        raise ConfigError(f"snr_step_db must be > 0, got {step_db}")
    if stop_db < start_db:
        raise ConfigError(f"snr_stop_db {stop_db} is below snr_start_db {start_db}")
    steps = (stop_db - start_db) / step_db + 1e-9
    if not steps < 2**31:
        raise ConfigError(f"snr_start_db {start_db} to snr_stop_db {stop_db} in steps of"
                          f" snr_step_db {step_db} gives too many points")
    count = int(math.floor(steps)) + 1
    return tuple(start_db + k * step_db for k in range(count))


def parse_kv_file(path) -> dict[str, str]:
    """Raw key/value strings from a flat config file; strict about shape."""
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def build_config(raw: dict[str, str], source: str = "<config>") -> ExperimentConfig:
    """Typed, validated config from raw strings; defaults fill missing keys."""
    typed: dict[str, object] = {}
    for key, (parser, default, _) in SCHEMA.items():
        if key in raw:
            try:
                typed[key] = parser(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from exc
        else:
            typed[key] = default

    missing = [key for key in GAIN_KEYS if typed[key] is None]
    if 0 < len(missing) < len(GAIN_KEYS):
        raise ConfigError(f"{source}: gain override needs all four gains, missing {missing}")
    for key in GAIN_KEYS:
        if not missing and typed[key] <= 0:
            raise ConfigError(f"{source}: {key} must be > 0, got {typed[key]}")
    override = None if missing else ChannelGains(*(typed[key] for key in GAIN_KEYS))

    def domain(cls, kwargs):
        # domain-type validators already name the offending key
        try:
            return cls(**kwargs)
        except ParameterError as exc:
            raise ConfigError(f"{source}: {exc}") from exc

    placed = _place(typed)
    if placed["sweep"]["snr_points_db"] is None:
        placed["sweep"]["snr_points_db"] = snr_grid(
            typed["snr_start_db"], typed["snr_stop_db"], typed["snr_step_db"])
    sections = {name: domain(cls, placed[name]) for name, cls in SECTIONS.items()}
    return ExperimentConfig(gain_override=override, **sections)


def _place(typed: dict[str, object]) -> dict[str, dict]:
    """``{section: {field: value}}`` by each key's location ``section.field``;
    a third, numeric part is the value's index in a tuple field."""
    placed: dict[str, dict] = {}
    for key, (_, _, location) in SCHEMA.items():
        if location is not None:
            section, field, *index = location.split(".")
            fields = placed.setdefault(section, {})
            if index:
                fields.setdefault(field, {})[int(index[0])] = typed[key]
            else:
                fields[field] = typed[key]
    for fields in placed.values():
        for field, value in fields.items():
            if isinstance(value, dict):
                fields[field] = tuple(value[i] for i in range(len(value)))
    return placed


def load_config(path=None) -> ExperimentConfig:
    """Load and validate a config file; the bundled defaults when path is None."""
    actual = default_config_path() if path is None else Path(path)
    if not actual.is_file():
        raise ConfigError(f"config file not found: {actual}")
    return build_config(parse_kv_file(actual), source=str(actual))


def _lookup(cfg: ExperimentConfig, location: str):
    value = cfg
    for part in location.split("."):
        if value is None:
            return None
        value = value[int(part)] if part.isdigit() else getattr(value, part)
    return value


def config_echo(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Canonical (key, value) pairs describing cfg, for embedding in outputs."""
    pairs = []
    for key, (parser, _, location) in SCHEMA.items():
        value = None if location is None else _lookup(cfg, location)
        if value is not None:
            pairs.append((key, ECHO_FORMAT[parser](value)))
    return pairs


def with_sweep(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    """Copy of cfg with selected sweep fields replaced."""
    return replace(cfg, sweep=replace(cfg.sweep, **changes))
