"""Experiment configuration: a flat key = value text format with strict
validation, echoed into every output for reproducibility."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

KINDS = ("gmi-sweep", "scatter", "viterbi-ber", "ldpc-ber", "train-net")
RECEIVERS = ("no-sic", "sic")
KNOWN_METHODS = ("gnnd", "cl", "mi", "ml")
# the methods each runner implements; scatter and train-net read none
RUNNER_METHODS = {"gmi-sweep": ("gnnd", "cl", "mi"),
                  "viterbi-ber": ("gnnd", "cl", "ml"),
                  "ldpc-ber": ("gnnd", "cl")}
THREADED_KINDS = ("gmi-sweep", "viterbi-ber")  # the runners that read threads


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    users: int = 1
    antennas: int = 1
    constellation: str = "qpsk"
    power: float = 1.0
    snr_db: tuple[float, ...] = (10.0,)
    receiver: str = "no-sic"
    methods: tuple[str, ...] = ("gnnd", "cl", "mi")
    pilot_power: str = "perfect"
    draws: int = 1
    samples: int = 200_000
    blocks: int = 400
    min_errors: int = 100
    info_bits: int = 128
    net: bool = False
    net_samples: int = 100_000
    net_epochs: int = 20
    net_batch: int = 500
    out: str = ""
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.receiver not in RECEIVERS:
            raise ConfigError(f"unknown receiver {self.receiver!r}")
        for m in self.methods:
            if m not in RUNNER_METHODS.get(self.kind, KNOWN_METHODS):
                raise ConfigError(f"method {m!r} not available for {self.kind} runs")
        if not self.methods and self.kind in RUNNER_METHODS:
            raise ConfigError("method list must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"method list {','.join(self.methods)} repeats a method")
        if self.kind == "ldpc-ber" and self.receiver != "no-sic":
            raise ConfigError("the LDPC experiment runs parallel decoding only")
        if not self.snr_db:
            raise ConfigError("snr grid must not be empty")
        if len(self.snr_db) > 1 and self.kind in ("scatter", "train-net"):
            raise ConfigError(f"{self.kind} runs read one snr_db point, got {len(self.snr_db)}")
        positive = ("users", "antennas", "power", "draws", "samples", "blocks",
                    "min_errors", "info_bits", "net_samples", "net_epochs",
                    "net_batch", "threads")
        for name in positive:
            if not getattr(self, name) > 0:  # NaN fails too
                raise ConfigError(f"{name} must be positive")
        if self.power == math.inf:
            raise ConfigError("power must be finite")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ConfigError(f"snr_db entries must be finite, got {self.snr_db}")
        if self.net_samples < self.net_batch:
            raise ConfigError(f"net_samples = {self.net_samples} holds no full "
                              f"batch of net_batch = {self.net_batch}")
        if self.constellation != "qpsk":
            raise ConfigError("only the qpsk constellation is wired into experiments")
        pilot_power_value(self)  # validate the spec early
        if self.net and self.kind != "ldpc-ber":
            raise ConfigError(f"net is not read by {self.kind} runs")
        if self.threads > 1 and self.kind not in THREADED_KINDS:
            raise ConfigError(f"threads is not read by {self.kind} runs")


def pilot_power_value(cfg: ExperimentConfig) -> float | str:
    """Resolve the pilot spec: 'perfect', a multiple like '16P', or a number."""
    spec = cfg.pilot_power.strip()
    if spec == "perfect":
        return "perfect"
    multiple = spec.lower().endswith("p")
    try:
        value = ((float(spec[:-1]) if spec[:-1] else 1.0) * cfg.power if multiple
                 else float(spec))
    except ValueError as exc:
        raise ConfigError(f"bad pilot_power {spec!r}") from exc
    if not 0 < value < math.inf:  # NaN fails too
        raise ConfigError(f"pilot_power {spec!r} must give a positive, finite power")
    return value


_BOOL = {"on": True, "off": False, "true": True, "false": False,
         "yes": True, "no": False}


def _parse_value(kind, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw.lower() not in _BOOL:
            raise ValueError(f"bad boolean {raw!r}")
        return _BOOL[raw.lower()]
    if kind == "tuple[float, ...]":
        return tuple(float(v) for v in raw.split(",") if v.strip())
    if kind == "tuple[str, ...]":
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines; '#' starts a comment; unknown keys are errors."""
    spec = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().replace("-", "_"), val.strip()
        if key not in spec:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(spec[key], val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    if "kind" not in values:
        raise ConfigError("missing required key 'kind'")
    if "seed" not in values:
        raise ConfigError("missing required key 'seed' (runs must be reproducible)")
    try:
        return ExperimentConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


PAPER_SCALE_OVERRIDES = dict(
    draws=50,
    samples=200_000,
    blocks=5000,
    net_samples=400_000,
    net_epochs=100,
    net_batch=2000,
)


def apply_paper_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Switch desk-scale sampling defaults to the full-scale settings."""
    return replace(cfg, **PAPER_SCALE_OVERRIDES)


def config_echo(cfg: ExperimentConfig) -> list[str]:
    """Stable one-line-per-field echo of the configuration."""
    out = []
    for f in sorted(fields(ExperimentConfig), key=lambda f: f.name):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        out.append(f"{f.name} = {v}")
    return out
