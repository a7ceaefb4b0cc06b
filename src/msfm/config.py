"""Pipeline configuration: defaults, key=value files, flag overrides."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields
from pathlib import Path

from .densify import CANDIDATE_FRACTION, COVIS_THRESHOLD
from .errors import ConfigError
from .features import DEFAULT_ETA
from .guided import BAND_D_PX
from .localize import SET_COVER_ENGAGE_POINTS, SET_COVER_K
from .matching import RATIO_GUIDED, RATIO_UNGUIDED
from .reconstruct import PNP_MIN_INLIERS


@dataclass
class PipelineConfig:
    eta: float = DEFAULT_ETA
    d: float = BAND_D_PX
    ratio_unguided: float = RATIO_UNGUIDED
    ratio_guided: float = RATIO_GUIDED
    covis_threshold: int = COVIS_THRESHOLD
    candidate_fraction: float = CANDIDATE_FRACTION
    set_cover_k: int = SET_COVER_K
    set_cover_engage: int = SET_COVER_ENGAGE_POINTS
    min_inliers: int = PNP_MIN_INLIERS
    iterations: int = 2
    preemptive: bool = False
    final_ba: bool = False
    focal: float = 0.0  # 0 means per-image heuristic (1.2 * max dimension)
    seed: int = 0
    # benchmark/timed.py still passes threads=1; this goes when the benchmark drops it
    threads: InitVar[int] = 1

    def __post_init__(self, threads: int) -> None:
        if threads != 1:
            raise ConfigError(f"the stages run serially: threads must be 1, got {threads}")

    def validate(self) -> "PipelineConfig":
        if not 0 < self.eta <= 100:
            raise ConfigError(f"eta must be in (0, 100], got {self.eta}")
        if self.d <= 0:
            raise ConfigError(f"band d must be positive, got {self.d}")
        for name in ("ratio_unguided", "ratio_guided"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ConfigError(f"{name} must be in (0, 1), got {v}")
        if self.focal < 0:
            raise ConfigError(f"focal must be >= 0 (0: guessed per image), got {self.focal}")
        if not 0 < self.candidate_fraction <= 1:
            raise ConfigError(
                f"candidate_fraction must be in (0, 1], got {self.candidate_fraction}")
        if self.set_cover_k < 1:
            raise ConfigError(f"set_cover_k must be >= 1, got {self.set_cover_k}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        return self


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}
_TYPES = {"bool": bool, "int": int, "float": float, "str": str}


def field_kinds(cls) -> dict[str, type]:
    """Value type of each field of a dataclass with bool, int, float and str fields."""
    return {f.name: _TYPES[f.type] for f in fields(cls)}


_KINDS = field_kinds(PipelineConfig)


def coerce_value(name: str, raw: str, kind: type):
    """Parse the text of one config value (file line or command-line flag)."""
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def read_key_values(text: str, kinds: dict[str, type]) -> dict:
    """key=value lines (# comments allowed), each value coerced to its key's kind."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = coerce_value(key, raw, kinds[key])
    return values


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Config lines applied over ``base`` (default: the defaults)."""
    cfg = base or PipelineConfig()
    for key, value in read_key_values(text, _KINDS).items():
        setattr(cfg, key, value)
    return cfg.validate()


def load_config(path, base: PipelineConfig | None = None) -> PipelineConfig:
    return parse_config_text(Path(path).read_text(), base)
