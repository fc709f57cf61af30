"""Seeded CACHE good example: every field read by name in config_key
(the measurement values handed to a memoised frame helper), asdict()
only on the nested telemetry dataclass."""

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional, Tuple


@dataclass(frozen=True)
class TelemetryConfig:
    sample_period: int = 64  # covered by asdict(config.telemetry)


@dataclass
class SimConfig:
    mesh_radix: int = 8
    seed: int = 1
    telemetry: Optional[TelemetryConfig] = None


@dataclass
class MeasurementConfig:
    warmup_cycles: int = 1000
    sample_packets: int = 2000


@lru_cache(maxsize=8, typed=True)
def _key_frame(code: str, sample_packets: int,
               warmup_cycles: int) -> Tuple[str, str]:
    measurement = {
        "sample_packets": sample_packets, "warmup_cycles": warmup_cycles,
    }
    return f'{{"code":"{code}","config":', f',"m":{json.dumps(measurement)}}}'


def config_key(config: SimConfig,
               measurement: Optional[MeasurementConfig] = None) -> str:
    if measurement is None:
        measurement = MeasurementConfig()
    prefix, suffix = _key_frame(
        "v1", measurement.sample_packets, measurement.warmup_cycles
    )
    fields = {
        "mesh_radix": config.mesh_radix,
        "seed": config.seed,
        "telemetry": (
            None if config.telemetry is None else asdict(config.telemetry)
        ),
    }
    canonical = prefix + json.dumps(fields, sort_keys=True) + suffix
    return hashlib.sha256(canonical.encode()).hexdigest()
