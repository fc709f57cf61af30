"""Seeded CACHE bad example: the explicit-reads key with one read
dropped.  ``asdict(config.telemetry)`` covers TelemetryConfig, not the
rest of SimConfig."""

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional, Tuple


@dataclass(frozen=True)
class TelemetryConfig:
    sample_period: int = 64


@dataclass
class SimConfig:
    mesh_radix: int = 8
    seed: int = 1  # CACHE001: the read was dropped from config_key
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
        "telemetry": (
            None if config.telemetry is None else asdict(config.telemetry)
        ),
    }
    canonical = prefix + json.dumps(fields, sort_keys=True) + suffix
    return hashlib.sha256(canonical.encode()).hexdigest()
