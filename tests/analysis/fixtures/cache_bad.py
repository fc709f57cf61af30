"""Seeded CACHE bad example: class-level state the cache key never reads."""

import hashlib
import json
from dataclasses import dataclass


@dataclass
class SimConfig:
    SCHEMA_HINT = "v1"  # CACHE002: class attr, invisible to asdict()

    mesh_radix: int = 8
    seed: int = 1


def config_key(config: SimConfig) -> str:
    payload = {
        "radix": config.mesh_radix,
        "seed": config.seed,
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
