"""Seeded CACHE good example: class-level state read into the key."""

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass
class SimConfig:
    #: Format marker: asdict() skips it, so the key reads it explicitly.
    SCHEMA_VERSION = 1

    mesh_radix: int = 8
    seed: int = 1


def config_key(config: SimConfig) -> str:
    payload = {
        "config": asdict(config),
        "schema": config.SCHEMA_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
