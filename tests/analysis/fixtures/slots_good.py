"""Seeded SLOTS good example: field-only config state."""

from dataclasses import dataclass


@dataclass
class SimConfig:
    mesh_radix: int = 8
    seed: int = 1


def tag_config():
    config = SimConfig(mesh_radix=4)
    config.seed = 7
    return config
