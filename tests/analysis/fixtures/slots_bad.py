"""Seeded SLOTS bad example: non-field state on a pickled dataclass."""

from dataclasses import dataclass


@dataclass
class SimConfig:
    mesh_radix: int = 8
    seed: int = 1


def tag_config():
    config = SimConfig(mesh_radix=4)
    config.seed = 7  # fine: a real field
    config.run_label = "sweep-3"  # SLOTS003: not a SimConfig field
    return config
