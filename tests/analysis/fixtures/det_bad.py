# repro: scope[sim]
"""Seeded DET bad example: wall clock and entropy in sim-scoped code."""

import os
import time
from time import perf_counter  # DET002: imports a wall clock


def stamp() -> float:
    return time.time()  # DET002: wall clock


def entropy() -> bytes:
    return os.urandom(8)  # DET002: OS entropy


def elapsed(start: float) -> float:
    return perf_counter() - start
