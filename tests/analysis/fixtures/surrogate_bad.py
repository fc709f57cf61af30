# repro: scope[surrogate]
"""Seeded DET/PURE bad examples under the surrogate domain.

The surrogate package promises the same contract as the delay model:
deterministic, pure functions of (config, load).  This fixture holds
one violation of each rule class the domain inherits.
"""

import time


def timed_estimate(load):
    started = time.perf_counter()  # DET002: wall clock in model code
    return load + started


def count_fit():
    global _TOTAL  # PURE001: global rebinding
    _TOTAL = 1
    return _TOTAL


def dump_fit(record):
    print(record)  # PURE002: I/O in model code
