# repro: scope[runtime]
"""Bad lock discipline: CONC001 unguarded and mis-guarded writes."""

import threading

LOCKED_BY = {"Racy.declared": "_lock"}


class Racy:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.value = 0
        self.declared = 0

    def set_value(self, v):
        self.value = v  # CONC001: no owned lock held

    def set_declared(self, v):
        self.declared = v  # CONC001: LOCKED_BY names _lock, not held

