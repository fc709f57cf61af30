# repro: scope[runtime]
"""Good lock discipline: CONC001's happy paths in one module."""

import queue
import threading

LOCKED_BY = {"Server.value": "_lock"}
THREAD_CONFINED = {"Server._scratch"}


class Server:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs = queue.Queue()
        self.value = 0
        self._scratch = []

    def set_value(self, v):
        with self._lock:
            self.value = v

    def enqueue(self, item):
        # queue.Queue is intrinsically thread-safe: no guard needed.
        self._jobs.put(item)

    def note(self, x):
        # Declared THREAD_CONFINED: only ever touched by the caller.
        self._scratch.append(x)

