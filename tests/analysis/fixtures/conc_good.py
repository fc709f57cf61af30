# repro: scope[runtime]
"""Good lock discipline: every CONC rule's happy path in one module."""

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

    def wait_until_set(self):
        with self._cond:
            while self.value == 0:
                self._cond.wait()

    def wait_until_set_predicate(self):
        with self._cond:
            self._cond.wait_for(lambda: self.value != 0)


def _work(x):
    # A pure pool worker: nothing module-level to fork per process.
    return x * 2


def run(pool, xs):
    return [pool.submit(_work, x) for x in xs]
