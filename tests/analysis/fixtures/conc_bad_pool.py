# repro: scope[runtime]
"""CONC004: a mutable module global mutated by a pool worker entry."""

_CACHE = {}


def _work(x):
    _CACHE[x] = x * 2  # forks silently per worker process
    return _CACHE[x]


def run(pool, xs):
    return [pool.submit(_work, x) for x in xs]
