# repro: scope[delaymodel]
"""Seeded PURE bad examples: global writes and I/O."""

_CALLS = 0


def count_call():
    global _CALLS  # PURE001: global rebinding
    _CALLS = _CALLS + 1
    return _CALLS


def dump_table(rows):
    print(rows)  # PURE002: I/O in model code
    with open("table.txt", "w") as handle:  # PURE002
        handle.write(str(rows))
