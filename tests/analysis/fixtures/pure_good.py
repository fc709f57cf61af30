# repro: scope[delaymodel]
"""Seeded PURE good examples: pure computation, no I/O."""

TAU_FO4 = 5.0


def gate_delay(logical_effort, fanout):
    return logical_effort * fanout + TAU_FO4


def describe(rows):
    return "\n".join(str(row) for row in rows)  # returns text, no I/O
