"""The session's bounded window history.

Windows are ``{"start", "end", "values"}`` dicts of deltas over each
``[start, end)`` span.  When the list reaches ``max_windows`` adjacent
pairs merge: the span runs from the earlier start to the later end and
values sum, so totals survive while early history coarsens.
"""

import pytest

from repro.telemetry import (
    TelemetryConfig,
    TelemetrySession,
    TelemetrySummary,
)
from repro.telemetry.exporters import chrome_trace_events

from .fake_network import FakeNetwork, observe

WINDOW_KEYS = [
    "speculation_attempted", "speculation_won", "speculation_lost",
    "switch_grants", "credit_stall_cycles", "flits_forwarded",
    "packets_routed", "flits_injected", "flits_ejected",
    "buffered_flits_sampled", "occupancy_samples",
]


def windowed(window_cycles, max_windows):
    return TelemetryConfig(
        sample_period=1, window_cycles=window_cycles,
        max_windows=max_windows,
    )


def granting(network, grants):
    """A ``before_step`` that adds ``grants(cycle)`` switch grants."""
    stats = network.routers[0].stats

    def step(cycle):
        stats.sa_grants += grants(cycle)

    return step


class TestWindow:
    def test_rejects_empty_span(self):
        # Finalized exactly on a window boundary: no empty tail window.
        summary = observe(FakeNetwork([0] * 5), windowed(10, 4), 20)
        assert [(w["start"], w["end"]) for w in summary.windows] == [
            (0, 10), (10, 20),
        ]

    def test_rate_is_per_cycle(self):
        summary = TelemetrySummary(
            sample_period=4, window_cycles=100, cycles_observed=100,
            windows=[{"start": 0, "end": 100, "values": {"flits": 25}}],
        )
        (event,) = chrome_trace_events(summary)
        assert event["name"] == "flits"
        assert event["args"]["per_cycle"] == 0.25

    def test_merge_spans_and_sums(self):
        network = FakeNetwork([0] * 5)
        summary = observe(
            network, windowed(10, 2), 20,
            granting(network, lambda cycle: 1 if cycle < 10 else 2),
        )
        (merged,) = summary.windows
        assert (merged["start"], merged["end"]) == (0, 20)
        assert merged["values"]["switch_grants"] == 10 + 20
        assert merged["values"]["occupancy_samples"] == 20

    def test_merge_does_not_mutate_operands(self):
        network = FakeNetwork([0] * 5)
        session = TelemetrySession(windowed(10, 2))
        session.attach(network)
        for _ in range(10):
            network.step(session)
        (first,) = session._windows
        before = dict(first["values"])
        for _ in range(10):
            network.step(session)
        assert len(session._windows) == 1
        assert session._windows[0] is not first
        assert first["values"] == before

    def test_round_trip(self):
        summary = observe(FakeNetwork([0] * 5), windowed(5, 4), 9)
        rebuilt = TelemetrySummary.from_dict(summary.to_dict())
        assert rebuilt.windows == summary.windows
        rebuilt.windows[0]["values"]["switch_grants"] += 1
        assert rebuilt.windows != summary.windows


class TestTimeseries:
    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            TelemetryConfig(max_windows=1)

    def test_compacts_at_capacity(self):
        network = FakeNetwork([0] * 5)
        summary = observe(
            network, windowed(10, 4), 80, granting(network, lambda c: 1)
        )
        # Every flush that reaches max_windows halves the list, so the
        # count stays strictly below the bound.
        assert len(summary.windows) < 4
        grants = sum(w["values"]["switch_grants"] for w in summary.windows)
        assert grants == 80

    def test_compaction_preserves_totals_and_span(self):
        network = FakeNetwork([0] * 5)
        summary = observe(
            network, windowed(1, 2), 100, granting(network, lambda c: c)
        )
        windows = summary.windows
        assert (windows[0]["start"], windows[-1]["end"]) == (0, 100)
        assert all(
            a["end"] == b["start"] for a, b in zip(windows, windows[1:])
        )
        assert sum(w["values"]["occupancy_samples"] for w in windows) == 100
        assert sum(w["values"]["switch_grants"] for w in windows) == sum(
            range(100)
        )

    def test_empty_series_merges_to_none(self):
        # Finalized in the cycle it attached: no span, so no window.
        summary = observe(FakeNetwork([0] * 5), windowed(10, 4), 0)
        assert summary.windows == []
        assert summary.cycles_observed == 0

    def test_to_dicts(self):
        network = FakeNetwork([2, 0, 0, 0, 0])
        summary = observe(
            network, windowed(10, 4), 10, granting(network, lambda c: 1)
        )
        (window,) = summary.windows
        assert list(window) == ["start", "end", "values"]
        assert (window["start"], window["end"]) == (0, 10)
        assert list(window["values"]) == WINDOW_KEYS
        assert window["values"]["switch_grants"] == 10
        assert window["values"]["buffered_flits_sampled"] == 20
