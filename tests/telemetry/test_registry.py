"""Counters, gauges and histograms as the summary mapping holds them.

A session records plain numbers into ``TelemetrySummary.metrics``
(rendered name -> payload); these cases pin what lands there and how
two summaries merge it.  Session-level cases drive a
:class:`~tests.telemetry.fake_network.FakeNetwork` whose VC occupancies
are set by hand.
"""

import csv

import pytest

from repro.telemetry import TelemetryConfig, TelemetrySummary, exporters

from .fake_network import FakeNetwork, observe

BUCKETS = [0, 1, 2, 4, 8, 16, 32]

EVERY_CYCLE = TelemetryConfig(sample_period=1, window_cycles=64)


def summary_of(metrics, windows=()):
    return TelemetrySummary(
        sample_period=4, window_cycles=64, cycles_observed=10,
        metrics=metrics, windows=list(windows),
    )


def counter(value):
    return {"kind": "counter", "value": value}


def gauge(*values):
    """The payload of a gauge set to each of ``values`` in turn."""
    return {
        "kind": "gauge", "value": values[-1] if values else 0.0,
        "samples": len(values), "total": float(sum(values)),
        "minimum": min(values) if values else None,
        "maximum": max(values) if values else None,
    }


def histogram(counts, total=0.0, bounds=BUCKETS):
    return {
        "kind": "histogram", "bounds": list(bounds), "counts": list(counts),
        "total": total, "observations": sum(counts),
    }


class TestCounter:
    def test_inc_accumulates(self):
        network = FakeNetwork([0] * 5)
        stats = network.routers[0].stats

        def grant(cycle):
            stats.sa_grants += 1 if cycle == 0 else 4

        summary = observe(network, EVERY_CYCLE, 2, grant)
        assert summary.value("switch_grants") == 5
        assert summary.value("occupancy_samples") == 2
        assert summary.metrics["switch_grants"] == counter(5)

    def test_merge_sums(self):
        a = summary_of({"x": counter(3)})
        a.merge(summary_of({"x": counter(4)}))
        assert a.value("x") == 7


class TestGauge:
    def test_tracks_extrema_and_mean(self):
        network = FakeNetwork([0] * 5)
        router = network.routers[0]

        def buffer(cycle):
            router.set_occupancy([(3, 1, 7)[cycle], 0, 0, 0, 0])

        summary = observe(network, EVERY_CYCLE, 3, buffer)
        backlog = summary.metrics["network_buffered_flits"]
        assert backlog["value"] == 7  # last write
        assert backlog["minimum"] == 1
        assert backlog["maximum"] == 7
        assert backlog["total"] / backlog["samples"] == pytest.approx(11 / 3)
        assert summary.peak_vc_occupancy == 7
        assert summary.metrics["active_routers"] == gauge(1, 1, 1)

    def test_empty_gauge_mean_is_zero(self, tmp_path):
        # A run shorter than one sample period records no gauge at all.
        summary = observe(
            FakeNetwork([1] * 5), TelemetryConfig(sample_period=4), 3
        )
        assert "network_buffered_flits" not in summary.metrics
        assert summary.peak_vc_occupancy == 0.0
        assert summary.mean_vc_occupancy == 0.0
        # An unsampled gauge (a merge can carry one) exports mean 0.0.
        path = exporters.export_csv(
            summary_of({"g": gauge()}), tmp_path / "g.csv"
        )
        with path.open() as handle:
            (row,) = csv.DictReader(handle)
        assert row["mean"] == "0.0"
        assert row["min"] == row["max"] == ""

    def test_merge_combines_extrema(self):
        a = summary_of({"g": gauge(5)})
        a.merge(summary_of({"g": gauge(1, 9)}))
        merged = a.metrics["g"]
        assert merged["minimum"] == 1
        assert merged["maximum"] == 9
        assert merged["samples"] == 3
        assert merged["total"] == 15.0
        assert merged["value"] == 9  # other is the later writer

    def test_merge_with_unsampled_gauge_keeps_extrema(self):
        a = summary_of({"g": gauge(5)})
        a.merge(summary_of({"g": gauge()}))
        assert a.metrics["g"]["minimum"] == 5
        assert a.metrics["g"]["maximum"] == 5
        # ... and an unsampled side takes the sampled side's extrema.
        b = summary_of({"g": gauge()})
        b.merge(summary_of({"g": gauge(5)}))
        assert b.metrics["g"]["minimum"] == 5
        assert b.metrics["g"]["maximum"] == 5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        # counts[i] tallies (bounds[i-1], bounds[i]]; the final slot is
        # the +inf overflow.
        network = FakeNetwork([0, 1, 2, 3, 5], [8, 9, 16, 33, 100])
        summary = observe(network, EVERY_CYCLE, 1)
        occupancy = summary.metrics["vc_buffer_occupancy"]
        assert occupancy["bounds"] == BUCKETS
        assert occupancy["counts"] == [1, 1, 1, 1, 2, 2, 0, 2]
        assert occupancy["observations"] == 10
        assert occupancy["total"] == 177.0
        assert summary.mean_vc_occupancy == pytest.approx(17.7)
        assert "idle_router_samples" not in summary.metrics

    def test_weighted_observation(self):
        # A sleeping router counts as one zero observation per input VC
        # (5 ports x 2 VCs) without its VCs being read.
        network = FakeNetwork(None, None, [4] * 10, num_vcs=2)
        summary = observe(network, EVERY_CYCLE, 1)
        occupancy = summary.metrics["vc_buffer_occupancy"]
        assert occupancy["counts"][0] == 20
        assert occupancy["counts"][3] == 10
        assert occupancy["observations"] == 30
        assert occupancy["total"] == 40.0
        assert summary.value("idle_router_samples") == 2

    def test_merge_requires_equal_bounds(self):
        a = summary_of({"h": histogram([0, 0, 0], bounds=(0, 1))})
        b = summary_of({"h": histogram([0, 0, 0], bounds=(0, 2))})
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_sums_buckets(self):
        a = summary_of({"h": histogram([0, 1, 0, 0, 0, 0, 0, 0], 1.0)})
        a.merge(summary_of({
            "h": histogram([0, 1, 0, 0, 0, 0, 0, 1], 51.0),
        }))
        merged = a.metrics["h"]
        assert merged["observations"] == 3
        assert merged["counts"][-1] == 1  # the 50 landed above the last bound
        assert merged["total"] == 52.0


class TestRegistry:
    def test_items_render_labels(self):
        summary = observe(FakeNetwork([0] * 5), EVERY_CYCLE, 1)
        assert "crossbar_traversals{port=east}" in summary.metrics
        assert "link_cycles{port=local}" in summary.metrics

    def test_labels_distinguish_metrics(self):
        summary = summary_of({
            "flits{port=east}": counter(2), "flits{port=west}": counter(3),
        })
        assert summary.value("flits", port="east") == 2
        assert summary.value("flits", port="west") == 3
        assert summary.value("flits") == 0.0  # unlabeled is distinct

    def test_label_order_is_canonical(self):
        summary = summary_of({"m{a=1,b=2}": counter(1)})
        assert summary.value("m", b=2, a=1) == 1

    def test_round_trip(self):
        summary = summary_of(
            {
                "c{node=3}": counter(7), "g": gauge(2.5),
                "h": histogram([0, 0, 0, 1, 0, 0, 0, 0], 3.0),
            },
            windows=[{"start": 0, "end": 10, "values": {"a": 1}}],
        )
        rebuilt = TelemetrySummary.from_dict(summary.to_dict())
        assert rebuilt.to_dict() == summary.to_dict()
        assert rebuilt == summary
        assert rebuilt.value("c", node=3) == 7
        assert rebuilt.metrics["h"]["bounds"] == BUCKETS

    def test_merge_sums_and_copies(self):
        a = summary_of({"shared": counter(1)})
        b = summary_of({
            "shared": counter(2), "only_b": counter(5),
            "h": histogram([1, 0, 0, 0, 0, 0, 0, 0]),
        })
        a.merge(b)
        assert a.value("shared") == 3
        assert a.value("only_b") == 5
        # The copied metrics are independent of the source summary.
        b.metrics["only_b"]["value"] += 100
        b.metrics["h"]["counts"][0] += 100
        assert a.value("only_b") == 5
        assert a.metrics["h"]["counts"][0] == 1
