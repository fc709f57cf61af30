"""The analytical estimator: shape, purity, and paper anchors."""

import dataclasses
import math

import pytest

from repro.sim.config import RouterKind, SimConfig
from repro.surrogate import (
    DEFAULT_COEFFICIENTS,
    SurrogateCoefficients,
    class_key,
    default_saturation,
    estimate,
    estimate_curve,
    predicted_saturation,
    service_time,
)


def _config(kind=RouterKind.SPECULATIVE_VC, **overrides):
    overrides.setdefault("num_vcs", 2 if kind.uses_vcs else 1)
    overrides.setdefault("injection_fraction", 0.1)
    overrides.setdefault("seed", 1)
    return SimConfig(router_kind=kind, mesh_radix=4, **overrides)


ALL_KINDS = list(RouterKind)


class TestServiceTime:
    def test_pipeline_depths_match_simulated_routers(self):
        # The per-hop depths EQ 1 prescribes and the simulator
        # implements: 3 for wormhole-datapath routers, 4 for the
        # non-speculative VC router, 1 for the unit-latency baselines.
        depths = {
            kind: service_time(_config(kind)).per_hop_cycles
            for kind in ALL_KINDS
        }
        assert depths[RouterKind.WORMHOLE] == 3
        assert depths[RouterKind.VIRTUAL_CUT_THROUGH] == 3
        assert depths[RouterKind.VIRTUAL_CHANNEL] == 4
        assert depths[RouterKind.SPECULATIVE_VC] == 3
        assert depths[RouterKind.SINGLE_CYCLE_WORMHOLE] == 1
        assert depths[RouterKind.SINGLE_CYCLE_VC] == 1

    def test_va_extra_cycles_deepen_the_hop(self):
        base = service_time(_config())
        deeper = service_time(_config(va_extra_cycles=2))
        assert deeper.per_hop_cycles == base.per_hop_cycles + 2

    def test_credit_loop_matches_config_documentation(self):
        # SimConfig's docstring derives the credit loop per router
        # type: wormhole 5, non-speculative VC 6, single-cycle 3.
        assert service_time(
            _config(RouterKind.WORMHOLE)
        ).credit_loop_cycles == 5
        assert service_time(
            _config(RouterKind.VIRTUAL_CHANNEL)
        ).credit_loop_cycles == 6
        assert service_time(
            _config(RouterKind.SINGLE_CYCLE_WORMHOLE)
        ).credit_loop_cycles == 3

    def test_footnote_15_shallow_buffer_stall(self):
        # The paper's footnote 15: a speculative router with 4-flit
        # buffers cannot cover its 5-cycle credit loop, costing one
        # extra cycle per 5-flit packet; 8-flit buffers cover it.
        deep = service_time(_config(buffers_per_vc=8))
        shallow = service_time(_config(buffers_per_vc=4))
        assert deep.credit_stall_cycles == 0.0
        assert shallow.credit_stall_cycles == pytest.approx(1.0)


class TestEstimateProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_monotone_in_load(self, kind):
        # More offered load never predicts less latency.
        config = _config(kind)
        saturation = default_saturation(config)
        loads = [saturation * f for f in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
        curve = estimate_curve(config, loads)
        latencies = [point.latency_cycles for point in curve]
        assert latencies == sorted(latencies)
        assert all(
            b > a for a, b in zip(latencies, latencies[1:])
        ), latencies

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pure_function_of_config_and_load(self, kind):
        config = _config(kind)
        before = dataclasses.replace(config)
        first = estimate(config, 0.3)
        second = estimate(config, 0.3)
        assert first == second
        assert config == before  # the config is never mutated

    def test_load_defaults_to_config_injection_fraction(self):
        config = _config(injection_fraction=0.25)
        assert estimate(config) == estimate(config, 0.25)

    def test_breakdown_sums_to_total(self):
        point = estimate(_config(), 0.3)
        assert point.breakdown.total_cycles == pytest.approx(
            point.latency_cycles
        )

    def test_zero_load_has_no_contention(self):
        point = estimate(_config(), 0.0)
        assert point.breakdown.contention_cycles == 0.0
        assert point.latency_cycles == point.zero_load_cycles

    def test_saturated_beyond_saturation_load(self):
        config = _config()
        saturation = default_saturation(config)
        point = estimate(config, saturation * 1.1)
        assert point.saturated
        assert math.isinf(point.latency_cycles)
        # Throughput caps at the saturation load.
        assert point.throughput_fraction == pytest.approx(saturation)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            estimate(_config(), -0.1)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            SurrogateCoefficients(contention_scale=-1.0)
        with pytest.raises(ValueError):
            SurrogateCoefficients(saturation_load=0.0)

    def test_to_dict_is_json_shaped(self):
        payload = estimate(_config(), 0.95).to_dict()
        assert payload["latency_cycles"] is None  # inf -> None
        assert payload["saturated"] is True
        assert set(payload["breakdown"]) == {
            "router_cycles", "link_cycles", "serialization_cycles",
            "credit_cycles", "contention_cycles", "offset_cycles",
        }


class TestPredictedSaturation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_knee_is_where_latency_triples(self, kind):
        # predicted_saturation solves L(x) = 3 * L(0) in closed form;
        # evaluating the estimate there must reproduce the crossing.
        config = _config(kind)
        knee = predicted_saturation(config)
        zero = estimate(config, 0.0).latency_cycles
        at_knee = estimate(config, knee).latency_cycles
        assert at_knee == pytest.approx(3.0 * zero, rel=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_pass_estimate_equals_its_parts_to_the_bit(self, kind):
        # estimate() computes the service time, zero-load total and knee
        # once; each must equal, exactly, the public function or the
        # zero-contention breakdown that derives it on its own (digests
        # and calibration fits are over exact floats).
        fitted = SurrogateCoefficients(
            zero_load_offset=1.37, contention_scale=0.81,
            saturation_load=0.47, credit_weight=1.9,
        )
        for coefficients in (DEFAULT_COEFFICIENTS, fitted):
            config = _config(kind, buffers_per_vc=2)
            point = estimate(config, 0.23, coefficients)
            assert point.predicted_saturation == predicted_saturation(
                config, coefficients
            )
            assert point.service == service_time(config, coefficients)
            assert point.zero_load_cycles == dataclasses.replace(
                point.breakdown, contention_cycles=0.0
            ).total_cycles
            assert point.zero_load_cycles == estimate(
                config, 0.0, coefficients
            ).latency_cycles

    def test_knee_below_hard_saturation(self):
        config = _config()
        assert predicted_saturation(config) < default_saturation(config)

    def test_zero_contention_degenerates_to_saturation_bound(self):
        config = _config()
        flat = SurrogateCoefficients(contention_scale=0.0)
        assert predicted_saturation(config, flat) == pytest.approx(
            default_saturation(config)
        )

    def test_latency_multiple_must_exceed_one(self):
        with pytest.raises(ValueError):
            predicted_saturation(_config(), latency_multiple=1.0)


class TestClassKey:
    def test_load_and_seed_are_not_part_of_the_class(self):
        a = _config(injection_fraction=0.1, seed=1)
        b = _config(injection_fraction=0.7, seed=99)
        assert class_key(a) == class_key(b)

    def test_structural_knobs_are(self):
        base = _config()
        assert class_key(base) != class_key(_config(buffers_per_vc=4))
        assert class_key(base) != class_key(
            _config(RouterKind.VIRTUAL_CHANNEL)
        )

    def test_torus_halves_default_saturation(self):
        mesh = _config(RouterKind.VIRTUAL_CHANNEL)
        torus = _config(RouterKind.VIRTUAL_CHANNEL, topology="torus")
        assert default_saturation(torus) == pytest.approx(
            default_saturation(mesh) / 2
        )

    def test_default_coefficients_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_COEFFICIENTS.contention_scale = 2.0
