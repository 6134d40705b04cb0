"""Tenant auth + quota accounting and the Prometheus metrics text."""

import pytest

from repro.service.metrics import CONTENT_TYPE, render_metrics
from repro.service.protocol import ERROR_CODES, ProtocolError
from repro.service.tenants import (
    ANONYMOUS,
    TenantQuota,
    TenantRegistry,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTenantQuota:
    def test_parse_full_spec(self):
        quota = TenantQuota.parse("rate=120,window=60,nodes=500000")
        assert quota == TenantQuota(rate=120, window=60.0,
                                    compile_nodes=500000)

    def test_parse_partial_specs_leave_rest_unlimited(self):
        assert TenantQuota.parse("rate=5") == TenantQuota(rate=5)
        assert TenantQuota.parse("nodes=100").compile_nodes == 100
        assert TenantQuota.parse("").rate is None

    @pytest.mark.parametrize("bad", [
        "rate", "rate=abc", "bogus=1", "rate=0", "window=0",
        "nodes=-1", "window=-2",
    ])
    def test_parse_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            TenantQuota.parse(bad)

    @pytest.mark.parametrize("spec", [
        "window=nan", "window=inf", "window=-inf",
        "window=Infinity", "window=NaN",
    ])
    def test_parse_rejects_non_finite_windows(self, spec):
        """Regression: ``float("nan") <= 0`` is False, so a nan/inf
        window sailed past validation and silently broke rollover
        arithmetic (a nan window never resets; an inf one never
        rolls over)."""
        with pytest.raises(ValueError, match="finite"):
            TenantQuota.parse(spec)

    @pytest.mark.parametrize("field,value", [
        ("rate", float("nan")), ("rate", float("inf")),
        ("window", float("nan")), ("window", float("inf")),
        ("window", float("-inf")),
        ("compile_nodes", float("nan")),
        ("compile_nodes", float("inf")),
    ])
    def test_constructor_rejects_non_finite_fields(self, field,
                                                   value):
        with pytest.raises(ValueError, match="finite"):
            TenantQuota(**{field: value})

    def test_non_finite_window_never_admits_unlimited_rate(self):
        # The end-to-end consequence of the old bug: with
        # window=inf the counter would have never rolled over, and
        # with window=nan it would have rolled over on *every*
        # request, making rate caps unenforceable.
        with pytest.raises(ValueError):
            TenantRegistry(quota=TenantQuota(rate=1,
                                             window=float("nan")))

    def test_as_dict_round_trips_the_fields(self):
        quota = TenantQuota(rate=3, window=10.0, compile_nodes=42)
        assert quota.as_dict() == {"rate": 3, "window": 10.0,
                                   "compile_nodes": 42}


class TestAuthentication:
    def test_open_registry_maps_everyone_to_anonymous(self):
        registry = TenantRegistry()
        assert not registry.auth_enabled
        assert registry.resolve(None) == ANONYMOUS
        assert registry.resolve("whatever") == ANONYMOUS

    def test_known_token_resolves_to_its_tenant(self):
        registry = TenantRegistry({"tok-a": "alice", "tok-b": "bob"})
        assert registry.auth_enabled
        assert registry.resolve("tok-a") == "alice"
        assert registry.resolve("tok-b") == "bob"

    @pytest.mark.parametrize("token", [None, "nope", ""])
    def test_missing_or_unknown_token_is_unauthorized(self, token):
        registry = TenantRegistry({"tok-a": "alice"})
        with pytest.raises(ProtocolError) as info:
            registry.resolve(token)
        assert info.value.code == "unauthorized"
        assert "unauthorized" in ERROR_CODES

    def test_error_message_never_echoes_the_token(self):
        registry = TenantRegistry({"tok-a": "alice"})
        with pytest.raises(ProtocolError) as info:
            registry.resolve("almost-tok-a")
        assert "almost-tok-a" not in info.value.message


class TestRateWindow:
    def make(self, rate=2, window=10.0):
        clock = FakeClock()
        registry = TenantRegistry(
            {"t": "alice"}, TenantQuota(rate=rate, window=window),
            clock=clock)
        return registry, clock

    def test_requests_within_the_rate_pass(self):
        registry, _ = self.make(rate=3)
        for _ in range(3):
            registry.charge_request("alice")

    def test_request_past_the_rate_is_refused(self):
        registry, _ = self.make(rate=2)
        registry.charge_request("alice")
        registry.charge_request("alice")
        with pytest.raises(ProtocolError) as info:
            registry.charge_request("alice")
        assert info.value.code == "quota-exceeded"
        assert "quota-exceeded" in ERROR_CODES

    def test_window_rolls_over(self):
        registry, clock = self.make(rate=2, window=10.0)
        registry.charge_request("alice")
        registry.charge_request("alice")
        with pytest.raises(ProtocolError):
            registry.charge_request("alice")
        # Mid-window: still refused (the refusal did not reset it).
        clock.advance(5.0)
        with pytest.raises(ProtocolError):
            registry.charge_request("alice")
        # Window boundary: the counter resets and a burst is admitted.
        clock.advance(5.0)
        registry.charge_request("alice")
        registry.charge_request("alice")
        with pytest.raises(ProtocolError):
            registry.charge_request("alice")

    def test_refusals_are_counted_per_tenant(self):
        registry, _ = self.make(rate=1)
        registry.charge_request("alice")
        for _ in range(3):
            with pytest.raises(ProtocolError):
                registry.charge_request("alice")
        usage = registry.usage()["alice"]
        assert usage["requests"] == 4
        assert usage["rate_limited"] == 3

    def test_tenants_have_independent_windows(self):
        clock = FakeClock()
        registry = TenantRegistry(
            {"a": "alice", "b": "bob"}, TenantQuota(rate=1, window=10),
            clock=clock)
        registry.charge_request("alice")
        # Alice's spent window must not throttle Bob.
        registry.charge_request("bob")
        with pytest.raises(ProtocolError):
            registry.charge_request("alice")

    def test_no_quota_means_unlimited(self):
        registry = TenantRegistry({"t": "alice"})
        for _ in range(100):
            registry.charge_request("alice")
        assert registry.usage()["alice"]["requests"] == 100


class TestCompileBudget:
    def make(self, nodes=100):
        return TenantRegistry({"t": "alice"},
                              TenantQuota(compile_nodes=nodes))

    def test_spend_under_budget_passes(self):
        registry = self.make(nodes=100)
        registry.check_compile("alice")
        registry.charge_compile("alice", 60)
        registry.check_compile("alice")
        usage = registry.usage()["alice"]
        assert usage["nodes_spent"] == 60 and usage["compiles"] == 1

    def test_crossing_charge_is_recorded_and_refused(self):
        registry = self.make(nodes=100)
        registry.charge_compile("alice", 60)
        # The request that crosses the cap pays for the work it
        # caused (the circuit is cached for everyone) but is refused.
        with pytest.raises(ProtocolError) as info:
            registry.charge_compile("alice", 60)
        assert info.value.code == "quota-exceeded"
        assert registry.usage()["alice"]["nodes_spent"] == 120

    def test_exhausted_budget_fails_fast_before_work(self):
        registry = self.make(nodes=100)
        with pytest.raises(ProtocolError):
            registry.charge_compile("alice", 120)
        with pytest.raises(ProtocolError) as info:
            registry.check_compile("alice")
        assert info.value.code == "quota-exceeded"

    def test_zero_budget_refuses_the_first_compile(self):
        registry = self.make(nodes=0)
        with pytest.raises(ProtocolError):
            registry.check_compile("alice")

    def test_per_tenant_override_replaces_the_default(self):
        registry = TenantRegistry(
            {"a": "alice", "b": "bob"},
            TenantQuota(compile_nodes=1_000_000),
            overrides={"bob": TenantQuota(compile_nodes=10)})
        registry.charge_compile("alice", 500)  # default: fine
        with pytest.raises(ProtocolError):
            registry.charge_compile("bob", 500)
        assert registry.quota_for("bob").compile_nodes == 10
        assert registry.quota_for("alice").compile_nodes == 1_000_000

    def test_usage_reports_the_effective_quota(self):
        registry = TenantRegistry(
            {"a": "alice"}, TenantQuota(rate=7, compile_nodes=99))
        registry.charge_request("alice")
        assert registry.usage()["alice"]["quota"] == {
            "rate": 7, "window": 60.0, "compile_nodes": 99}


def sample_stats():
    return {
        "cache": {"hits": 12, "compiles": 3, "store_hits": 1,
                  "store_misses": 2, "budget_aborts": 1,
                  "tape_hits": 4, "tape_flattens": 2,
                  "tape_kernels": 1, "tape_bytes": 2048, "entries": 3,
                  "store_attached": True},
        "service": {"uptime_seconds": 12.5, "requests": 20, "errors": 2,
                    "ops": {"sweep": 9, "evaluate": 11},
                    "workers": 4, "compile_joins": 1,
                    "workloads_cached": 5, "mean_samples_saved": 0.5,
                    "default_budget_nodes": 250000,
                    "auth_enabled": True},
        "tenants": {
            "alice": {"requests": 15, "rate_limited": 1,
                      "compiles": 2, "nodes_spent": 840,
                      "quota": {"rate": 100, "window": 60.0,
                                "compile_nodes": 1000}},
            "bob": {"requests": 5, "rate_limited": 0, "compiles": 1,
                    "nodes_spent": 60, "quota": None},
        },
    }


class TestMetricsRendering:
    def test_families_have_help_and_type_lines(self):
        text = render_metrics(sample_stats())
        assert "# HELP repro_requests_total " in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 20" in text
        assert "# TYPE repro_uptime_seconds gauge" in text

    def test_op_and_tenant_labels(self):
        text = render_metrics(sample_stats())
        assert 'repro_op_requests_total{op="sweep"} 9' in text
        assert 'repro_tenant_requests_total{tenant="alice"} 15' in text
        assert 'repro_tenant_rate_limited_total{tenant="alice"} 1' \
            in text
        assert 'repro_tenant_compile_nodes_total{tenant="bob"} 60' \
            in text

    def test_cache_counters_rendered(self):
        text = render_metrics(sample_stats())
        assert "repro_cache_hits_total 12" in text
        assert "repro_budget_aborts_total 1" in text
        assert "repro_tape_flattens_total 2" in text
        assert "repro_tape_kernels_total 1" in text

    def test_uncurated_numerics_fall_through_as_gauges(self):
        text = render_metrics(sample_stats())
        assert 'repro_service_info{key="workers"} 4' in text
        assert 'repro_cache_info{key="tape_bytes"} 2048' in text
        # Booleans are not numeric samples.
        assert "store_attached" not in text
        assert "auth_enabled" not in text

    def test_label_values_are_escaped(self):
        stats = sample_stats()
        stats["tenants"] = {'we"ird\\name': {"requests": 1}}
        text = render_metrics(stats)
        assert 'tenant="we\\"ird\\\\name"' in text

    def test_every_sample_line_parses(self):
        for line in render_metrics(sample_stats()).splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP repro_",
                                        "# TYPE repro_"))
                continue
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels.startswith("repro_")
            float(value)  # every exposed value must be a number

    def test_deterministic_and_newline_terminated(self):
        a = render_metrics(sample_stats())
        b = render_metrics(sample_stats())
        assert a == b and a.endswith("\n")

    def test_empty_stats_render_to_empty_exposition(self):
        assert render_metrics({}) == "\n"

    def test_content_type_names_the_exposition_format(self):
        assert CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in CONTENT_TYPE
