"""Tests for the Prometheus-style text exposition and its validator."""

import pytest

from repro.obs import MetricsRegistry, render_text, validate_text


def _demo_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("packets_total", help="Packets seen", shard=0).inc(5)
    reg.counter("packets_total", shard=1).inc(7)
    reg.gauge("pending_flows", help="Flows buffering", reader=lambda: 3)
    h = reg.histogram("delay_seconds", buckets=(0.01, 0.1), help="Delay")
    h.observe(0.005)
    h.observe(0.05)
    h.observe(2.0)
    return reg


class TestRenderText:
    def test_help_and_type_comments(self):
        text = render_text(_demo_registry())
        assert "# HELP packets_total Packets seen" in text
        assert "# TYPE packets_total counter" in text
        assert "# TYPE pending_flows gauge" in text
        assert "# TYPE delay_seconds histogram" in text

    def test_labeled_samples(self):
        text = render_text(_demo_registry())
        assert 'packets_total{shard="0"} 5' in text
        assert 'packets_total{shard="1"} 7' in text

    def test_histogram_expansion_cumulative(self):
        lines = render_text(_demo_registry()).splitlines()
        buckets = [l for l in lines if l.startswith("delay_seconds_bucket")]
        assert buckets == [
            'delay_seconds_bucket{le="0.01"} 1',
            'delay_seconds_bucket{le="0.1"} 2',
            'delay_seconds_bucket{le="+Inf"} 3',
        ]
        assert "delay_seconds_count 3" in lines
        # Sum renders as a float repr.
        assert any(l.startswith("delay_seconds_sum 2.055") for l in lines)

    def test_inf_bucket_equals_count(self):
        lines = render_text(_demo_registry()).splitlines()
        inf = next(l for l in lines if 'le="+Inf"' in l)
        count = next(l for l in lines if l.startswith("delay_seconds_count"))
        assert inf.rsplit(" ", 1)[1] == count.rsplit(" ", 1)[1]

    def test_empty_registry_renders_empty(self):
        assert render_text(MetricsRegistry()) == ""

    def test_ends_with_newline(self):
        assert render_text(_demo_registry()).endswith("\n")

    def test_label_values_are_escaped(self):
        """A quote, a backslash and a newline, per text format 0.0.4."""
        reg = MetricsRegistry()
        reg.counter("ingest_packets_total", source='pcap:cap"1\\x\n.pcap').inc(50)
        text = render_text(reg)
        assert (
            'ingest_packets_total{source="pcap:cap\\"1\\\\x\\n.pcap"} 50\n'
            in text
        )
        assert validate_text(text) == 1


class TestValidateText:
    def test_round_trip(self):
        text = render_text(_demo_registry())
        # 2 counter + 1 gauge + (3 buckets + sum + count) = 8 samples.
        assert validate_text(text) == 8

    def test_accepts_blank_lines(self):
        assert validate_text("a_total 1\n\nb_total 2\n") == 2

    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_text("no value here\n")

    def test_rejects_malformed_comment(self):
        with pytest.raises(ValueError, match="malformed comment"):
            validate_text("# BOGUS widget counter\n")

    def test_rejects_bad_label_syntax(self):
        with pytest.raises(ValueError, match="line 1"):
            validate_text('metric{unquoted=3} 1\n')

    @pytest.mark.parametrize(
        "labels", ['a="x"y"', 'a="x\\"', 'a="x\\t"'],
        ids=["bare-quote", "dangling-backslash", "unknown-escape"],
    )
    def test_rejects_unescaped_label_values(self, labels):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_text(f"metric{{{labels}}} 1\n")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="malformed sample"):
            validate_text("metric abc\n")

    def test_accepts_special_values(self):
        assert validate_text("a +Inf\nb -Inf\nc NaN\nd 1e-3\n") == 4

    def test_error_names_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            validate_text("good_total 1\nbad line\n")
