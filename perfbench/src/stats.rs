//! Order statistics and the metric report the benchmark prints.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1
}

/// Value at percentile `pct` of ascending `sorted` samples (nearest
/// rank); NaN when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct)]
}

/// Samples strictly beyond the nearest-rank position of `pct`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, pct)
}

/// The highest of `candidates` (percentiles, any order) that still has
/// at least ten samples beyond it, with its value and the sample count:
/// a tail quantile reported from fewer than ten points is one outlier.
/// `None` when even the lowest candidate lacks ten samples beyond it.
pub fn tail_percentile(sorted: &[f64], candidates: &[f64]) -> Option<(f64, f64, usize)> {
    let mut cands = candidates.to_vec();
    cands.sort_by(|a, b| b.total_cmp(a));
    cands
        .into_iter()
        .find(|&p| samples_beyond(sorted.len(), p) >= 10)
        .map(|p| (p, percentile(sorted, p), sorted.len()))
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a legal unit: `[A-Za-z0-9_/%.-]{1,16}`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The metrics a `--trace 0` run reports, with their units. The names
/// are an interface: later changes claim gains against them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_packet", "us"),
    ("auc", "ratio"),
    ("eer", "ratio"),
    ("bytes_per_flow", "B"),
    ("peak_rss_mb", "MiB"),
];

/// The metrics a `--trace 1` run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.connections", "count"),
    ("corpus.records", "count"),
    ("corpus.attack_share", "ratio"),
    ("corpus.flows", "count"),
    ("latency.samples", "count"),
    ("latency.tail_pct", "%"),
    ("latency.tail_us", "us"),
    ("failed_share", "ratio"),
    ("trace.untraced_pps", "1/s"),
    ("trace.traced_pps", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.layer_sum_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.clock_ns", "ns"),
    ("net-packet.parse_ns_per_record", "ns"),
    ("net-packet.rejected", "count"),
    ("net-packet.reassembled", "count"),
    ("tcp-state.track_ns_per_packet", "ns"),
    ("features.extract_ns_per_packet", "ns"),
    ("neural.gru_step_ns", "ns"),
    ("neural.ae_window_ns", "ns"),
    ("neural.ae_windows_per_packet", "ratio"),
    ("neural.kernel_dot4_ns", "ns"),
    ("neural.kernel_dot4_i8_ns", "ns"),
    ("neural.kernel_encode_dot4_ns", "ns"),
    ("stream.push_ns", "ns"),
    ("stream.unattributed_ns_per_packet", "ns"),
    ("stream.sweep_push_ns", "ns"),
    ("stream.finalize_push_ns", "ns"),
    ("stream.finish_ms", "ms"),
    ("stream.push_max_us", "us"),
    ("stream.flows_peak", "count"),
    ("stream.evicted_idle", "count"),
    ("stream.evicted_capacity", "count"),
    ("stream.closed_tcp", "count"),
    ("stream.drained", "count"),
    ("tail.oncpu_share", "ratio"),
    ("tail.max_push_oncpu_share", "ratio"),
    ("sched.involuntary_switches", "count"),
    ("shard.workers", "count"),
    ("shard.dispatch_ns_per_packet", "ns"),
    ("shard.full_waits", "count"),
    ("shard.merge_ms", "ms"),
    ("shard.dispatcher_cpu_s", "s"),
    ("shard.worker_cpu_s", "s"),
    ("shard.pushed", "count"),
    ("shard.scored", "count"),
    ("shard.dropped", "count"),
    ("shard.quarantined", "count"),
    ("shard.pushed_max_share", "ratio"),
    ("wire.verdict_encode_ns", "ns"),
    ("wire.verdicts", "count"),
    ("setup.corpus_s", "s"),
    ("setup.train_s", "s"),
    ("setup.pcap_encode_s", "s"),
];

/// Measurements against a schema of names and units, in schema order.
pub struct Report {
    schema: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Report {
    /// An empty report over `schema`. Panics on an illegal name or
    /// unit.
    pub fn new(schema: &'static [(&'static str, &'static str)]) -> Report {
        for (name, unit) in schema {
            assert!(valid_name(name), "illegal metric name `{name}`");
            assert!(valid_unit(unit), "illegal unit `{unit}` for `{name}`");
        }
        Report {
            schema,
            values: vec![None; schema.len()],
        }
    }

    /// Records one metric. Panics on a name outside the schema, a
    /// repeated name or a non-finite value — a report that cannot be
    /// printed faithfully must not be printed at all.
    pub fn put(&mut self, name: &str, value: f64) {
        let i = self
            .schema
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the schema"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(self.values[i].is_none(), "metric `{name}` recorded twice");
        self.values[i] = Some(value);
    }

    /// Schema metrics not recorded yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.schema
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|((n, _), _)| *n)
            .collect()
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// every recorded metric as `{"value": v, "unit": u}`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let recorded = self
            .schema
            .iter()
            .zip(&self.values)
            .filter_map(|(s, v)| Some((s, (*v)?)));
        for (i, ((name, unit), value)) in recorded.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest exact round-trip form of an f64.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 leaves exactly 10 beyond it; p99.9 only 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
        assert_eq!(
            tail_percentile(&sorted, &[50.0, 99.9, 99.0, 90.0]),
            Some((99.0, 990.0, 1000))
        );
        // 999 samples: p99 leaves 9 beyond, so p90 is the highest valid.
        let short = &sorted[..999];
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(
            tail_percentile(short, &[99.0, 90.0, 50.0]),
            Some((90.0, 900.0, 999))
        );
        assert_eq!(tail_percentile(&sorted[..10], &[50.0, 99.0]), None);
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn names_and_units_are_checked() {
        for ok in [
            "pps",
            "latency_p99_us",
            "net-packet.parse_ns_per_record",
            "shard.0.pushed",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "a/b", "a\"b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn every_metric_has_a_legal_unique_name_and_a_unit() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "illegal metric name `{name}`");
            assert!(valid_unit(unit), "illegal unit `{unit}` for `{name}`");
        }
        for (i, (name, _)) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|(n, _)| n != name),
                "`{name}` is listed twice"
            );
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let flat: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            flat.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the benchmark does not emit"
        );
    }

    #[test]
    fn report_json_carries_every_metric_with_its_unit() {
        let mut r = Report::new(&[("pps", "1/s"), ("setup_s", "s"), ("eer", "ratio")]);
        r.put("setup_s", 0.8127);
        r.put("pps", 1234.5);
        assert_eq!(r.missing(), vec!["eer"]);
        assert_eq!(
            r.to_json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"pps\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn report_rejects_duplicate_names() {
        let mut r = Report::new(END_TO_END);
        r.put("pps", 1.0);
        r.put("pps", 2.0);
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn report_rejects_unknown_names() {
        Report::new(END_TO_END).put("neural.gru_step_ns", 1.0);
    }
}
