//! A named metrics registry: counters, gauges, labelled histograms.
//!
//! Producers register metrics by name (stable, dot-separated paths like
//! `sim.stall.pb` or `engine.memo_hits`) and update them by handle or by
//! name. Consumers snapshot the registry, diff two snapshots to get a
//! per-window delta, and serialize to JSON for `results/` artifacts.
//!
//! Determinism: metrics keep registration order, so serialized output is
//! stable for a fixed program — no hash-map iteration order leaks into
//! artifacts.

use crate::json::Value;
use std::fmt;

/// The value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing event count.
    Counter(u64),
    /// Last-write-wins measurement (occupancy, ratio, wall time).
    Gauge(f64),
    /// Labelled buckets (e.g. region-size distribution). Labels are fixed at
    /// registration; counts accumulate.
    Histogram(Vec<(String, u64)>),
}

/// Handle returned by registration; updates through a handle skip the name
/// lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// Why a fallible registry update was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveError {
    /// The handle refers to a counter or gauge, not a histogram.
    NotHistogram,
    /// The bucket index is past the histogram's registered labels.
    BucketOutOfRange {
        /// Requested bucket index.
        bucket: usize,
        /// Number of buckets the histogram was registered with.
        len: usize,
    },
}

impl fmt::Display for ObserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserveError::NotHistogram => write!(f, "observe on non-histogram metric"),
            ObserveError::BucketOutOfRange { bucket, len } => {
                write!(f, "bucket {bucket} out of range for {len}-bucket histogram")
            }
        }
    }
}

impl std::error::Error for ObserveError {}

/// An ordered, name-unique collection of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: Vec<(String, MetricValue)>,
}

/// A point-in-time copy of a registry (used for deltas).
pub type Snapshot = Registry;

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.metrics.iter().position(|(n, _)| n == name)
    }

    fn register(&mut self, name: &str, init: MetricValue) -> MetricId {
        match self.find(name) {
            Some(i) => MetricId(i),
            None => {
                self.metrics.push((name.to_string(), init));
                MetricId(self.metrics.len() - 1)
            }
        }
    }

    /// Register a counter (idempotent; an existing metric keeps its value).
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, MetricValue::Counter(0))
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.register(name, MetricValue::Gauge(0.0))
    }

    /// Register a histogram with fixed bucket labels.
    pub fn histogram(&mut self, name: &str, labels: &[&str]) -> MetricId {
        self.register(
            name,
            MetricValue::Histogram(labels.iter().map(|l| ((*l).to_string(), 0)).collect()),
        )
    }

    /// Add `n` to a counter by handle.
    ///
    /// # Panics
    /// Panics if the handle does not refer to a counter.
    pub fn add(&mut self, id: MetricId, n: u64) {
        match &mut self.metrics[id.0].1 {
            MetricValue::Counter(c) => *c += n,
            other => panic!("add on non-counter metric: {other:?}"),
        }
    }

    /// Set a gauge by handle.
    ///
    /// # Panics
    /// Panics if the handle does not refer to a gauge.
    pub fn set(&mut self, id: MetricId, v: f64) {
        match &mut self.metrics[id.0].1 {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("set on non-gauge metric: {other:?}"),
        }
    }

    /// Add `n` to histogram bucket `bucket` by handle.
    ///
    /// Unlike [`Registry::add`]/[`Registry::set`], this is fallible: the
    /// bucket index typically comes from runtime data (a measured latency or
    /// region size mapped onto labels), so a mismatch is an input problem,
    /// not a programming error, and callers get an [`ObserveError`] instead
    /// of a panic.
    pub fn observe(&mut self, id: MetricId, bucket: usize, n: u64) -> Result<(), ObserveError> {
        match &mut self.metrics[id.0].1 {
            MetricValue::Histogram(b) => match b.get_mut(bucket) {
                Some(slot) => {
                    slot.1 += n;
                    Ok(())
                }
                None => Err(ObserveError::BucketOutOfRange {
                    bucket,
                    len: b.len(),
                }),
            },
            _ => Err(ObserveError::NotHistogram),
        }
    }

    /// Register-and-add convenience for one-shot publishers.
    pub fn add_counter(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.add(id, n);
    }

    /// Register-and-set convenience for one-shot publishers.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let id = self.gauge(name);
        self.set(id, v);
    }

    /// Register-and-fill a histogram in one call (labels and counts zipped).
    pub fn set_histogram(&mut self, name: &str, labels: &[&str], counts: &[u64]) {
        assert_eq!(labels.len(), counts.len(), "{name}: label/count mismatch");
        let id = self.histogram(name, labels);
        if let MetricValue::Histogram(b) = &mut self.metrics[id.0].1 {
            for (slot, &n) in b.iter_mut().zip(counts) {
                slot.1 += n;
            }
        }
    }

    /// Look up a metric's current value by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.find(name).map(|i| &self.metrics[i].1)
    }

    /// A counter's value by name (0-returning convenience for reports).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A gauge's value by name.
    pub fn gauge_value(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(MetricValue::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    /// Iterate metrics in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> Snapshot {
        self.clone()
    }

    /// The change since `earlier`: counters and histogram buckets subtract
    /// (saturating, so a restarted producer degrades to zeros rather than
    /// wrapping); gauges keep their latest value. Metrics absent from
    /// `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &Snapshot) -> Registry {
        let mut out = Registry::new();
        for (name, v) in &self.metrics {
            let d = match (v, earlier.get(name)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                    MetricValue::Histogram(
                        now.iter()
                            .map(|(l, n)| {
                                let before = then
                                    .iter()
                                    .find(|(tl, _)| tl == l)
                                    .map(|(_, tn)| *tn)
                                    .unwrap_or(0);
                                (l.clone(), n.saturating_sub(before))
                            })
                            .collect(),
                    )
                }
                (v, _) => v.clone(),
            };
            out.metrics.push((name.clone(), d));
        }
        out
    }

    /// Merge `other` into `self`: counters and matching histogram buckets
    /// add, gauges take `other`'s value, unknown metrics append.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.metrics {
            match (self.find(name), v) {
                (Some(i), MetricValue::Counter(n)) => {
                    if let MetricValue::Counter(c) = &mut self.metrics[i].1 {
                        *c += n;
                    }
                }
                (Some(i), MetricValue::Gauge(g)) => {
                    if let MetricValue::Gauge(slot) = &mut self.metrics[i].1 {
                        *slot = *g;
                    }
                }
                (Some(i), MetricValue::Histogram(buckets)) => {
                    if let MetricValue::Histogram(mine) = &mut self.metrics[i].1 {
                        for (l, n) in buckets {
                            if let Some(slot) = mine.iter_mut().find(|(ml, _)| ml == l) {
                                slot.1 += n;
                            }
                        }
                    }
                }
                (None, v) => self.metrics.push((name.clone(), v.clone())),
            }
        }
    }

    /// Serialize as a JSON object in registration order:
    /// `{"name": 3, "gauge": 0.5, "hist": {"1-4": 2, ...}}`.
    pub fn to_json(&self) -> String {
        let fields = self.metrics.iter().map(|(name, v)| {
            let v = match v {
                MetricValue::Counter(n) => Value::Int(*n),
                MetricValue::Gauge(g) => Value::Float(*g),
                MetricValue::Histogram(buckets) => Value::Obj(
                    buckets
                        .iter()
                        .map(|(l, n)| (l.clone(), Value::Int(*n)))
                        .collect(),
                ),
            };
            (name.clone(), v)
        });
        Value::Obj(fields.collect()).to_pretty()
    }

    /// Render the registry in the OpenMetrics / Prometheus text exposition
    /// format, so harness metrics are scrapeable by standard tooling.
    ///
    /// Dotted metric names are sanitized to `[a-zA-Z0-9_:]` (dots become
    /// underscores). Counters get the conventional `_total` suffix, gauges
    /// are emitted verbatim, and labelled histograms — whose buckets are
    /// categorical, not cumulative `le` thresholds — are exposed as a
    /// counter family with a `bucket` label. Output ends with the mandatory
    /// `# EOF` terminator.
    pub fn render_openmetrics(&self) -> String {
        use std::fmt::Write as _;
        fn sanitize(name: &str) -> String {
            let mut s: String = name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                s.insert(0, '_');
            }
            s
        }
        fn escape_label(out: &mut String, v: &str) {
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
        }
        let mut out = String::new();
        for (name, v) in &self.metrics {
            let n = sanitize(name);
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {n} counter");
                    let _ = writeln!(out, "{n}_total {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {n} gauge");
                    if g.is_finite() {
                        let _ = writeln!(out, "{n} {g}");
                    } else {
                        let _ = writeln!(out, "{n} 0");
                    }
                }
                MetricValue::Histogram(buckets) => {
                    let _ = writeln!(out, "# TYPE {n} counter");
                    for (label, count) in buckets {
                        let _ = write!(out, "{n}_total{{bucket=\"");
                        escape_label(&mut out, label);
                        let _ = writeln!(out, "\"}} {count}");
                    }
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.metrics {
            match v {
                MetricValue::Counter(n) => writeln!(f, "{name:<40} {n}")?,
                MetricValue::Gauge(g) => writeln!(f, "{name:<40} {g:.4}")?,
                MetricValue::Histogram(b) => {
                    write!(f, "{name:<40}")?;
                    for (l, n) in b {
                        write!(f, " {l}:{n}")?;
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register_and_update() {
        let mut r = Registry::new();
        let c = r.counter("sim.cycles");
        let g = r.gauge("sim.ipc");
        let h = r.histogram("sim.region_size", &["1-4", "5-8"]);
        r.add(c, 10);
        r.add(c, 5);
        r.set(g, 1.25);
        r.observe(h, 0, 2).unwrap();
        r.observe(h, 1, 1).unwrap();
        assert_eq!(r.counter_value("sim.cycles"), 15);
        assert_eq!(r.gauge_value("sim.ipc"), 1.25);
        assert_eq!(
            r.get("sim.region_size"),
            Some(&MetricValue::Histogram(vec![
                ("1-4".into(), 2),
                ("5-8".into(), 1)
            ]))
        );
    }

    #[test]
    fn registration_is_idempotent_and_keeps_values() {
        let mut r = Registry::new();
        let a = r.counter("x");
        r.add(a, 7);
        let b = r.counter("x");
        assert_eq!(a, b);
        assert_eq!(r.counter_value("x"), 7);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let mut r = Registry::new();
        let c = r.counter("jobs");
        let g = r.gauge("util");
        let h = r.histogram("lat", &["lo", "hi"]);
        r.add(c, 3);
        r.set(g, 0.5);
        r.observe(h, 0, 2).unwrap();
        let snap = r.snapshot();
        r.add(c, 4);
        r.set(g, 0.9);
        r.observe(h, 1, 5).unwrap();
        let d = r.delta(&snap);
        assert_eq!(d.counter_value("jobs"), 4);
        assert_eq!(d.gauge_value("util"), 0.9);
        assert_eq!(
            d.get("lat"),
            Some(&MetricValue::Histogram(vec![
                ("lo".into(), 0),
                ("hi".into(), 5)
            ]))
        );
    }

    #[test]
    fn merge_adds_counters_and_appends_unknowns() {
        let mut a = Registry::new();
        a.add_counter("n", 1);
        let mut b = Registry::new();
        b.add_counter("n", 2);
        b.set_gauge("g", 3.0);
        a.merge(&b);
        assert_eq!(a.counter_value("n"), 3);
        assert_eq!(a.gauge_value("g"), 3.0);
    }

    #[test]
    fn json_output_is_ordered_and_escaped() {
        let mut r = Registry::new();
        r.add_counter("b.count", 2);
        r.set_gauge("a.gauge", 0.5);
        r.set_histogram("h", &["x\"y"], &[1]);
        let j = r.to_json();
        // Registration order, not alphabetical.
        assert!(j.find("b.count").unwrap() < j.find("a.gauge").unwrap());
        assert!(j.contains("\"x\\\"y\": 1"));
        assert!(j.contains("\"a.gauge\": 0.5"));
    }

    #[test]
    fn observe_rejects_bad_targets_instead_of_panicking() {
        let mut r = Registry::new();
        let c = r.counter("n");
        let h = r.histogram("h", &["a", "b"]);
        assert_eq!(r.observe(c, 0, 1), Err(ObserveError::NotHistogram));
        assert_eq!(
            r.observe(h, 2, 1),
            Err(ObserveError::BucketOutOfRange { bucket: 2, len: 2 })
        );
        // Failed observes leave the registry untouched.
        assert_eq!(r.counter_value("n"), 0);
        assert_eq!(
            r.get("h"),
            Some(&MetricValue::Histogram(vec![
                ("a".into(), 0),
                ("b".into(), 0)
            ]))
        );
        assert!(r.observe(h, 1, 3).is_ok());
    }

    #[test]
    fn openmetrics_exposition_format() {
        let mut r = Registry::new();
        r.add_counter("sim.cycles", 15);
        r.set_gauge("sim.ipc", 1.25);
        r.set_histogram("sim.region_size", &["1-4", "5-8"], &[2, 1]);
        let text = r.render_openmetrics();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "# TYPE sim_cycles counter",
                "sim_cycles_total 15",
                "# TYPE sim_ipc gauge",
                "sim_ipc 1.25",
                "# TYPE sim_region_size counter",
                "sim_region_size_total{bucket=\"1-4\"} 2",
                "sim_region_size_total{bucket=\"5-8\"} 1",
                "# EOF",
            ]
        );
        // Exposition must end with the EOF terminator and a newline.
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn openmetrics_sanitizes_names_and_escapes_labels() {
        let mut r = Registry::new();
        r.add_counter("9lives.and-dashes", 1);
        r.set_histogram("h", &["a\"b\\c\nd"], &[4]);
        r.set_gauge("bad", f64::NAN);
        let text = r.render_openmetrics();
        assert!(text.contains("_9lives_and_dashes_total 1"));
        assert!(text.contains("h_total{bucket=\"a\\\"b\\\\c\\nd\"} 4"));
        // Non-finite gauges degrade to 0 rather than emitting NaN.
        assert!(text.contains("\nbad 0\n"));
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let mut r = Registry::new();
        r.add_counter("n", 1);
        let mut later = Registry::new();
        later.add_counter("n", 5);
        // Diffing the *earlier* registry against the later snapshot.
        let d = r.delta(&later.snapshot());
        assert_eq!(d.counter_value("n"), 0);
    }
}
