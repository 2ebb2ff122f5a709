//! The process-wide metrics registry: lock-free counters, gauges, and
//! log-bucketed histograms with bounded relative quantile error.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s fetched
//! once from the [`MetricsRegistry`]; every subsequent update is a
//! handful of relaxed atomic operations, so instrumented hot paths pay
//! no lock and no allocation. The registry itself is only locked on
//! handle creation and on exposition ([`MetricsRegistry::prometheus_text`]
//! / [`MetricsRegistry::json_snapshot`]).
//!
//! An owner that needs its own exact count (one plan cache's hits, one
//! server's latencies) keeps it in an *instance* handle, its one store
//! ([`MetricsRegistry::instance_counter`] / `instance_histogram`). The
//! exposition reports a series as its shared handle plus every instance
//! handle, counters summed and histograms merged, so a scraper sees one
//! process-wide series however many instances feed it.

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0 before the first [`Self::set`]).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Bucket growth factor: consecutive bucket boundaries are `GAMMA`
/// apart, so a bucket's geometric-mid representative is at most
/// `sqrt(GAMMA) - 1` (≈ 2%) away from any sample it holds.
const GAMMA: f64 = 1.04;
/// Lower edge of the first log bucket; samples below it land in a
/// dedicated underflow bucket and report as the tracked exact minimum.
const MIN_TRACKED: f64 = 1e-6;
/// Log-bucket count: `MIN_TRACKED * GAMMA^884 > 1e9`, so nanosecond
/// through ~11-day latencies (in ms) bucket with full guarantees.
const LOG_BUCKETS: usize = 884;
/// Underflow + log buckets + overflow.
const TOTAL_BUCKETS: usize = LOG_BUCKETS + 2;

/// A log-bucketed histogram (DDSketch-style) with lock-free recording.
///
/// Guarantees, for samples in `[MIN_TRACKED, MIN_TRACKED * GAMMA^884]`:
///
/// * every quantile reported by [`Self::quantile`] is within
///   [`Self::relative_error`] of the exact sample at that rank (same
///   nearest-rank convention the serving report always used:
///   `idx = round(q * (n - 1))`);
/// * [`Self::merge_from`] of per-thread histograms is bucket-for-bucket
///   identical to recording everything into one pooled histogram.
///
/// Recording is a bucket index computation plus four relaxed atomic
/// updates — no locks, safe to share across worker threads by reference.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of samples, as f64 bits updated by CAS.
    sum_bits: AtomicU64,
    /// Exact minimum sample, as f64 bits (`+inf` when empty).
    min_bits: AtomicU64,
    /// Exact maximum sample, as f64 bits (`-inf` when empty).
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..TOTAL_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// The guaranteed relative quantile error of the bucket scheme:
    /// `sqrt(GAMMA) - 1`.
    pub fn relative_error() -> f64 {
        GAMMA.sqrt() - 1.0
    }

    /// Bucket index for a sample: 0 = underflow, `1..=LOG_BUCKETS` =
    /// log-spaced, `LOG_BUCKETS + 1` = overflow.
    fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v < MIN_TRACKED {
            // NaN and sub-minimum samples fall through to underflow.
            return 0;
        }
        let i = ((v / MIN_TRACKED).ln() / GAMMA.ln()).floor();
        if i >= LOG_BUCKETS as f64 {
            LOG_BUCKETS + 1
        } else {
            i as usize + 1
        }
    }

    /// Lower boundary of log bucket `b` (1-based).
    fn bucket_lower(b: usize) -> f64 {
        MIN_TRACKED * GAMMA.powi(b as i32 - 1)
    }

    /// Geometric-mid representative of a bucket.
    fn representative(&self, b: usize) -> f64 {
        if b == 0 {
            // Underflow: the tracked exact minimum is the best estimate.
            self.min()
        } else if b == LOG_BUCKETS + 1 {
            self.max()
        } else {
            MIN_TRACKED * GAMMA.powf(b as f64 - 0.5)
        }
    }

    /// Records one sample.
    pub fn record(&self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v };
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// The `q`-quantile estimate, nearest-rank (`idx = round(q*(n-1))`),
    /// clamped into the exact `[min, max]` envelope. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen > rank {
                return self.representative(b).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Adds `other`'s samples into `self`. Bucket-for-bucket equivalent
    /// to having recorded both sample streams into one histogram.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        let osum = other.sum();
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + osum).to_bits())
            });
        let (omin, omax) = (
            f64::from_bits(other.min_bits.load(Ordering::Relaxed)),
            f64::from_bits(other.max_bits.load(Ordering::Relaxed)),
        );
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (omin < f64::from_bits(bits)).then(|| omin.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (omax > f64::from_bits(bits)).then(|| omax.to_bits())
            });
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, for cumulative
    /// exposition.
    fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| {
                let n = bucket.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let upper = if b == LOG_BUCKETS + 1 {
                        f64::INFINITY
                    } else if b == 0 {
                        MIN_TRACKED
                    } else {
                        Self::bucket_lower(b + 1)
                    };
                    (upper, n)
                })
            })
            .collect()
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    /// Adds `other`'s counts into `self`: counters sum, histograms
    /// merge. Gauges have no instance handles, so never absorb.
    fn absorb(&self, other: &Metric) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => a.add(b.get()),
            (Metric::Histogram(a), Metric::Histogram(b)) => a.merge_from(b),
            _ => unreachable!("a series' handles share one kind"),
        }
    }
}

/// One series' handles: first the one every [`MetricsRegistry::counter`]
/// (or `gauge` / `histogram`) caller shares, then one per
/// `instance_*` call, each owned by its caller.
type Series = Vec<Metric>;

/// Folds instance handles whose owners dropped them into the shared
/// handle: their counts stay in the series, and the series keeps one
/// handle per live owner.
fn fold_dropped(series: &mut Series) {
    let mut i = 1;
    while i < series.len() {
        let owners = match &series[i] {
            Metric::Counter(c) => Arc::strong_count(c),
            Metric::Gauge(g) => Arc::strong_count(g),
            Metric::Histogram(h) => Arc::strong_count(h),
        };
        if owners > 1 {
            i += 1;
            continue;
        }
        // Pairs with the owner's release of its last reference (as in
        // `Arc::drop`), so every update it made is visible here.
        fence(Ordering::Acquire);
        let handle = series.swap_remove(i);
        series[0].absorb(&handle);
    }
}

/// `(metric name, sorted label pairs)` — the identity of one series.
type SeriesKey = (String, Vec<(String, String)>);

/// A process-wide registry of named, labelled metric series.
///
/// [`registry`] returns the global instance every runtime layer shares;
/// independent instances exist only for tests. Getting a handle for an
/// existing `(name, labels)` pair returns the series' one shared handle,
/// so worker threads converge on one set of atomics. Instance handles
/// are the exception: each is a new store that one owner reads exactly.
/// The shared handle is then one part of the series: direct updates plus
/// the counts of dropped instances, folded into it. The series' total,
/// summed over all its handles, comes only from
/// [`Self::prometheus_text`] / [`Self::json_snapshot`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: Mutex<BTreeMap<SeriesKey, Series>>,
}

/// The process-wide registry.
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

impl MetricsRegistry {
    /// An empty registry (tests; production code shares [`registry`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        (name.to_string(), labels)
    }

    /// The series' shared handle, or with `instance` a new handle the
    /// series also holds. On a kind mismatch it returns the shared
    /// handle, which the caller then rejects.
    fn handle(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: fn() -> Metric,
        instance: bool,
    ) -> Metric {
        let key = Self::key(name, labels);
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let handles = series.entry(key).or_insert_with(|| vec![make()]);
        if !instance {
            return handles[0].clone();
        }
        let handle = make();
        if handle.kind() != handles[0].kind() {
            return handles[0].clone();
        }
        fold_dropped(handles);
        handles.push(handle.clone());
        handle
    }

    /// The shared counter handle for `(name, labels)`, creating the
    /// series on first use. Beside instance handles it is one part of
    /// the series (direct adds plus dropped instances' counts); the
    /// series' total is exposed only by [`Self::prometheus_text`] /
    /// [`Self::json_snapshot`].
    ///
    /// # Panics
    /// Panics if the series is already registered as another kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.handle(name, labels, || Metric::Counter(Arc::default()), false) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// A new counter owned by the caller: its own exact count, exposed
    /// summed with every other handle of the `(name, labels)` series. A
    /// dropped instance's count stays in that sum.
    ///
    /// # Panics
    /// Panics if the series is already registered as another kind.
    pub fn instance_counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.handle(name, labels, || Metric::Counter(Arc::default()), true) {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// Gauge handle for `(name, labels)`.
    ///
    /// # Panics
    /// Panics if the series is already registered as another kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.handle(name, labels, || Metric::Gauge(Arc::default()), false) {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// The shared histogram handle for `(name, labels)`: like
    /// [`Self::counter`], one part of the series once it has instance
    /// handles.
    ///
    /// # Panics
    /// Panics if the series is already registered as another kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.handle(name, labels, || Metric::Histogram(Arc::default()), false) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// A new histogram owned by the caller, exposed merged with every
    /// other handle of the `(name, labels)` series (see
    /// [`Self::instance_counter`]).
    ///
    /// # Panics
    /// Panics if the series is already registered as another kind.
    pub fn instance_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.handle(name, labels, || Metric::Histogram(Arc::default()), true) {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Every series as one handle: a lone handle as is, else a new one
    /// that absorbed all of the series' handles.
    fn snapshot(&self) -> Vec<(SeriesKey, Metric)> {
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(series.len());
        for (key, handles) in series.iter_mut() {
            fold_dropped(handles);
            let total = match &handles[0] {
                _ if handles.len() == 1 => handles[0].clone(),
                Metric::Counter(_) => Metric::Counter(Arc::default()),
                Metric::Gauge(_) => unreachable!("gauges have no instance handles"),
                Metric::Histogram(_) => Metric::Histogram(Arc::default()),
            };
            if handles.len() > 1 {
                handles.iter().for_each(|h| total.absorb(h));
            }
            out.push((key.clone(), total));
        }
        out
    }

    /// Prometheus text exposition (version 0.0.4): one `# TYPE` line per
    /// metric name, then one sample line per series (histograms expose
    /// cumulative `_bucket{le=...}` lines over non-empty buckets, plus
    /// `_sum` and `_count`). Deterministic order: sorted by name, then
    /// labels.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for ((name, labels), metric) in self.snapshot() {
            if name != last_name {
                out.push_str(&format!("# TYPE {name} {}\n", metric.kind()));
                last_name = name.clone();
            }
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        prom_labels(&labels, None),
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        prom_labels(&labels, None),
                        fmt_f64(g.get())
                    ));
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (upper, n) in h.nonzero_buckets() {
                        cum += n;
                        let le = if upper.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            fmt_f64(upper)
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            prom_labels(&labels, Some(&le))
                        ));
                    }
                    if cum < h.count() {
                        // Concurrent recording between bucket and count
                        // reads; keep the +Inf bucket consistent.
                        cum = h.count();
                    }
                    out.push_str(&format!(
                        "{name}_bucket{} {cum}\n",
                        prom_labels(&labels, Some("+Inf"))
                    ));
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        prom_labels(&labels, None),
                        fmt_f64(h.sum())
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        prom_labels(&labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// A JSON snapshot of every series: counters and gauges with their
    /// values, histograms with count/sum/min/max and p50/p90/p99.
    pub fn json_snapshot(&self) -> String {
        let mut items = Vec::new();
        for ((name, labels), metric) in self.snapshot() {
            let labels_json: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect();
            let head = format!(
                "{{\"name\":{},\"kind\":\"{}\",\"labels\":{{{}}}",
                json_str(&name),
                metric.kind(),
                labels_json.join(",")
            );
            let body = match metric {
                Metric::Counter(c) => format!(",\"value\":{}}}", c.get()),
                Metric::Gauge(g) => format!(",\"value\":{}}}", json_f64(g.get())),
                Metric::Histogram(h) => format!(
                    ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    h.count(),
                    json_f64(h.sum()),
                    json_f64(h.min()),
                    json_f64(h.max()),
                    json_f64(h.quantile(0.5)),
                    json_f64(h.quantile(0.9)),
                    json_f64(h.quantile(0.99)),
                ),
            };
            items.push(format!("{head}{body}"));
        }
        format!("{{\"metrics\":[{}]}}", items.join(","))
    }
}

/// Formats a label set as `{k="v",...}` (empty string when no labels),
/// optionally appending a histogram `le` label.
fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{le}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number formatting: finite f64s verbatim, everything else 0.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "0".to_string()
    }
}

/// Shortest-round-trip float formatting (Rust's `{}` for f64).
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_covers_the_advertised_range() {
        assert!(
            Histogram::bucket_lower(LOG_BUCKETS + 1) > 1e9,
            "884 buckets must span past 1e9: top = {}",
            Histogram::bucket_lower(LOG_BUCKETS + 1)
        );
        assert_eq!(Histogram::bucket_index(0.0), 0, "underflow");
        assert_eq!(Histogram::bucket_index(f64::NAN), 0, "NaN -> underflow");
        assert_eq!(
            Histogram::bucket_index(1e12),
            LOG_BUCKETS + 1,
            "overflow bucket"
        );
    }

    #[test]
    fn quantiles_track_exact_percentiles_on_a_known_stream() {
        let h = Histogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.1).collect();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - samples.iter().sum::<f64>()).abs() < 1e-6);
        assert_eq!(h.max(), 100.0, "max is exact");
        assert_eq!(h.min(), 0.1, "min is exact");
        let tol = Histogram::relative_error();
        for q in [0.0f64, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let idx = (q * 999.0).round() as usize;
            let exact = samples[idx];
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact * tol + 1e-12,
                "q={q}: got {got}, exact {exact}, tol {tol}"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn registry_returns_the_same_series_for_the_same_key() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total", &[("outcome", "served")]);
        let b = reg.counter("requests_total", &[("outcome", "served")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "one series behind both handles");
        let other = reg.counter("requests_total", &[("outcome", "shed")]);
        assert_eq!(other.get(), 0, "distinct labels, distinct series");
    }

    #[test]
    fn instance_handles_are_exact_and_exposed_as_their_series_sum() {
        let reg = MetricsRegistry::new();
        let labels = [("cache", "plan")];
        reg.counter("hits_total", &labels).add(1);
        let a = reg.instance_counter("hits_total", &labels);
        let b = reg.instance_counter("hits_total", &labels);
        a.add(2);
        b.add(4);
        assert_eq!((a.get(), b.get()), (2, 4), "each instance is exact");
        assert!(reg
            .prometheus_text()
            .contains("hits_total{cache=\"plan\"} 7"));
        drop(b);
        let c = reg.instance_counter("hits_total", &labels);
        c.add(8);
        let text = reg.prometheus_text();
        assert!(text.contains("hits_total{cache=\"plan\"} 15"), "{text}");
        assert_eq!(text.matches("# TYPE hits_total").count(), 1, "{text}");

        let h1 = reg.instance_histogram("lat_ms", &[]);
        let h2 = reg.instance_histogram("lat_ms", &[]);
        h1.record(1.0);
        h2.record(2.0);
        h2.record(3.0);
        assert_eq!((h1.count(), h2.count()), (1, 2));
        drop(h1);
        let text = reg.prometheus_text();
        assert!(text.contains("lat_ms_count 3"), "{text}");
        assert!(text.contains("lat_ms_sum 6"), "{text}");
        assert!(reg.json_snapshot().contains("\"max\":3"));
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn instance_handles_reject_kind_mismatches() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("y_total", &[]);
        let _ = reg.instance_histogram("y_total", &[]);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn registry_rejects_kind_mismatches() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x_total", &[]);
        let _ = reg.gauge("x_total", &[]);
    }

    #[test]
    fn prometheus_text_is_parseable_and_cumulative() {
        let reg = MetricsRegistry::new();
        reg.counter("cache_hits_total", &[("cache", "plan")]).add(5);
        reg.gauge("efficiency", &[("kernel", "fig09")]).set(0.75);
        let h = reg.histogram("latency_ms", &[]);
        h.record(1.0);
        h.record(2.0);
        h.record(400.0);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE cache_hits_total counter"), "{text}");
        assert!(
            text.contains("cache_hits_total{cache=\"plan\"} 5"),
            "{text}"
        );
        assert!(text.contains("# TYPE latency_ms histogram"), "{text}");
        assert!(text.contains("latency_ms_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("latency_ms_count 3"), "{text}");
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("latency_ms_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {text}");
            last = v;
        }
    }

    #[test]
    fn json_snapshot_is_structurally_sound() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[("k", "v\"q")]).inc();
        reg.histogram("h_ms", &[]).record(3.5);
        let json = reg.json_snapshot();
        assert!(json.starts_with("{\"metrics\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"k\":\"v\\\"q\""), "label escaping: {json}");
        assert!(json.contains("\"p50\":"), "{json}");
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
    }
}
