//! Named counters and log2-bucket histograms with a Prometheus text
//! exporter.
//!
//! The registry is filled *after* a run from the merged counters and the
//! collected trace (it is not on any hot path), so it favors a simple
//! ordered representation over concurrency: `spfc run --metrics-out`
//! renders one registry per run in the Prometheus exposition format,
//! which scrapers, `promtool`, and humans all read.

/// A histogram with power-of-two bucket boundaries: bucket `i` counts
/// observations `v` with `2^(i-1) < v <= 2^i` (bucket 0 counts `v <= 1`).
/// Values are typically nanoseconds, so the ~64 buckets span 1 ns to
/// centuries without tuning.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = (64 - v.saturating_sub(1).leading_zeros()) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound (inclusive) of the smallest bucket that pushes the
    /// cumulative count to at least `q * count` — a log2-resolution
    /// quantile. Returns 0 when empty.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target.max(1) {
                return 1u64 << i;
            }
        }
        1u64 << (self.counts.len().saturating_sub(1))
    }

    /// Raw per-bucket counts (bucket `i` holds `2^(i-1) < v <= 2^i`),
    /// the persistence-friendly inverse of [`Histogram::from_parts`].
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reconstructs a histogram from persisted parts: per-bucket counts
    /// plus the observation sum (the count is the bucket total).
    pub fn from_parts(counts: Vec<u64>, sum: u64) -> Histogram {
        let count = counts.iter().sum();
        Histogram { counts, count, sum }
    }

    /// Adds every observation of `other` into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// `(upper_bound, cumulative_count)` pairs for the populated bucket
    /// range, cumulative as Prometheus expects.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            out.push((1u64 << i, cum));
        }
        out
    }
}

/// An ordered set of named counters, gauges, and histograms, rendered in
/// the Prometheus text exposition format. Label pairs given at
/// construction (executor, backend, kernel...) are attached to every
/// sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    labels: Vec<(String, String)>,
    counters: Vec<(String, String, u64)>,
    // (name, help, label key, label value, value): one metric family
    // fanned out over a per-sample label, e.g. spfc_pass_nanos{pass=...}.
    labeled: Vec<(String, String, String, String, u64)>,
    gauges: Vec<(String, String, f64)>,
    histograms: Vec<(String, String, Histogram)>,
    // Histogram families fanned out over a per-sample label, e.g.
    // spfc_serve_stage_nanos{stage=...}; one HELP/TYPE header per family.
    labeled_hists: Vec<(String, String, String, String, Histogram)>,
}

impl MetricsRegistry {
    /// A registry whose samples all carry `labels`.
    pub fn new(labels: &[(&str, &str)]) -> Self {
        MetricsRegistry {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            ..Default::default()
        }
    }

    /// Sets a monotonic counter (replacing any previous value under the
    /// same name).
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        if let Some(slot) = self.counters.iter_mut().find(|(n, _, _)| n == name) {
            slot.2 = value;
        } else {
            self.counters
                .push((name.to_string(), help.to_string(), value));
        }
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        if let Some(slot) = self.gauges.iter_mut().find(|(n, _, _)| n == name) {
            slot.2 = value;
        } else {
            self.gauges
                .push((name.to_string(), help.to_string(), value));
        }
    }

    /// The histogram registered under `name`, creating it empty if new.
    pub fn histogram(&mut self, name: &str, help: &str) -> &mut Histogram {
        if let Some(i) = self.histograms.iter().position(|(n, _, _)| n == name) {
            return &mut self.histograms[i].2;
        }
        self.histograms
            .push((name.to_string(), help.to_string(), Histogram::new()));
        &mut self.histograms.last_mut().unwrap().2
    }

    /// Sets a monotonic counter carrying one extra per-sample label in
    /// addition to the registry labels (replacing any previous value
    /// under the same name and label pair). Samples of the same family
    /// render under a single `# HELP`/`# TYPE` header.
    pub fn labeled_counter(&mut self, name: &str, help: &str, label: (&str, &str), value: u64) {
        let (lk, lv) = label;
        if let Some(slot) = self
            .labeled
            .iter_mut()
            .find(|(n, _, k, v, _)| n == name && k == lk && v == lv)
        {
            slot.4 = value;
        } else {
            self.labeled.push((
                name.to_string(),
                help.to_string(),
                lk.to_string(),
                lv.to_string(),
                value,
            ));
        }
    }

    /// The histogram registered under `name` with one extra per-sample
    /// label, creating it empty if new. Families of the same name render
    /// under a single `# HELP`/`# TYPE` header.
    pub fn labeled_histogram(
        &mut self,
        name: &str,
        help: &str,
        label: (&str, &str),
    ) -> &mut Histogram {
        let (lk, lv) = label;
        if let Some(i) = self
            .labeled_hists
            .iter()
            .position(|(n, _, k, v, _)| n == name && k == lk && v == lv)
        {
            return &mut self.labeled_hists[i].4;
        }
        self.labeled_hists.push((
            name.to_string(),
            help.to_string(),
            lk.to_string(),
            lv.to_string(),
            Histogram::new(),
        ));
        &mut self.labeled_hists.last_mut().unwrap().4
    }

    /// Looks up a labeled histogram (for tests and assertions).
    pub fn labeled_histogram_value(&self, name: &str, label: (&str, &str)) -> Option<&Histogram> {
        self.labeled_hists
            .iter()
            .find(|(n, _, k, v, _)| n == name && k == label.0 && v == label.1)
            .map(|(_, _, _, _, h)| h)
    }

    /// Looks up a labeled counter's value (for tests and assertions).
    pub fn labeled_counter_value(&self, name: &str, label: (&str, &str)) -> Option<u64> {
        self.labeled
            .iter()
            .find(|(n, _, k, v, _)| n == name && k == label.0 && v == label.1)
            .map(|(_, _, _, _, value)| *value)
    }

    /// Looks up a counter's value (for tests and assertions).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// Looks up a gauge's value (for tests and assertions).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, v)| *v)
    }

    /// Looks up a histogram (for tests and assertions).
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, h)| h)
    }

    fn label_str(&self, extra: Option<(&str, String)>) -> String {
        match extra {
            Some(pair) => self.label_str_with(&[pair]),
            None => self.label_str_with(&[]),
        }
    }

    fn label_str_with(&self, extras: &[(&str, String)]) -> String {
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extras.iter().map(|(k, v)| (*k, v.as_str())))
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers, cumulative `_bucket{le=...}` series,
    /// `_sum` and `_count` per histogram).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, value) in &self.counters {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            out.push_str(&format!("{name}{} {value}\n", self.label_str(None)));
        }
        let mut seen: Vec<&str> = Vec::new();
        for (name, help, lk, lv, value) in &self.labeled {
            if !seen.contains(&name.as_str()) {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
                seen.push(name);
            }
            out.push_str(&format!(
                "{name}{} {value}\n",
                self.label_str(Some((lk, lv.clone())))
            ));
        }
        for (name, help, value) in &self.gauges {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            out.push_str(&format!("{name}{} {value}\n", self.label_str(None)));
        }
        for (name, help, hist) in &self.histograms {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            for (le, cum) in hist.cumulative_buckets() {
                out.push_str(&format!(
                    "{name}_bucket{} {cum}\n",
                    self.label_str(Some(("le", le.to_string())))
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{} {}\n",
                self.label_str(Some(("le", "+Inf".to_string()))),
                hist.count()
            ));
            out.push_str(&format!(
                "{name}_sum{} {}\n",
                self.label_str(None),
                hist.sum()
            ));
            out.push_str(&format!(
                "{name}_count{} {}\n",
                self.label_str(None),
                hist.count()
            ));
        }
        let mut seen_hist: Vec<&str> = Vec::new();
        for (name, help, lk, lv, hist) in &self.labeled_hists {
            if !seen_hist.contains(&name.as_str()) {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
                seen_hist.push(name);
            }
            let sample = |le: String| self.label_str_with(&[(lk.as_str(), lv.clone()), ("le", le)]);
            for (le, cum) in hist.cumulative_buckets() {
                out.push_str(&format!("{name}_bucket{} {cum}\n", sample(le.to_string())));
            }
            out.push_str(&format!(
                "{name}_bucket{} {}\n",
                sample("+Inf".to_string()),
                hist.count()
            ));
            let plain = self.label_str_with(&[(lk.as_str(), lv.clone())]);
            out.push_str(&format!("{name}_sum{plain} {}\n", hist.sum()));
            out.push_str(&format!("{name}_count{plain} {}\n", hist.count()));
        }
        out
    }
}

/// `v` as the text exposition format quotes a label value: a backslash,
/// a double quote and a line feed are escaped, so no value (a tenant name
/// from the wire, say) can end its series early or start another line.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let buckets = h.cumulative_buckets();
        // v=0 and v=1 land in bucket 0 (le=1); v=2 in le=2; 3,4 in le=4;
        // 1000 in le=1024.
        assert_eq!(buckets[0], (1, 2));
        assert_eq!(buckets[1], (2, 3));
        assert_eq!(buckets[2], (4, 5));
        assert_eq!(*buckets.last().unwrap(), (1024, 6));
    }

    #[test]
    fn histogram_parts_round_trip_and_merge() {
        let mut a = Histogram::new();
        for v in [1, 5, 900] {
            a.observe(v);
        }
        let rebuilt = Histogram::from_parts(a.bucket_counts().to_vec(), a.sum());
        assert_eq!(rebuilt, a);
        let mut b = Histogram::new();
        b.observe(70_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 906 + 70_000);
        assert_eq!(a.quantile_bound(1.0), 131_072);
    }

    #[test]
    fn quantile_bound_tracks_the_distribution() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(10);
        }
        h.observe(100_000);
        assert_eq!(h.quantile_bound(0.5), 16);
        assert_eq!(h.quantile_bound(1.0), 131_072);
        assert_eq!(Histogram::new().quantile_bound(0.5), 0);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let mut reg = MetricsRegistry::new(&[("kernel", "jacobi"), ("executor", "pooled")]);
        reg.counter("spfc_iters_total", "Inner iterations executed", 4096);
        reg.gauge("spfc_imbalance_ratio", "max/mean per-worker iters", 1.25);
        let h = reg.histogram("spfc_barrier_wait_nanos", "Per-phase barrier wait");
        h.observe(900);
        h.observe(1100);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE spfc_iters_total counter\n"), "{text}");
        assert!(
            text.contains("spfc_iters_total{kernel=\"jacobi\",executor=\"pooled\"} 4096\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE spfc_barrier_wait_nanos histogram\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "spfc_barrier_wait_nanos_bucket{kernel=\"jacobi\",executor=\"pooled\",le=\"1024\"} 1\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "spfc_barrier_wait_nanos_bucket{kernel=\"jacobi\",executor=\"pooled\",le=\"+Inf\"} 2\n"
            ),
            "{text}"
        );
        assert!(text.contains("spfc_barrier_wait_nanos_sum"), "{text}");
        assert!(text.contains("spfc_barrier_wait_nanos_count"), "{text}");
    }

    /// A label value is data, never syntax: a tenant name that closes its
    /// quote and brace and starts a line of its own stays inside one
    /// series, escaped as the exposition format requires.
    #[test]
    fn label_values_cannot_inject_series() {
        let mut reg = MetricsRegistry::new(&[("service", "a\\b")]);
        let tenant = "a\"}\nevil 1";
        reg.labeled_counter(
            "spfc_serve_tenant_jobs_total",
            "Completed jobs by tenant",
            ("tenant", tenant),
            3,
        );
        let text = reg.to_prometheus();
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            samples,
            [r#"spfc_serve_tenant_jobs_total{service="a\\b",tenant="a\"}\nevil 1"} 3"#],
            "{text}"
        );
        assert!(!text.lines().any(|l| l.starts_with("evil")), "{text}");
    }

    #[test]
    fn labeled_counter_shares_one_header_per_family() {
        let mut reg = MetricsRegistry::new(&[("kernel", "jacobi")]);
        reg.labeled_counter(
            "spfc_pass_nanos",
            "Per-pass planning time",
            ("pass", "dependence"),
            120,
        );
        reg.labeled_counter(
            "spfc_pass_nanos",
            "Per-pass planning time",
            ("pass", "plan"),
            340,
        );
        reg.labeled_counter(
            "spfc_pass_nanos",
            "Per-pass planning time",
            ("pass", "plan"),
            350,
        );
        assert_eq!(
            reg.labeled_counter_value("spfc_pass_nanos", ("pass", "plan")),
            Some(350)
        );
        let text = reg.to_prometheus();
        let headers = text
            .lines()
            .filter(|l| l.starts_with("# TYPE spfc_pass_nanos "))
            .count();
        assert_eq!(headers, 1, "{text}");
        assert!(
            text.contains("spfc_pass_nanos{kernel=\"jacobi\",pass=\"dependence\"} 120\n"),
            "{text}"
        );
        assert!(
            text.contains("spfc_pass_nanos{kernel=\"jacobi\",pass=\"plan\"} 350\n"),
            "{text}"
        );
    }

    #[test]
    fn labeled_histogram_shares_one_header_per_family() {
        let mut reg = MetricsRegistry::new(&[("service", "spfc")]);
        reg.labeled_histogram(
            "spfc_serve_stage_nanos",
            "Per-stage latency",
            ("stage", "queue_wait"),
        )
        .observe(900);
        reg.labeled_histogram(
            "spfc_serve_stage_nanos",
            "Per-stage latency",
            ("stage", "execute"),
        )
        .observe(3000);
        reg.labeled_histogram(
            "spfc_serve_stage_nanos",
            "Per-stage latency",
            ("stage", "execute"),
        )
        .observe(5000);
        assert_eq!(
            reg.labeled_histogram_value("spfc_serve_stage_nanos", ("stage", "execute"))
                .map(|h| h.count()),
            Some(2)
        );
        let text = reg.to_prometheus();
        let headers = text
            .lines()
            .filter(|l| l.starts_with("# TYPE spfc_serve_stage_nanos "))
            .count();
        assert_eq!(headers, 1, "{text}");
        assert!(
            text.contains(
                "spfc_serve_stage_nanos_bucket{service=\"spfc\",stage=\"queue_wait\",le=\"1024\"} 1\n"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "spfc_serve_stage_nanos_bucket{service=\"spfc\",stage=\"execute\",le=\"+Inf\"} 2\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("spfc_serve_stage_nanos_count{service=\"spfc\",stage=\"execute\"} 2\n"),
            "{text}"
        );
    }

    #[test]
    fn counter_and_gauge_overwrite_by_name() {
        let mut reg = MetricsRegistry::new(&[]);
        reg.counter("x_total", "x", 1);
        reg.counter("x_total", "x", 2);
        assert_eq!(reg.counter_value("x_total"), Some(2));
        let text = reg.to_prometheus();
        let samples = text.lines().filter(|l| l.starts_with("x_total ")).count();
        assert_eq!(samples, 1, "{text}");
    }
}
