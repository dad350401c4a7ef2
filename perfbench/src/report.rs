//! Printing a run's metrics: one human line per metric (name, value, unit,
//! sample count), then the single-line JSON result as the last line.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises (repetitions, ops, runs).
    pub samples: u64,
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Ops offered across the run.
    pub attempted: u64,
    /// Ops not completed, errored, or cut off by the collapse guard.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    /// Free-form context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Make the metrics exactly `names`: every pushed metric must be listed
    /// with the same unit, and a listed metric the workload has no layer
    /// for is reported as zero with zero samples.
    pub fn conform(&mut self, names: &[(&'static str, &'static str)]) {
        for m in &self.metrics {
            assert!(
                names.contains(&(m.name, m.unit)),
                "metric {} [{}] is not in the benchmark's list",
                m.name,
                m.unit
            );
        }
        for &(name, unit) in names {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.push(name, 0.0, unit, 0);
            }
        }
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// Print everything; the JSON result is the last line of stdout.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!(
                "{:<28} {:>16} {:<8} (n={})",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.samples
            );
        }
        println!(
            "attempted {} failed {} failed_op_share {}",
            self.attempted,
            self.failed,
            fmt_num(self.failed as f64 / self.attempted.max(1) as f64)
        );
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Median of a sample (the lower one for even counts). Empty → 0.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of a sample. Empty → 0.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let r = (q * s.len() as f64).ceil() as usize;
    s[r.clamp(1, s.len()) - 1]
}

/// This process's peak resident set (`VmHWM`), MB.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
}

/// `VmHWM` of a `/proc/<pid>/status` text, MB.
pub fn peak_rss_mb(status: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
