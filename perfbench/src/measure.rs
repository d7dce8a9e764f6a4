//! Measurement primitives: timing summaries, the metric table, the
//! operation tally behind `error_rate`, and peak-RSS control.

use std::fmt::Write as _;
use std::time::Instant;

/// Percentiles a tail may be reported at, lowest first. A tail is the
/// highest of these that still has at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, so its value rests on more than a handful of outliers.
pub const TAIL_LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A set of timing (or other) samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `q` in `(0, 1]`; `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let v = self.sorted();
        (!v.is_empty()).then(|| v[rank(q, v.len()) - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
    /// samples beyond it, as `(q, value)`. `None` when even the median
    /// has fewer than that many samples above it.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let q = tail_quantile(self.len())?;
        Some((q, self.percentile(q)?))
    }

    /// `"p50 X, p75 Y (n=N)"`, the human form of a timing.
    pub fn describe(&self, unit: &str) -> String {
        let mut s = match self.median() {
            Some(m) => format!("p50 {m:.4} {unit}"),
            None => return "no samples".to_string(),
        };
        match self.tail() {
            Some((q, v)) => {
                let _ = write!(s, ", {} {v:.4} {unit}", pct_label(q));
            }
            None => s.push_str(", no tail (<20 samples)"),
        }
        let _ = write!(s, " (n={})", self.len());
        s
    }
}

/// 1-based nearest rank of percentile `q` among `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Which ladder percentile [`Samples::tail`] reports for `n` samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && n - rank(q, n) >= TAIL_MIN_BEYOND)
}

/// `0.75` → `"p75"`, `0.999` → `"p99.9"`.
pub fn pct_label(q: f64) -> String {
    let p = q * 100.0;
    if (p - p.round()).abs() < 1e-9 {
        format!("p{}", p.round() as u64)
    } else {
        format!("p{p:.1}")
    }
}

/// Metric and workload names: a letter or digit, then up to 63 letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// An ordered table of named metric values with units.
#[derive(Debug, Default)]
pub struct MetricTable {
    rows: Vec<(String, f64, &'static str)>,
}

impl MetricTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a metric. Names and units are fixed by this crate, so an
    /// invalid one is a bug here, not bad input.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        match self.rows.iter_mut().find(|(n, _, _)| *n == name) {
            Some(row) => *row = (name, value, unit),
            None => self.rows.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|r| r.1)
    }

    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// The `metrics` object of the result line. Non-finite values (which
    /// JSON cannot carry) are written as 0.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

/// Counts operations and failed checks. A failure is recorded and the
/// run goes on; `error_rate` is `failed / attempted`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

/// Failure messages kept verbatim; later ones are only counted.
const MAX_MESSAGES: usize = 20;

impl Tally {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one attempted operation that succeeded when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Count one attempted operation and return its value, recording the
    /// error as a failure instead of propagating it.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so a
/// workload's peak excludes whatever ran before it.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of `reps` timings of `f`, in seconds, and the last result.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(secs(t));
    }
    (
        times.median().expect("at least one repetition"),
        last.expect("at least one repetition"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(39), Some(0.50));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(99), Some(0.75));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [20, 40, 57, 100, 345, 1000, 12_345] {
            let (q, v) = samples(n).tail().expect("tail exists");
            let beyond = (1..=n).filter(|&i| i as f64 > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} q={q}: {beyond} beyond");
            // The next rung up would leave fewer than ten beyond it.
            if let Some(&next) = TAIL_LADDER.iter().find(|&&l| l > q) {
                let w = samples(n).percentile(next).expect("non-empty");
                let beyond_next = (1..=n).filter(|&i| i as f64 > w).count();
                assert!(
                    beyond_next < TAIL_MIN_BEYOND,
                    "n={n}: {next} also qualifies"
                );
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = samples(10);
        assert_eq!(s.median(), Some(5.0));
        assert_eq!(s.percentile(0.9), Some(9.0));
        assert_eq!(s.percentile(1.0), Some(10.0));
        assert_eq!(Samples::new().median(), None);
        assert!(samples(5).describe("ms").contains("no tail"));
        assert!(samples(40).describe("ms").contains("p75 30.0000 ms (n=40)"));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "op_p50_ms",
            "engine.run_s",
            "e21-x",
            "9lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seventeen_letters", "m;s"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn table_refuses_bad_names() {
        MetricTable::new().set("bad name", 1.0, "s");
    }

    #[test]
    fn table_renders_every_digit() {
        let mut t = MetricTable::new();
        t.set("a_s", 0.123_456_789_012_345_6, "s");
        t.set("b", 3.0, "count");
        t.set("a_s", 0.25, "s");
        t.set("nan", f64::NAN, "ms");
        assert_eq!(
            t.to_json(),
            "{\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"nan\": {\"value\": 0.0, \"unit\": \"ms\"}}"
        );
        // Every digit survives: the rendered number parses back exactly.
        let x = 0.1 + 0.2;
        let mut t = MetricTable::new();
        t.set("x", x, "s");
        let v: serde::Value = serde_json::from_str(&t.to_json()).expect("valid JSON");
        let back = v
            .get("x")
            .and_then(|m| m.get("value"))
            .and_then(serde::Value::as_f64);
        assert_eq!(back, Some(x));
    }

    #[test]
    fn failed_operation_counts_instead_of_aborting() {
        let mut tally = Tally::new();
        assert!(tally.check(true, || unreachable!()));
        assert!(!tally.check(false, || "band".to_string()));
        let r: Result<u32, String> = Err("boom".into());
        assert_eq!(tally.attempt("op", r), None);
        assert_eq!(tally.attempt::<_, String>("op", Ok(7)), Some(7));
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.error_rate(), 0.5);
        assert_eq!(
            tally.messages,
            vec!["band".to_string(), "op: boom".to_string()]
        );
        for _ in 0..100 {
            tally.check(false, || "again".into());
        }
        assert_eq!(tally.failed, 102);
        assert_eq!(tally.messages.len(), MAX_MESSAGES);
        assert_eq!(Tally::new().error_rate(), 0.0);
    }

    #[test]
    fn peak_rss_resets_per_workload() {
        let before = peak_rss_mb().expect("VmHWM readable");
        // Touch 96 MiB so the peak rises well above the baseline.
        let big = vec![1u8; 96 << 20];
        std::hint::black_box(&big);
        let raised = peak_rss_mb().expect("VmHWM readable");
        assert!(raised >= before + 64.0, "peak {raised} vs {before}");
        drop(big);
        reset_peak_rss().expect("clear_refs writable");
        let after = peak_rss_mb().expect("VmHWM readable");
        assert!(after + 64.0 <= raised, "reset peak {after} vs {raised}");
    }

    #[test]
    fn median_time_runs_every_repetition() {
        let mut n = 0;
        let (t, last) = median_time(5, || {
            n += 1;
            n
        });
        assert_eq!((n, last), (5, 5));
        assert!(t >= 0.0);
    }
}
