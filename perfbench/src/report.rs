//! Output: the human-readable report on standard error and the one-line
//! JSON result object that ends standard output.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a run found: its metrics and how many checked operations failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed, that returned an error, or that
    /// timed out.
    pub failed: u64,
    /// Metrics in printing order.
    pub metrics: Vec<Metric>,
}

/// Renders the result object. `expected` is the `(name, unit)` list the
/// run must print, in order.
///
/// # Errors
/// When a metric is missing, extra, in another unit, or not a finite
/// number — a defect of the benchmark itself.
pub fn result_json(result: &RunResult, expected: &[(String, &str)]) -> Result<String, String> {
    let got: Vec<(&str, &str)> = result
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let want: Vec<(&str, &str)> = expected.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    if got != want {
        return Err(format!("metric set {got:?} differs from {want:?}"));
    }
    if let Some(m) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", m.name, m.value));
    }
    if result.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut out = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        result.failed == 0,
        result.attempted,
        result.failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Prints the result object as the last line of standard output and
/// returns the process exit code: 0 when every check passed, 1 when one
/// failed, 3 when the benchmark itself is broken.
#[must_use]
pub fn finish(result: &RunResult, expected: &[(String, &str)]) -> i32 {
    eprintln!(
        "error_rate = {} ({} failed of {} attempted)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    match result_json(result, expected) {
        Ok(line) => {
            println!("{line}");
            i32::from(result.failed > 0)
        }
        Err(e) => {
            eprintln!("benchmark defect: {e}");
            3
        }
    }
}

/// Host facts printed with every run: core count, CPU model, cache sizes.
#[must_use]
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |level: &str| {
        (0..8)
            .find_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let lvl = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                (lvl.trim() == level)
                    .then(|| std::fs::read_to_string(format!("{dir}/size")).ok())
                    .flatten()
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" L2={} L3={}",
        cache("2"),
        cache("3")
    )
}

/// One line of the human report: a timing's median, its tail percentile
/// and the sample count.
#[must_use]
pub fn timing_line(name: &str, unit: &str, scale: f64, samples: &[f64]) -> String {
    let med = crate::stats::median(samples).map_or(f64::NAN, |m| m * scale);
    match crate::stats::tail(samples) {
        Some((t, pct, n)) => format!(
            "  {name:<24} median {med:>12.4} {unit:<5} p{pct:.1} {:>12.4} {unit:<5} (n={n})",
            t * scale
        ),
        None => format!(
            "  {name:<24} median {med:>12.4} {unit:<5} (n={}, too few for a tail)",
            samples.len()
        ),
    }
}
