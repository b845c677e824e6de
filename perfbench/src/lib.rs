//! The repo benchmark: four workloads that put the paper's costliest
//! claims on the clock (the Fair Share table under backlog, Theorem 8
//! protection, large-N equilibria, and the service path), each timed only
//! through the entry points users call.
//!
//! Two build targets share this library:
//!
//! * `perfbench` times the end-to-end metrics with tracing off;
//! * `perfbench-trace` is the separate traced run that reports the
//!   per-layer metrics through public hooks of each layer.
//!
//! Both take `--workload <name> --seed <n> --seconds <s> --trace <0|1>`,
//! derive every input from the seed ([`inputs`]), check every result
//! ([`checks`]), and print one JSON result object as the last line of
//! standard output ([`report`]). The metric names they may print are
//! fixed here so that the benchmark's tests can hold them against
//! `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod checks;
pub mod e2e;
pub mod inputs;
pub mod report;
pub mod stats;

use std::fmt;

/// The four workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Three open-loop users shaped like the Theorem 8 test at load 0.98.
    DesBacklog,
    /// 1000 open-loop users with heterogeneous rates summing to 0.8.
    DesManyUsers,
    /// `LargenSpec::solve` at N = 10^5 with the default three classes.
    LargenEquilibrium,
    /// An in-process service on loopback TCP with two closed-loop clients.
    ServeMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::DesBacklog,
        Workload::DesManyUsers,
        Workload::LargenEquilibrium,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesBacklog => "des_backlog",
            Workload::DesManyUsers => "des_many_users",
            Workload::LargenEquilibrium => "largen_equilibrium",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The three disciplines every workload compares. In the packet DES they
/// are FIFO, the paper's Table 1 Fair Share priority table and start-time
/// fair queueing; in the large-N solver FIFO, Fair Share and SFQ; in the
/// service they are the disciplines of the `simulate` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// First-in-first-out (proportional allocation).
    Fifo,
    /// Fair Share (the Table 1 priority table in the DES).
    Fs,
    /// Start-time fair queueing.
    Sfq,
}

impl Arm {
    /// Every arm, in round-robin order.
    pub const ALL: [Arm; 3] = [Arm::Fifo, Arm::Fs, Arm::Sfq];

    /// Short name: the discipline name the service and the CLI accept,
    /// and the prefix of the arm's end-to-end metric.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Arm::Fifo => "fifo",
            Arm::Fs => "fs",
            Arm::Sfq => "sfq",
        }
    }

    /// Suffix of the arm's per-layer `des.*` metrics.
    #[must_use]
    pub fn des_label(self) -> &'static str {
        match self {
            Arm::Fifo => "fifo",
            Arm::Fs => "fs_table",
            Arm::Sfq => "sfq",
        }
    }

    /// Index into per-arm arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Arm::Fifo => 0,
            Arm::Fs => 1,
            Arm::Sfq => 2,
        }
    }
}

/// End-to-end metrics: every workload prints all of them with `--trace 0`.
/// `(name, unit)`.
pub const E2E_METRICS: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("fifo_ms", "ms"),
    ("fs_ms", "ms"),
    ("sfq_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Per-layer `des.*` metrics per arm, `(stem, unit)`; the name is
/// `<stem>.<arm des label>`.
pub const DES_LAYER_METRICS: [(&str, &str); 10] = [
    ("des.qdisc.self_s", "s"),
    ("des.qdisc.calls", "count"),
    ("des.qdisc.active_mean", "count"),
    ("des.engine.self_s", "s"),
    ("des.events", "count"),
    ("des.backlog_mean", "count"),
    ("des.backlog_max", "count"),
    ("des.share_changes", "count"),
    ("des.calendar.fires", "count"),
    ("des.trace_overhead", "ratio"),
];

/// Per-layer `largen.*` metrics per arm, `(stem, unit)`.
pub const LARGEN_LAYER_METRICS: [(&str, &str); 3] = [
    ("largen.sweeps", "count"),
    ("largen.sweep_ms", "ms"),
    ("largen.users_per_s", "1/s"),
];

/// Per-layer `serve.*` metrics, `(name, unit)`.
pub const SERVE_LAYER_METRICS: [(&str, &str); 11] = [
    ("serve.transport_ms", "ms"),
    ("serve.compute_ms.table", "ms"),
    ("serve.compute_ms.nash", "ms"),
    ("serve.compute_ms.simulate", "ms"),
    ("serve.parse_us", "us"),
    ("serve.key_us", "us"),
    ("serve.hit_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("serve.records_per_req", "count"),
    ("serve.bytes_per_req", "bytes"),
];

/// Every per-layer metric the traced run prints with `--trace 1`,
/// `(name, unit)`, in printing order.
#[must_use]
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (stem, unit) in DES_LAYER_METRICS {
        for arm in Arm::ALL {
            out.push((format!("{stem}.{}", arm.des_label()), unit));
        }
    }
    for (stem, unit) in LARGEN_LAYER_METRICS {
        for arm in Arm::ALL {
            out.push((format!("{stem}.{}", arm.name()), unit));
        }
    }
    for (name, unit) in SERVE_LAYER_METRICS {
        out.push((name.to_string(), unit));
    }
    out
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// A command-line error, printed with the usage line.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            self.0,
            Workload::ALL.map(Workload::name).join("|")
        )
    }
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1` (all four
    /// required, any order).
    ///
    /// # Errors
    /// A [`UsageError`] naming the first bad or missing argument.
    pub fn parse(argv: &[String]) -> Result<Args, UsageError> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
            let bad = || UsageError(format!("bad value {value:?} for {flag}"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                other => return Err(UsageError(format!("unknown argument {other:?}"))),
            }
        }
        let missing = |name: &str| UsageError(format!("missing {name}"));
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// Worker threads the benchmark may use for clients and solvers: the
/// host's parallelism, capped at 2 so that the load generated does not
/// depend on the host's size beyond two cores.
#[must_use]
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}
