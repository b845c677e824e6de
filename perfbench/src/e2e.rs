//! The end-to-end runners. Each workload is timed only through the entry
//! points users call — `SimulateSpec::outcome` (the path `greednet
//! simulate` and the service share), `LargenSpec::solve`, and the service
//! over TCP — so that later changes to the layers below can be measured
//! without touching the benchmark.

use crate::checks::{check_largen, check_serve, digest, DesReference};
use crate::inputs::{largen_spec, DesInputs, DesProfile, ServeClass, ServeInputs, ServeRequest};
use crate::report::{timing_line, Metric, RunResult};
use crate::stats::{median, tail};
use crate::{worker_threads, Arm, E2E_METRICS};
use greednet_serve::ops::LargenSpec;
use greednet_serve::{CacheStats, Request, ServeOptions, Service};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How many times each run sets its workload up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// The call index of the large-N set-up warm-up; timed calls never
/// reach it.
const WARMUP_CALL: u64 = u32::MAX as u64;

/// DES warm-up calls per discipline (see [`DesInputs::warmup_spec`]).
const DES_WARMUP_CALLS: u64 = 4;

/// Population of the large-N set-up warm-up solve.
const WARMUP_USERS: u64 = 1000;

/// Timings and check results of one end-to-end run.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of each operation, per arm.
    pub arm_s: [Vec<f64>; 3],
    /// Wall time of every operation behind `p50_ms` and `tail_ms`: a
    /// request (serve), or a round of all three arms on one input (DES,
    /// large-N), so that the pool never mixes the arms' distributions.
    pub op_s: Vec<f64>,
    /// Work items completed (packets, users or requests).
    pub work: f64,
    /// Wall time over which `work` was done.
    pub work_s: f64,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Measurement {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("check failed: {what}");
        }
    }

    /// The end-to-end metrics, in [`E2E_METRICS`] order.
    #[must_use]
    pub fn into_result(self) -> RunResult {
        let ms = |v: &[f64]| median(v).map_or(f64::NAN, |m| m * 1e3);
        let tail_ms = tail(&self.op_s).map_or_else(
            // Below eleven operations (large-N rounds take ~4 s) there is
            // no tail with ten samples beyond it; the slowest stands in.
            || self.op_s.iter().copied().fold(f64::NAN, f64::max) * 1e3,
            |(t, _, _)| t * 1e3,
        );
        let values = [
            median(&self.setup_s).unwrap_or(f64::NAN),
            ms(&self.arm_s[0]),
            ms(&self.arm_s[1]),
            ms(&self.arm_s[2]),
            self.work / self.work_s,
            ms(&self.op_s),
            tail_ms,
        ];
        let metrics = E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.to_string(),
                unit,
                value,
            })
            .collect();
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether to start round `done + 1`: always the first, then only while
/// a round of average length still ends within `seconds`, so a run never
/// overshoots its time by most of a round (large-N rounds take ~4 s).
#[must_use]
pub fn another_round(start: Instant, done: u64, seconds: f64) -> bool {
    let elapsed = secs(start.elapsed());
    done == 0 || elapsed + elapsed / done as f64 <= seconds
}

/// `des_backlog` / `des_many_users`: rounds of `SimulateSpec::outcome`
/// calls under FIFO, FS table and SFQ while they fit in `seconds`.
#[must_use]
pub fn run_des(profile: DesProfile, seed: u64, seconds: f64) -> Measurement {
    let mut m = Measurement::default();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Set-up: inputs, closed forms, and short warm-up calls per
        // discipline (which build the discipline, the FS table included).
        let t = Instant::now();
        let inputs = DesInputs::new(profile, seed);
        let reference = DesReference::new(&inputs);
        for arm in Arm::ALL {
            for k in 0..DES_WARMUP_CALLS {
                let spec = inputs.warmup_spec(arm, k);
                if let Err(e) = spec.outcome() {
                    m.fail(&format!("warm-up {}: {e}", arm.name()));
                }
            }
        }
        m.setup_s.push(secs(t.elapsed()));
        prepared = Some((inputs, reference));
    }
    let Some((inputs, reference)) = prepared else {
        return m;
    };
    let packets = inputs.packets_per_call();
    let start = Instant::now();
    let mut call = 0;
    while another_round(start, call, seconds) {
        let mut round = 0.0;
        for arm in Arm::ALL {
            let spec = inputs.spec(arm, call);
            let t = Instant::now();
            let out = spec.outcome();
            let dt = secs(t.elapsed());
            m.attempted += 1;
            match out.map(|o| reference.check(arm, &o)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => m.fail(&e),
                Err(e) => m.fail(&e.to_string()),
            }
            m.arm_s[arm.index()].push(dt);
            round += dt;
            m.work += packets;
            m.work_s += dt;
        }
        m.op_s.push(round);
        call += 1;
    }
    m.report.push(format!(
        "  {} users, load {:.3}, horizon {} ({packets:.0} offered packets per call)",
        inputs.rates.len(),
        inputs.rates.iter().sum::<f64>(),
        inputs.horizon
    ));
    for arm in Arm::ALL {
        let times = &m.arm_s[arm.index()];
        let rate = median(times).map_or(f64::NAN, |t| packets / t);
        m.report.push(format!(
            "  {:<24} median {rate:>12.0} pkts/s",
            format!("{}_pkts_per_s", arm.des_label())
        ));
        m.report.push(timing_line(
            &format!("{} call", arm.des_label()),
            "ms",
            1e3,
            times,
        ));
    }
    m
}

/// The continuum (`n = 0`) load of `spec`, through the same entry point.
fn mean_field_load(spec: &LargenSpec) -> Result<f64, String> {
    let continuum = LargenSpec {
        n: 0,
        ..spec.clone()
    };
    continuum.solve().map(|o| o.load).map_err(|e| e.to_string())
}

/// `largen_equilibrium`: rounds of `LargenSpec::solve` calls at N = 10^5
/// under FIFO, FS and SFQ while they fit in `seconds`.
#[must_use]
pub fn run_largen(seed: u64, seconds: f64) -> Measurement {
    let mut m = Measurement::default();
    let threads = worker_threads();
    let mut reference = [f64::NAN; 3];
    for _ in 0..SETUP_REPS {
        // Set-up: parse the specs, solve the continuum references, and
        // warm the solver (and its thread pool) with a small finite solve.
        let t = Instant::now();
        for arm in Arm::ALL {
            let spec = largen_spec(arm, seed, WARMUP_CALL, threads);
            match mean_field_load(&spec) {
                Ok(load) => reference[arm.index()] = load,
                Err(e) => m.fail(&format!("continuum {}: {e}", arm.name())),
            }
            let warm = LargenSpec {
                n: WARMUP_USERS,
                ..spec
            };
            if let Err(e) = warm.solve() {
                m.fail(&format!("warm-up {}: {e}", arm.name()));
            }
        }
        m.setup_s.push(secs(t.elapsed()));
    }
    let start = Instant::now();
    let mut call = 0;
    while another_round(start, call, seconds) {
        let mut round = 0.0;
        for arm in Arm::ALL {
            let spec = largen_spec(arm, seed, call, threads);
            let t = Instant::now();
            let out = spec.solve();
            let dt = secs(t.elapsed());
            m.attempted += 1;
            match out {
                Ok(o) => {
                    if let Err(e) =
                        check_largen(arm, o.n, o.load, o.converged, reference[arm.index()])
                    {
                        m.fail(&e);
                    }
                }
                Err(e) => m.fail(&e.to_string()),
            }
            m.arm_s[arm.index()].push(dt);
            round += dt;
            m.work += spec.n as f64;
            m.work_s += dt;
        }
        m.op_s.push(round);
        call += 1;
    }
    m.report.push(format!(
        "  N = {}, default 3 classes, {threads} solver threads",
        crate::inputs::LARGEN_N
    ));
    for arm in Arm::ALL {
        m.report.push(timing_line(
            &format!("{}_solve_s", arm.name()),
            "s",
            1.0,
            &m.arm_s[arm.index()],
        ));
    }
    m
}

/// One reply as a client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Client latency: request written to result record read.
    pub latency_s: f64,
    /// Records received for the request (accepted, progress, result).
    pub records: u32,
    /// Bytes received for the request.
    pub bytes: usize,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// [`digest`] of the result payload.
    pub digest: u64,
    /// The error record or transport failure, if any.
    pub error: Option<String>,
}

/// One served request: who sent it, what it was, what came back.
#[derive(Debug, Clone)]
pub struct Served {
    /// The request.
    pub request: ServeRequest,
    /// The reply.
    pub reply: Reply,
}

/// Everything one service session produced.
#[derive(Debug)]
pub struct Session {
    /// Service start plus connecting every client (with its warm-up
    /// requests).
    pub setup_s: f64,
    /// Wall time of the closed-loop phase.
    pub wall_s: f64,
    /// Every request, client by client, in send order.
    pub served: Vec<Served>,
    /// The service's cache counters after the run.
    pub stats: CacheStats,
}

/// The requests each connection sends during set-up, one of each kind
/// the workload computes, all outside its request stream.
const WARMUP_REQUESTS: [&str; 3] = [
    r#"{"kind":"table","id":"warm","rates":[0.1,0.2]}"#,
    r#"{"kind":"nash","id":"warm","discipline":"fs"}"#,
    r#"{"kind":"simulate","id":"warm","rates":[0.1,0.2],"horizon":1000}"#,
];

/// Per-request socket timeout: a request that takes longer fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Sends one line and reads records until its `result`, `error` or
/// `stats` record.
fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Reply {
    let mut reply = Reply {
        latency_s: 0.0,
        records: 0,
        bytes: 0,
        cached: false,
        digest: 0,
        error: None,
    };
    let t = Instant::now();
    if let Err(e) = stream.write_all(format!("{line}\n").as_bytes()) {
        reply.error = Some(format!("send: {e}"));
        return reply;
    }
    let mut record = String::new();
    loop {
        record.clear();
        match reader.read_line(&mut record) {
            Ok(0) => {
                reply.error = Some("connection closed mid-request".into());
                break;
            }
            Err(e) => {
                reply.error = Some(format!("receive: {e}"));
                break;
            }
            Ok(n) => {
                reply.records += 1;
                reply.bytes += n;
            }
        }
        let record = record.trim_end();
        if record.starts_with(r#"{"type":"result""#) {
            reply.cached = record.contains(r#""cached":true"#);
            reply.digest = record
                .split_once(r#","data":"#)
                .and_then(|(_, rest)| rest.strip_suffix('}'))
                .map_or(0, |payload| digest(payload.as_bytes()));
            break;
        }
        if record.starts_with(r#"{"type":"error""#) {
            reply.error = Some(record.to_string());
            break;
        }
        if record.starts_with(r#"{"type":"stats""#) {
            break;
        }
    }
    reply.latency_s = secs(t.elapsed());
    reply
}

/// Runs one service session: starts an in-process [`Service`] on
/// loopback TCP, connects `clients` closed-loop clients (each socket sets
/// `TCP_NODELAY`), lets each send requests for `seconds` (none when 0),
/// then shuts the service down and joins every thread. `on_reply` runs
/// on the client's thread after each reply, outside the timed interval.
///
/// # Errors
/// When the service cannot bind or a client cannot connect.
pub fn serve_session<F>(
    inputs: &ServeInputs,
    clients: usize,
    seconds: f64,
    on_reply: F,
) -> Result<Session, String>
where
    F: Fn(&ServeRequest, &Reply) + Sync,
{
    let t = Instant::now();
    let service = Service::new(ServeOptions {
        threads: clients,
        ..ServeOptions::default()
    });
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let server = scope.spawn(|| {
            service.serve_tcp("127.0.0.1:0", move |addr| {
                let _ = tx.send(addr);
            })
        });
        let Ok(addr) = rx.recv() else {
            let err = server.join().map(|r| r.err());
            return Err(format!("service failed to bind: {err:?}"));
        };
        let load = || -> Result<(f64, f64, Vec<Served>), String> {
            let mut conns = Vec::with_capacity(clients);
            for _ in 0..clients {
                let (mut stream, mut reader) =
                    connect(addr).map_err(|e| format!("connect: {e}"))?;
                for line in WARMUP_REQUESTS {
                    if let Some(e) = round_trip(&mut stream, &mut reader, line).error {
                        return Err(format!("warm-up: {e}"));
                    }
                }
                conns.push((stream, reader));
            }
            let setup_s = secs(t.elapsed());
            let start = Instant::now();
            let on_reply = &on_reply;
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(client, (mut stream, mut reader))| {
                    scope.spawn(move || {
                        let mut served = Vec::new();
                        let mut index = 0;
                        while secs(start.elapsed()) < seconds {
                            let request = inputs.request(client, index);
                            let reply = round_trip(&mut stream, &mut reader, &request.line);
                            on_reply(&request, &reply);
                            // An error record keeps the connection usable;
                            // a transport failure ends this client.
                            let broken =
                                reply.error.as_deref().is_some_and(|e| !e.starts_with('{'));
                            served.push(Served { request, reply });
                            if broken {
                                break;
                            }
                            index += 1;
                        }
                        served
                    })
                })
                .collect();
            let mut served = Vec::new();
            for h in handles {
                served.extend(h.join().map_err(|_| "client thread panicked".to_string())?);
            }
            Ok((setup_s, secs(start.elapsed()), served))
        };
        let loaded = load();
        // Shut the service down whether or not the load succeeded; every
        // client connection is closed by now.
        if let Ok((mut stream, mut reader)) = connect(addr) {
            let _ = round_trip(&mut stream, &mut reader, r#"{"kind":"shutdown"}"#);
        }
        server
            .join()
            .map_err(|_| "service thread panicked".to_string())?
            .map_err(|e| format!("service: {e}"))?;
        let (setup_s, wall_s, served) = loaded?;
        Ok(Session {
            setup_s,
            wall_s,
            served,
            stats: service.stats(),
        })
    })
}

/// Recomputes every distinct request's payload on fresh services (on
/// `threads` threads) and returns the payloads by request line.
fn fresh_payloads(lines: &[&str], threads: usize) -> BTreeMap<String, Result<String, String>> {
    let chunk = lines.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lines
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let fresh = Service::new(ServeOptions::default());
                    part.iter()
                        .map(|&line| {
                            let payload = Request::parse_line(line)
                                .and_then(|r| fresh.execute(&r.kind))
                                .map(|(p, _)| p)
                                .map_err(|e| e.to_string());
                            (line.to_string(), payload)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Checks every reply of a session: no error, and a payload
/// byte-identical to a fresh service's. Counts each reply in `m`.
pub fn verify_session(session: &Session, threads: usize, m: &mut Measurement) {
    let mut lines: Vec<&str> = session
        .served
        .iter()
        .map(|s| s.request.line.split_once(',').map_or("", |(_, body)| body))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    // The id never enters the payload, so the body stands for the request.
    let bodies: Vec<String> = lines.iter().map(|b| format!("{{{b}")).collect();
    let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
    let expected = fresh_payloads(&refs, threads);
    for s in &session.served {
        m.attempted += 1;
        if let Some(e) = &s.reply.error {
            m.fail(&format!("{}: {e}", s.request.line));
            continue;
        }
        let body = s.request.line.split_once(',').map_or("", |(_, b)| b);
        match expected.get(&format!("{{{body}")) {
            Some(Ok(payload)) => {
                if let Err(e) = check_serve(payload, s.reply.digest) {
                    m.fail(&format!("{}: {e}", s.request.line));
                }
            }
            Some(Err(e)) => m.fail(&format!("{}: fresh service failed: {e}", s.request.line)),
            None => m.fail(&format!("{}: no fresh payload", s.request.line)),
        }
    }
}

/// `serve_mixed`: two closed-loop clients against an in-process service
/// on loopback TCP for `seconds`, then every payload is checked against a
/// fresh service.
#[must_use]
pub fn run_serve(seed: u64, seconds: f64) -> Measurement {
    let mut m = Measurement::default();
    let clients = worker_threads();
    let inputs = ServeInputs::new(seed);
    // Set-up repetitions beyond the last are whole sessions with no load.
    for _ in 1..SETUP_REPS {
        match serve_session(&ServeInputs::new(seed), clients, 0.0, |_, _| {}) {
            Ok(s) => m.setup_s.push(s.setup_s),
            Err(e) => m.fail(&e),
        }
    }
    let session = match serve_session(&inputs, clients, seconds, |_, _| {}) {
        Ok(s) => s,
        Err(e) => {
            m.attempted += 1;
            m.fail(&e);
            return m;
        }
    };
    m.setup_s.push(session.setup_s);
    verify_session(&session, clients, &mut m);
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &session.served {
        let arm = match s.request.class {
            ServeClass::Simulate(arm) => Some(arm),
            _ => None,
        };
        if let Some(arm) = arm {
            m.arm_s[arm.index()].push(s.reply.latency_s);
        }
        m.op_s.push(s.reply.latency_s);
        let class = match (s.request.class, s.reply.cached) {
            (_, true) => "hit",
            (ServeClass::Table, _) => "table miss",
            (ServeClass::Nash, _) => "nash miss",
            (ServeClass::Simulate(_), _) => "simulate miss",
            (ServeClass::Hot(_), false) => "hot-set first miss",
        };
        by_class.entry(class).or_default().push(s.reply.latency_s);
    }
    m.work = session.served.len() as f64;
    m.work_s = session.wall_s;
    m.report.push(format!(
        "  {clients} closed-loop clients, {} requests in {:.3} s: serve_rps = {:.2} req/s",
        session.served.len(),
        session.wall_s,
        m.work / m.work_s
    ));
    m.report
        .push(timing_line("serve latency", "ms", 1e3, &m.op_s));
    for (class, times) in &by_class {
        m.report.push(timing_line(class, "ms", 1e3, times));
    }
    m.report.push(format!(
        "  cache: {} hits, {} misses, {} evictions",
        session.stats.hits, session.stats.misses, session.stats.evictions
    ));
    m
}
