//! The traced run: reports the per-layer metrics through public hooks of
//! each layer, apart from the end-to-end runner so that tracing never
//! touches the end-to-end figures.
//!
//! * DES: `Simulator::run_probed` with a benchmark-owned [`QDisc`]
//!   wrapper that times every discipline call, and a [`Probe`] that
//!   counts events, share changes, calendar fires and the backlog.
//!   Each traced call is paired with an untraced `SimulateSpec::outcome`
//!   on the same spec, which gives the tracing overhead.
//! * largen: `solve_finite_probed` with a probe that stamps every
//!   `MeanFieldSweep`.
//! * serve: the end-to-end TCP session, plus, for each request, the
//!   in-process stages on a shadow service — `Request::parse_line`,
//!   `RequestKind::cache_key`, `Service::execute` — whose sum, taken
//!   from the client latency, leaves the transport time.
//!
//! Every traced run prints the whole per-layer set. The workload's own
//! layers are traced on its inputs for `--seconds`; the layers it does
//! not exercise are traced once on their reference workload
//! (`des_backlog`, `largen_equilibrium`, `serve_mixed`) afterwards.
//! Spans (one per layer boundary crossing, per call or request) are kept
//! in memory and written as JSON lines to `traces/` beside this crate.

use greednet_des::scenarios::DisciplineKind;
use greednet_des::{
    ActivePacket, CalendarEvent, CalendarEventKind, PacketEvent, PacketEventKind, Probe, QDisc,
    SimConfig, SimResult, SimTime, Simulator,
};
use greednet_largen::{solve_finite_probed, ClassSpec, LargenDiscipline, SolveOptions};
use greednet_perfbench::checks::{check_largen, DesReference};
use greednet_perfbench::e2e::{another_round, serve_session, verify_session, Measurement};
use greednet_perfbench::inputs::{largen_spec, DesInputs, DesProfile, ServeClass, ServeInputs};
use greednet_perfbench::report::{finish, host_facts, Metric, RunResult};
use greednet_perfbench::stats::median;
use greednet_perfbench::{per_layer_metrics, worker_threads, Args, Arm, Workload};
use greednet_serve::ops::{build_kind, build_service, build_users, LargenSpec, SimulateSpec};
use greednet_serve::{Request, ServeOptions, Service};
use greednet_telemetry::SolverEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Seconds of serve load when serve is traced only as a reference layer.
const REFERENCE_SERVE_S: f64 = 2.0;

/// One span: a layer boundary crossing.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_us: f64,
    end_us: f64,
    attrs: Vec<(&'static str, f64)>,
}

/// In-memory span store, written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span from `start` to `end` and returns its id.
    fn span(
        &self,
        parent: Option<u64>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_us: self.us(start),
            end_us: self.us(end),
            attrs,
        });
        id
    }

    fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{workload}-seed{seed}.jsonl");
        let mut out = String::new();
        for s in self.spans.lock().expect("span store poisoned").iter() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","start_us":{:.3},"end_us":{:.3}"#,
                s.id, s.name, s.start_us, s.end_us
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, r#","{k}":{v}"#);
            }
            out.push_str("}\n");
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------
// des

/// Times every call into the wrapped discipline.
#[derive(Debug)]
struct TimedQDisc {
    inner: Box<dyn QDisc>,
    self_s: f64,
    shares_calls: u64,
    active_sum: u64,
}

impl TimedQDisc {
    fn new(inner: Box<dyn QDisc>) -> TimedQDisc {
        TimedQDisc {
            inner,
            self_s: 0.0,
            shares_calls: 0,
            active_sum: 0,
        }
    }
}

impl QDisc for TimedQDisc {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, pkt: &ActivePacket, now: SimTime) {
        let t = Instant::now();
        self.inner.on_arrival(pkt, now);
        self.self_s += t.elapsed().as_secs_f64();
    }

    fn on_departure(&mut self, pkt: &ActivePacket, now: SimTime) {
        let t = Instant::now();
        self.inner.on_departure(pkt, now);
        self.self_s += t.elapsed().as_secs_f64();
    }

    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        let t = Instant::now();
        self.inner.shares(active, now, out);
        self.self_s += t.elapsed().as_secs_f64();
        self.shares_calls += 1;
        self.active_sum += active.len() as u64;
    }
}

/// Counts what the engine reports through its probe hooks.
#[derive(Debug, Default)]
struct DesProbe {
    events: u64,
    arrivals: u64,
    arrival_backlog: u64,
    backlog_max: usize,
    share_changes: u64,
    fires: u64,
}

impl Probe for DesProbe {
    fn on_packet(&mut self, e: &PacketEvent) {
        self.events += 1;
        match e.kind {
            PacketEventKind::Arrival { .. } => {
                // The arrival sees the backlog without itself (PASTA).
                self.arrivals += 1;
                self.arrival_backlog += e.queue_len as u64;
                self.backlog_max = self.backlog_max.max(e.queue_len + 1);
            }
            PacketEventKind::ServiceStart | PacketEventKind::Preemption => {
                self.share_changes += 1;
            }
            _ => self.backlog_max = self.backlog_max.max(e.queue_len),
        }
    }

    fn on_calendar(&mut self, e: &CalendarEvent) {
        if e.kind == CalendarEventKind::Fire {
            self.fires += 1;
        }
    }
}

/// Per-arm sums over traced DES calls.
#[derive(Debug, Default, Clone)]
struct DesLayer {
    calls: u64,
    qdisc_s: f64,
    traced_s: f64,
    untraced_s: f64,
    shares_calls: u64,
    active_sum: u64,
    events: u64,
    arrivals: u64,
    arrival_backlog: u64,
    backlog_max: usize,
    share_changes: u64,
    fires: u64,
}

/// Runs `spec` the way `SimulateSpec::outcome` does, through the probed
/// engine with the discipline wrapped.
fn traced_simulate(spec: &SimulateSpec) -> Result<(SimResult, TimedQDisc, DesProbe, f64), String> {
    let kind: DisciplineKind = build_kind(&spec.discipline).map_err(|e| e.to_string())?;
    let service = build_service(&spec.service).map_err(|e| e.to_string())?;
    let cfg = SimConfig::builder(spec.rates.clone())
        .horizon(spec.horizon)
        .seed(spec.seed)
        .service(service)
        .allow_overload(true)
        .build()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let sim = Simulator::new(cfg).map_err(|e| e.to_string())?;
    let inner = kind
        .build(&spec.rates, spec.seed ^ 0xC11)
        .map_err(|e| e.to_string())?;
    let mut qdisc = TimedQDisc::new(inner);
    let mut probe = DesProbe::default();
    let result = sim
        .run_probed(&mut qdisc, &mut probe)
        .map_err(|e| e.to_string())?;
    Ok((result, qdisc, probe, t.elapsed().as_secs_f64()))
}

/// Traces DES calls round-robin over the arms: each untraced, then traced.
/// `rounds` bounds the rounds (`None`: until `seconds` have passed).
fn trace_des(
    inputs: &DesInputs,
    seconds: f64,
    rounds: Option<u64>,
    tracer: &Tracer,
    m: &mut Measurement,
) -> [DesLayer; 3] {
    let reference = DesReference::new(inputs);
    let mut layers: [DesLayer; 3] = Default::default();
    let mut mismatched = 0u64;
    let start = Instant::now();
    let mut call = 0;
    while rounds.map_or_else(|| another_round(start, call, seconds), |r| call < r) {
        for arm in Arm::ALL {
            let spec = inputs.spec(arm, call);
            let t0 = Instant::now();
            let untraced = spec.outcome();
            let t1 = Instant::now();
            let traced = traced_simulate(&spec);
            let t2 = Instant::now();
            m.attempted += 1;
            let (Ok(untraced), Ok((result, qdisc, probe, wall))) = (untraced, traced) else {
                m.failed += 1;
                continue;
            };
            // The traced result is checked in the untraced outcome's shape.
            let mut checked = untraced;
            for (row, &q) in checked.rows.iter_mut().zip(&result.mean_queue) {
                if row.mean_queue.to_bits() != q.to_bits() {
                    mismatched += 1;
                }
                row.mean_queue = q;
            }
            if let Err(e) = reference.check(arm, &checked) {
                eprintln!("check failed (traced {}): {e}", arm.des_label());
                m.failed += 1;
            }
            let label = arm.des_label();
            tracer.span(None, format!("des.simulate.{label}"), t0, t1, vec![]);
            let id = tracer.span(
                None,
                format!("des.simulate_traced.{label}"),
                t1,
                t2,
                vec![("events", probe.events as f64)],
            );
            tracer.span(
                Some(id),
                format!("des.qdisc.{label}"),
                t1,
                t2,
                vec![
                    ("self_s", qdisc.self_s),
                    ("shares_calls", qdisc.shares_calls as f64),
                ],
            );
            let l = &mut layers[arm.index()];
            l.calls += 1;
            l.qdisc_s += qdisc.self_s;
            l.traced_s += wall;
            l.untraced_s += (t1 - t0).as_secs_f64();
            l.shares_calls += qdisc.shares_calls;
            l.active_sum += qdisc.active_sum;
            l.events += probe.events;
            l.arrivals += probe.arrivals;
            l.arrival_backlog += probe.arrival_backlog;
            l.backlog_max = l.backlog_max.max(probe.backlog_max);
            l.share_changes += probe.share_changes;
            l.fires += probe.fires;
        }
        call += 1;
    }
    if mismatched > 0 {
        eprintln!("note: {mismatched} traced DES queues differ bitwise from SimulateSpec::outcome");
    }
    layers
}

fn des_metrics(layers: &[DesLayer; 3], out: &mut BTreeMap<String, f64>, report: &mut Vec<String>) {
    for arm in Arm::ALL {
        let l = &layers[arm.index()];
        let per_call = |x: f64| x / l.calls.max(1) as f64;
        let label = arm.des_label();
        let values = [
            ("des.qdisc.self_s", per_call(l.qdisc_s)),
            ("des.qdisc.calls", per_call(l.shares_calls as f64)),
            (
                "des.qdisc.active_mean",
                l.active_sum as f64 / l.shares_calls.max(1) as f64,
            ),
            ("des.engine.self_s", per_call(l.traced_s - l.qdisc_s)),
            ("des.events", per_call(l.events as f64)),
            (
                "des.backlog_mean",
                l.arrival_backlog as f64 / l.arrivals.max(1) as f64,
            ),
            ("des.backlog_max", l.backlog_max as f64),
            ("des.share_changes", per_call(l.share_changes as f64)),
            ("des.calendar.fires", per_call(l.fires as f64)),
            ("des.trace_overhead", l.traced_s / l.untraced_s),
        ];
        for (stem, v) in values {
            out.insert(format!("{stem}.{label}"), v);
        }
        report.push(format!(
            "  des {label:<9} {} traced calls: qdisc {:.1}% of traced time, backlog mean {:.1} max {}, overhead x{:.3}",
            l.calls,
            100.0 * l.qdisc_s / l.traced_s,
            l.arrival_backlog as f64 / l.arrivals.max(1) as f64,
            l.backlog_max,
            l.traced_s / l.untraced_s
        ));
    }
}

// ---------------------------------------------------------------------
// largen

/// Stamps every Jacobi sweep of the finite-N solver.
struct SweepProbe {
    last: Instant,
    sweep_s: Vec<f64>,
}

impl Probe for SweepProbe {
    fn on_solver(&mut self, e: &SolverEvent) {
        if let SolverEvent::MeanFieldSweep { .. } = e {
            let now = Instant::now();
            self.sweep_s.push((now - self.last).as_secs_f64());
            self.last = now;
        }
    }
}

#[derive(Debug, Default, Clone)]
struct LargenLayer {
    solves: u64,
    sweeps: u64,
    solve_s: f64,
    users: f64,
    sweep_s: Vec<f64>,
}

/// Solves `spec` the way `LargenSpec::solve` does for `n >= 1`, through
/// the probed finite-N solver.
fn traced_largen(spec: &LargenSpec, probe: &mut SweepProbe) -> Result<(f64, u32, bool), String> {
    let disc = LargenDiscipline::parse(&spec.discipline)
        .ok_or_else(|| format!("unknown discipline {}", spec.discipline))?;
    let utilities = build_users(&spec.classes).map_err(|e| e.to_string())?;
    let k = utilities.len() as f64;
    let classes: Vec<ClassSpec> = utilities
        .into_iter()
        .map(|u| ClassSpec::new(u, 1.0 / k))
        .collect();
    let n = usize::try_from(spec.n).map_err(|e| e.to_string())?;
    let sol = solve_finite_probed(
        disc,
        &classes,
        n,
        spec.seed,
        spec.threads.max(1),
        &SolveOptions::default(),
        probe,
    )
    .map_err(|e| e.to_string())?;
    Ok((sol.load, sol.sweeps, sol.converged))
}

fn trace_largen(
    seed: u64,
    seconds: f64,
    rounds: Option<u64>,
    tracer: &Tracer,
    m: &mut Measurement,
) -> [LargenLayer; 3] {
    let threads = worker_threads();
    let mut layers: [LargenLayer; 3] = Default::default();
    let mut reference = [f64::NAN; 3];
    for arm in Arm::ALL {
        let continuum = LargenSpec {
            n: 0,
            ..largen_spec(arm, seed, 0, threads)
        };
        match continuum.solve() {
            Ok(o) => reference[arm.index()] = o.load,
            Err(e) => eprintln!("continuum {}: {e}", arm.name()),
        }
    }
    let start = Instant::now();
    let mut call = 0;
    while rounds.map_or_else(|| another_round(start, call, seconds), |r| call < r) {
        for arm in Arm::ALL {
            let spec = largen_spec(arm, seed, call, threads);
            let t0 = Instant::now();
            let mut probe = SweepProbe {
                last: t0,
                sweep_s: Vec::new(),
            };
            let solved = traced_largen(&spec, &mut probe);
            let t1 = Instant::now();
            m.attempted += 1;
            let Ok((load, sweeps, converged)) = solved else {
                m.failed += 1;
                continue;
            };
            if let Err(e) = check_largen(arm, spec.n, load, converged, reference[arm.index()]) {
                eprintln!("check failed (traced largen): {e}");
                m.failed += 1;
            }
            let id = tracer.span(
                None,
                format!("largen.solve.{}", arm.name()),
                t0,
                t1,
                vec![("sweeps", f64::from(sweeps))],
            );
            let mut at = t0;
            for &d in &probe.sweep_s {
                let end = at + std::time::Duration::from_secs_f64(d);
                tracer.span(
                    Some(id),
                    format!("largen.sweep.{}", arm.name()),
                    at,
                    end,
                    vec![],
                );
                at = end;
            }
            let l = &mut layers[arm.index()];
            l.solves += 1;
            l.sweeps += u64::from(sweeps);
            l.solve_s += (t1 - t0).as_secs_f64();
            l.users += spec.n as f64 * f64::from(sweeps);
            l.sweep_s.extend(probe.sweep_s);
        }
        call += 1;
    }
    layers
}

fn largen_metrics(
    layers: &[LargenLayer; 3],
    out: &mut BTreeMap<String, f64>,
    report: &mut Vec<String>,
) {
    for arm in Arm::ALL {
        let l = &layers[arm.index()];
        let name = arm.name();
        let sweep_ms = median(&l.sweep_s).map_or(f64::NAN, |s| s * 1e3);
        out.insert(
            format!("largen.sweeps.{name}"),
            l.sweeps as f64 / l.solves.max(1) as f64,
        );
        out.insert(format!("largen.sweep_ms.{name}"), sweep_ms);
        out.insert(format!("largen.users_per_s.{name}"), l.users / l.solve_s);
        report.push(format!(
            "  largen {name:<4} {} solves, {:.1} sweeps each, median sweep {sweep_ms:.3} ms",
            l.solves,
            l.sweeps as f64 / l.solves.max(1) as f64
        ));
    }
}

// ---------------------------------------------------------------------
// serve

#[derive(Debug, Default)]
struct ServeLayer {
    transport_s: Vec<f64>,
    compute_s: BTreeMap<&'static str, Vec<f64>>,
    parse_s: Vec<f64>,
    key_s: Vec<f64>,
    hit_s: Vec<f64>,
    records: u64,
    bytes: u64,
    requests: u64,
}

fn trace_serve(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    m: &mut Measurement,
) -> (ServeLayer, f64, f64) {
    let clients = worker_threads();
    let shadow = Service::new(ServeOptions::default());
    let layer = Mutex::new(ServeLayer::default());
    let inputs = ServeInputs::new(seed);
    let session = serve_session(&inputs, clients, seconds, |req, reply| {
        let end = Instant::now();
        let t0 = Instant::now();
        let parsed = Request::parse_line(&req.line);
        let t1 = Instant::now();
        let Ok(parsed) = parsed else { return };
        let key = parsed.kind.cache_key();
        let t2 = Instant::now();
        let executed = shadow.execute(&parsed.kind);
        let t3 = Instant::now();
        let stage_s = (t3 - t0).as_secs_f64();
        let start = end - std::time::Duration::from_secs_f64(reply.latency_s);
        let id = tracer.span(
            None,
            "serve.request",
            start,
            end,
            vec![
                ("records", f64::from(reply.records)),
                ("bytes", reply.bytes as f64),
                ("key_found", f64::from(u8::from(key.is_some()))),
            ],
        );
        tracer.span(Some(id), "serve.parse", t0, t1, vec![]);
        tracer.span(Some(id), "serve.key", t1, t2, vec![]);
        let cached = matches!(executed, Ok((_, true)));
        tracer.span(
            Some(id),
            if cached {
                "serve.cache_hit"
            } else {
                "serve.compute"
            },
            t2,
            t3,
            vec![],
        );
        let mut l = layer.lock().expect("serve layer poisoned");
        l.transport_s.push(reply.latency_s - stage_s);
        l.parse_s.push((t1 - t0).as_secs_f64());
        l.key_s.push((t2 - t1).as_secs_f64());
        let exec_s = (t3 - t2).as_secs_f64();
        match (cached, req.class) {
            (true, _) => l.hit_s.push(exec_s),
            (false, ServeClass::Table) => l.compute_s.entry("table").or_default().push(exec_s),
            (false, ServeClass::Nash) => l.compute_s.entry("nash").or_default().push(exec_s),
            (false, ServeClass::Simulate(_)) => {
                l.compute_s.entry("simulate").or_default().push(exec_s);
            }
            (false, ServeClass::Hot(_)) => {}
        }
        l.records += u64::from(reply.records);
        l.bytes += reply.bytes as u64;
        l.requests += 1;
    });
    let layer = layer.into_inner().expect("serve layer poisoned");
    match session {
        Ok(s) => {
            verify_session(&s, clients, m);
            let hit_ratio = s.stats.hits as f64 / (s.stats.hits + s.stats.misses).max(1) as f64;
            (layer, hit_ratio, s.stats.evictions as f64)
        }
        Err(e) => {
            eprintln!("serve session failed: {e}");
            m.attempted += 1;
            m.failed += 1;
            (layer, f64::NAN, f64::NAN)
        }
    }
}

fn serve_metrics(
    traced: &(ServeLayer, f64, f64),
    out: &mut BTreeMap<String, f64>,
    report: &mut Vec<String>,
) {
    let (l, hit_ratio, evictions) = traced;
    let med = |v: &[f64], scale: f64| median(v).map_or(f64::NAN, |x| x * scale);
    let per_req = |x: u64| x as f64 / l.requests.max(1) as f64;
    let compute = |kind: &str| med(l.compute_s.get(kind).map_or(&[][..], Vec::as_slice), 1e3);
    let values = [
        ("serve.transport_ms", med(&l.transport_s, 1e3)),
        ("serve.compute_ms.table", compute("table")),
        ("serve.compute_ms.nash", compute("nash")),
        ("serve.compute_ms.simulate", compute("simulate")),
        ("serve.parse_us", med(&l.parse_s, 1e6)),
        ("serve.key_us", med(&l.key_s, 1e6)),
        ("serve.hit_us", med(&l.hit_s, 1e6)),
        ("serve.hit_ratio", *hit_ratio),
        ("serve.evictions", *evictions),
        ("serve.records_per_req", per_req(l.records)),
        ("serve.bytes_per_req", per_req(l.bytes)),
    ];
    for (name, v) in values {
        out.insert(name.to_string(), v);
    }
    report.push(format!(
        "  serve {} requests: transport median {:.3} ms of each request",
        l.requests,
        med(&l.transport_s, 1e3)
    ));
}

// ---------------------------------------------------------------------

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if a.trace => a,
        Ok(_) => {
            eprintln!("perfbench-trace is the traced run; the untraced run is perfbench");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!("{}", host_facts());
    eprintln!(
        "workload {} seed {} for {} s (traced)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let tracer = Tracer::new();
    let mut m = Measurement::default();
    let mut values = BTreeMap::new();
    let mut report = Vec::new();
    let (seed, secs) = (args.seed, args.seconds);
    let des_profile = match args.workload {
        Workload::DesManyUsers => DesProfile::ManyUsers,
        _ => DesProfile::Backlog,
    };
    let own = |w: Workload| args.workload == w;
    // The workload's own layers first, for `--seconds`; then one round of
    // each layer it does not exercise, on its reference workload.
    let order: [u8; 3] = match args.workload {
        Workload::LargenEquilibrium => [1, 0, 2],
        Workload::ServeMixed => [2, 0, 1],
        _ => [0, 1, 2],
    };
    for layer in order {
        match layer {
            0 => {
                let is_own = own(Workload::DesBacklog) || own(Workload::DesManyUsers);
                let inputs = DesInputs::new(des_profile, seed);
                let rounds = (!is_own).then_some(1);
                let layers = trace_des(&inputs, secs, rounds, &tracer, &mut m);
                des_metrics(&layers, &mut values, &mut report);
            }
            1 => {
                let rounds = (!own(Workload::LargenEquilibrium)).then_some(1);
                let layers = trace_largen(seed, secs, rounds, &tracer, &mut m);
                largen_metrics(&layers, &mut values, &mut report);
            }
            _ => {
                let s = if own(Workload::ServeMixed) {
                    secs
                } else {
                    REFERENCE_SERVE_S
                };
                let traced = trace_serve(seed, s, &tracer, &mut m);
                serve_metrics(&traced, &mut values, &mut report);
            }
        }
    }
    for line in &report {
        eprintln!("{line}");
    }
    match tracer.write(args.workload.name(), seed) {
        Ok(path) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    let expected = per_layer_metrics();
    let metrics = expected
        .iter()
        .map(|(name, unit)| Metric {
            name: name.clone(),
            unit,
            value: values.get(name).copied().unwrap_or(f64::NAN),
        })
        .collect();
    let result = RunResult {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    };
    std::process::exit(finish(&result, &expected));
}
