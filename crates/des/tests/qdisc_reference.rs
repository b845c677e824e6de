//! Bitwise pin of the queue-based selection in `greednet_des::qdisc`.
//!
//! `PreemptivePriority`, `FsPriorityTable` and `StartTimeFairQueueing`
//! keep their selection state in the arrival/departure hooks: one FIFO
//! queue of packet ids per priority level, and an ordered set of SFQ start
//! tags. Before that, every `shares` call rescanned all active packets and
//! looked each one up in a per-packet `BTreeMap`. `engine_equivalence.rs`
//! hands the same `QDisc` to both of its engines, so it cannot see a change
//! in which packet a discipline picks; this file can.
//!
//! Module `scan` is a verbatim copy of the scan-based disciplines (the
//! same random draw per arrival). The tests assert that
//! - `Simulator::run` gives bitwise-equal `SimResult`s, scan against queue,
//!   on E9-, T1-, backlog-, service-law- and 200-user-shaped configurations;
//! - a random sequence of arrivals, departures and `shares` calls gives the
//!   same share vector at every step.

use greednet_des::qdisc::{FsPriorityTable, PreemptivePriority, QDisc, StartTimeFairQueueing};
use greednet_des::{ActivePacket, ServiceDist, SimConfig, SimResult, SimTime, Simulator, Work};
use proptest::prelude::*;

/// The scan-based disciplines, copied verbatim (paths aside).
mod scan {
    use greednet_des::rng::ExpStream;
    use greednet_des::{ActivePacket, DesError, QDisc, Result, SimTime};
    use greednet_queueing::fair_share::priority_table;
    use std::collections::BTreeMap;

    fn single_share(out: &mut Vec<f64>, len: usize, winner: usize) {
        out.clear();
        out.resize(len, 0.0);
        out[winner] = 1.0;
    }

    fn oldest(
        active: &[ActivePacket],
        mut eligible: impl FnMut(&ActivePacket) -> bool,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (idx, p) in active.iter().enumerate() {
            if !eligible(p) {
                continue;
            }
            match best {
                None => best = Some(idx),
                Some(b) => {
                    if p.id < active[b].id {
                        best = Some(idx);
                    }
                }
            }
        }
        best
    }

    /// Preemptive-resume head-of-line priority by *user class*: user `u` has
    /// fixed priority `class[u]` (smaller = served first); FIFO within class.
    /// With classes ordered by ascending rate this induces the serial
    /// allocation `c_(k) = g(Λ_k) − g(Λ_{k−1})`.
    #[derive(Debug, Clone)]
    pub struct PreemptivePriority {
        pub(crate) class: Vec<usize>,
    }

    impl PreemptivePriority {
        /// Priority by explicit classes (smaller class = higher priority).
        ///
        /// # Errors
        /// [`DesError::InvalidDiscipline`] if `class` is empty.
        pub fn new(class: Vec<usize>) -> Result<Self> {
            if class.is_empty() {
                return Err(DesError::InvalidDiscipline {
                    detail: "no user classes".into(),
                });
            }
            Ok(PreemptivePriority { class })
        }

        /// Classes assigned by ascending rate (lightest user = highest
        /// priority), the ordering that realizes the serial allocation.
        pub fn by_ascending_rate(rates: &[f64]) -> Result<Self> {
            if rates.is_empty() {
                return Err(DesError::InvalidDiscipline {
                    detail: "no users".into(),
                });
            }
            let mut order: Vec<usize> = (0..rates.len()).collect();
            // Total comparator (GN07): identical to `partial_cmp` on the
            // finite rates SimConfig validates; NaN would sort last instead of
            // silently breaking the priority ranking.
            order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]));
            let mut class = vec![0usize; rates.len()];
            for (rank, &u) in order.iter().enumerate() {
                class[u] = rank;
            }
            Ok(PreemptivePriority { class })
        }
    }

    impl QDisc for PreemptivePriority {
        fn name(&self) -> &'static str {
            "preemptive priority"
        }
        fn on_arrival(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
        fn on_departure(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
        fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
            out.clear();
            if active.is_empty() {
                return;
            }
            let Some(best_class) = active.iter().map(|p| self.class[p.user]).min() else {
                return;
            };
            if let Some(idx) = oldest(active, |p| self.class[p.user] == best_class) {
                single_share(out, active.len(), idx);
            }
        }
    }

    /// The paper's **Table 1** discipline: each arriving packet of user `u` is
    /// assigned a priority *level* with probability proportional to user `u`'s
    /// per-level rate in the Fair Share priority table; levels are then served
    /// by preemptive-resume priority (FIFO within level). Realizes the Fair
    /// Share allocation function packet-by-packet.
    #[derive(Debug)]
    pub struct FsPriorityTable {
        /// Per-user cumulative level probabilities.
        cumulative: Vec<Vec<f64>>,
        /// Per-packet assigned priority level, keyed by packet id. A
        /// `BTreeMap` (not `HashMap`): the map is consulted during the
        /// deterministic event loop, and ordered containers keep every code
        /// path (including any future iteration) independent of process-level
        /// hash seeds (GN01).
        pub(crate) levels: BTreeMap<u64, usize>,
        rng: ExpStream,
    }

    impl FsPriorityTable {
        /// Builds the Table 1 discipline for the given *declared* rates. The
        /// actual traffic should match the declared rates for the allocation
        /// to be exact (the engine passes the same rate vector to both).
        ///
        /// # Errors
        /// [`DesError::InvalidDiscipline`] if `rates` is empty.
        pub fn new(rates: &[f64], seed: u64) -> Result<Self> {
            if rates.is_empty() {
                return Err(DesError::InvalidDiscipline {
                    detail: "no users".into(),
                });
            }
            let table = priority_table(rates);
            let cumulative = table
                .iter()
                .map(|row| {
                    let total: f64 = row.iter().sum();
                    let mut acc = 0.0;
                    row.iter()
                        .map(|&x| {
                            acc += if total > 0.0 { x / total } else { 0.0 };
                            acc
                        })
                        .collect::<Vec<f64>>()
                })
                .map(|mut c| {
                    if let Some(last) = c.last_mut() {
                        *last = 1.0; // guard against rounding
                    }
                    c
                })
                .collect();
            Ok(FsPriorityTable {
                cumulative,
                levels: BTreeMap::new(),
                rng: ExpStream::new(seed),
            })
        }
    }

    impl QDisc for FsPriorityTable {
        fn name(&self) -> &'static str {
            "fair share (Table 1)"
        }
        fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
            let u = self.rng.uniform();
            let cum = &self.cumulative[pkt.user];
            let level = cum.iter().position(|&c| u < c).unwrap_or(cum.len() - 1);
            self.levels.insert(pkt.id, level);
        }
        fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
            self.levels.remove(&pkt.id);
        }
        fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
            out.clear();
            if active.is_empty() {
                return;
            }
            // Every active packet got a level in `on_arrival`; a missing id
            // would mean the engine skipped the arrival hook, so fall back to
            // treating such a packet as lowest priority rather than panic.
            debug_assert!(active.iter().all(|p| self.levels.contains_key(&p.id)));
            let level_of = |p: &ActivePacket| self.levels.get(&p.id).copied().unwrap_or(usize::MAX);
            let Some(best_level) = active.iter().map(level_of).min() else {
                return;
            };
            if let Some(idx) = oldest(active, |p| level_of(p) == best_level) {
                single_share(out, active.len(), idx);
            }
        }
    }

    /// Start-time Fair Queueing (SFQ): a practical, non-preemptive
    /// approximation of head-of-line processor sharing in the spirit of the
    /// Fair Queueing of Demers–Keshav–Shenker \[3\] discussed in §5.2. Each
    /// packet gets a start tag `S = max(v, F_prev(user))` and finish tag
    /// `F = S + size`; the server (non-preemptively) serves the packet with
    /// the smallest start tag and the virtual time `v` is the start tag of the
    /// packet in service.
    #[derive(Debug)]
    pub struct StartTimeFairQueueing {
        v: f64,
        finish_prev: Vec<f64>,
        /// Per-packet start tag, keyed by packet id. Ordered (`BTreeMap`) for
        /// the same determinism reason as [`FsPriorityTable::levels`] (GN01).
        start_tags: BTreeMap<u64, f64>,
        current: Option<u64>,
    }

    impl StartTimeFairQueueing {
        /// Creates the SFQ discipline for `n` users.
        ///
        /// # Errors
        /// [`DesError::InvalidDiscipline`] if `n == 0`.
        pub fn new(n: usize) -> Result<Self> {
            if n == 0 {
                return Err(DesError::InvalidDiscipline {
                    detail: "no users".into(),
                });
            }
            Ok(StartTimeFairQueueing {
                v: 0.0,
                finish_prev: vec![0.0; n],
                start_tags: BTreeMap::new(),
                current: None,
            })
        }
    }

    impl QDisc for StartTimeFairQueueing {
        fn name(&self) -> &'static str {
            "fair queueing (SFQ)"
        }
        fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
            let s = self.v.max(self.finish_prev[pkt.user]);
            self.start_tags.insert(pkt.id, s);
            self.finish_prev[pkt.user] = s + pkt.size.get();
        }
        fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
            self.start_tags.remove(&pkt.id);
            if self.current == Some(pkt.id) {
                self.current = None;
            }
        }
        fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
            out.clear();
            if active.is_empty() {
                return;
            }
            // Non-preemptive: stick with the packet in service if still present.
            if let Some(cur) = self.current {
                if let Some(idx) = active.iter().position(|p| p.id == cur) {
                    single_share(out, active.len(), idx);
                    return;
                }
                self.current = None;
            }
            // Tags are assigned in `on_arrival`; a missing id would mean the
            // engine skipped the hook, so such a packet sorts last instead of
            // panicking.
            debug_assert!(active.iter().all(|p| self.start_tags.contains_key(&p.id)));
            let tag_of =
                |p: &ActivePacket| self.start_tags.get(&p.id).copied().unwrap_or(f64::INFINITY);
            let Some(idx) = active
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| tag_of(a).total_cmp(&tag_of(b)).then(a.id.cmp(&b.id)))
                .map(|(i, _)| i)
            else {
                return;
            };
            self.current = Some(active[idx].id);
            self.v = tag_of(&active[idx]);
            single_share(out, active.len(), idx);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Ascending-rate priority (the serial allocation).
    Priority,
    /// Explicit sparse classes with ties, `[0, 30, 20, 10, 0, 30, ...]`.
    Classes,
    FsTable,
    Sfq,
}

const KINDS: [Kind; 4] = [Kind::Priority, Kind::Classes, Kind::FsTable, Kind::Sfq];

fn sparse_classes(users: usize) -> Vec<usize> {
    (0..users).map(|u| u * 3 % 4 * 10).collect()
}

/// The queue-based discipline and its scan-based reference, built alike.
fn pair(kind: Kind, rates: &[f64], seed: u64) -> (Box<dyn QDisc>, Box<dyn QDisc>) {
    match kind {
        Kind::Priority => (
            Box::new(PreemptivePriority::by_ascending_rate(rates).expect("discipline")),
            Box::new(scan::PreemptivePriority::by_ascending_rate(rates).expect("discipline")),
        ),
        Kind::Classes => (
            Box::new(PreemptivePriority::new(sparse_classes(rates.len())).expect("discipline")),
            Box::new(
                scan::PreemptivePriority::new(sparse_classes(rates.len())).expect("discipline"),
            ),
        ),
        Kind::FsTable => (
            Box::new(FsPriorityTable::new(rates, seed).expect("discipline")),
            Box::new(scan::FsPriorityTable::new(rates, seed).expect("discipline")),
        ),
        Kind::Sfq => (
            Box::new(StartTimeFairQueueing::new(rates.len()).expect("discipline")),
            Box::new(scan::StartTimeFairQueueing::new(rates.len()).expect("discipline")),
        ),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every field of a `SimResult` as bit patterns, by name.
fn fields(r: &SimResult) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("mean_queue", bits(&r.mean_queue)),
        ("mean_delay", bits(&r.mean_delay)),
        ("throughput", bits(&r.throughput)),
        ("completed", r.completed.clone()),
        ("total_mean_queue", vec![r.total_mean_queue.to_bits()]),
        ("events", vec![r.events]),
        ("measured_time", vec![r.measured_time.get().to_bits()]),
        (
            "delay_percentiles",
            r.delay_percentiles
                .iter()
                .flat_map(|&(a, b, c)| [a.to_bits(), b.to_bits(), c.to_bits()])
                .collect(),
        ),
        ("total_queue_dist", bits(&r.total_queue_dist)),
        (
            "queue_ci",
            r.queue_ci
                .iter()
                .flat_map(|ci| {
                    [
                        ci.mean.to_bits(),
                        ci.half_width.to_bits(),
                        ci.batches as u64,
                    ]
                })
                .collect(),
        ),
    ]
}

/// Runs `cfg` under every kind, queue-based against scan-based, and
/// compares every `SimResult` field bit for bit.
fn assert_same_runs(cfg: &SimConfig, what: &str) {
    let rates = cfg.rate_values();
    let sim = Simulator::new(cfg.clone()).expect("valid config");
    for kind in KINDS {
        let (mut queued, mut scanned) = pair(kind, &rates, cfg.seed ^ 0xE0);
        let new = sim.run(queued.as_mut()).expect("simulation runs");
        let old = sim.run(scanned.as_mut()).expect("simulation runs");
        assert!(new.events > 0, "{what} {kind:?}: empty run");
        for ((name, a), (_, b)) in fields(&new).into_iter().zip(fields(&old)) {
            assert_eq!(a, b, "{what} {kind:?}: {name} differs from the scan");
        }
    }
}

#[test]
fn e9_rates_match_the_scan_for_every_seed() {
    for seed in 0..9u64 {
        let cfg = SimConfig::new(vec![0.08, 0.22, 0.35], 3_000.0, seed);
        assert_same_runs(&cfg, &format!("E9 seed {seed}"));
    }
}

#[test]
fn t1_overload_matches_the_scan() {
    for seed in 0..3u64 {
        let mut cfg = SimConfig::new(vec![0.1, 1.5], 2_000.0, seed);
        cfg.allow_overload = true;
        assert_same_runs(&cfg, &format!("T1 overload seed {seed}"));
    }
}

#[test]
fn backlogged_protection_shape_matches_the_scan() {
    // Victim, greedy and light user at load 0.98: backlog in the tens.
    for seed in 0..3u64 {
        let mut cfg = SimConfig::new(vec![0.1, 0.83, 0.05], 5_000.0, seed);
        cfg.allow_overload = true;
        assert_same_runs(&cfg, &format!("backlog seed {seed}"));
    }
}

#[test]
fn service_laws_match_the_scan() {
    for (service, name) in [
        (ServiceDist::Deterministic, "D"),
        (ServiceDist::Erlang(3), "E3"),
        (ServiceDist::Hyperexponential { cs2: 4.0 }, "H2"),
    ] {
        let mut cfg = SimConfig::new(vec![0.2, 0.3, 0.25], 2_500.0, 42);
        cfg.service = service;
        assert_same_runs(&cfg, &format!("service {name}"));
    }
}

#[test]
fn two_hundred_users_match_the_scan() {
    // Unequal rates 1..=200 scaled to load 0.9: 200 priority levels.
    let n = 200;
    let scale = 0.9 / (n * (n + 1) / 2) as f64;
    let rates: Vec<f64> = (1..=n).map(|i| i as f64 * scale).collect();
    assert_same_runs(&SimConfig::new(rates, 1_500.0, 11), "200 users");
}

/// One step of a hook sequence.
#[derive(Debug, Clone)]
enum Op {
    /// A packet of `user` with `size` arrives.
    Arrive { user: usize, size: f64 },
    /// The packet the discipline serves completes.
    DepartServed,
    /// The active packet at `pick % k` leaves.
    DepartAny { pick: usize },
    /// The engine asks for shares.
    Shares,
}

fn ops(users: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..8, 0..users, 0.05..3.0f64, 0usize..1_000).prop_map(
            |(tag, user, size, pick)| match tag {
                0..=2 => Op::Arrive { user, size },
                3 | 4 => Op::DepartServed,
                5 => Op::DepartAny { pick },
                _ => Op::Shares,
            },
        ),
        1..160,
    )
}

fn workload() -> impl Strategy<Value = (Vec<f64>, u64, Vec<Op>)> {
    (proptest::collection::vec(0.01..0.3f64, 1..=5), 0u64..10_000).prop_flat_map(|(rates, seed)| {
        let users = rates.len();
        (Just(rates), Just(seed), ops(users))
    })
}

/// Drives both disciplines through `ops` and checks that every `shares`
/// call picks the same packet. Departures use `swap_remove`, as the engine
/// does, so the active order differs from the id order.
fn replay(kind: Kind, rates: &[f64], seed: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut queued, mut scanned) = pair(kind, rates, seed);
    let mut active: Vec<ActivePacket> = Vec::new();
    let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
    let mut next_id = 0u64;
    for (step, op) in ops.iter().enumerate() {
        let now = SimTime::raw(step as f64);
        let mut compare = |active: &[ActivePacket]| -> Result<Option<usize>, TestCaseError> {
            queued.shares(active, now, &mut new_out);
            scanned.shares(active, now, &mut old_out);
            prop_assert!(
                new_out == old_out,
                "{kind:?} step {step} ({op:?}): {new_out:?} vs scan {old_out:?}"
            );
            Ok(new_out.iter().position(|&s| s > 0.0))
        };
        match *op {
            Op::Arrive { user, size } => {
                let pkt = ActivePacket {
                    id: next_id,
                    user,
                    arrival: now,
                    size: Work::raw(size),
                    remaining: Work::raw(size),
                };
                next_id += 1;
                queued.on_arrival(&pkt, now);
                scanned.on_arrival(&pkt, now);
                active.push(pkt);
            }
            Op::DepartServed => {
                if let Some(idx) = compare(&active)? {
                    let pkt = active.swap_remove(idx);
                    queued.on_departure(&pkt, now);
                    scanned.on_departure(&pkt, now);
                }
            }
            Op::DepartAny { pick } => {
                if !active.is_empty() {
                    let pkt = active.swap_remove(pick % active.len());
                    queued.on_departure(&pkt, now);
                    scanned.on_departure(&pkt, now);
                }
            }
            Op::Shares => {
                compare(&active)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn hook_sequences_give_the_scan_shares((rates, seed, ops) in workload()) {
        for kind in KINDS {
            replay(kind, &rates, seed, &ops)?;
        }
    }
}
