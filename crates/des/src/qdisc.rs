//! Queueing disciplines (`QDisc`s) for the packet engine.
//!
//! A `QDisc` maps the current set of active packets to *service shares*:
//! non-negative weights summing to 1 that say how the unit-rate server's
//! effort is split this instant. Work conservation is automatic (shares
//! only ever cover active packets); preemption is expressed simply by
//! the shares changing when an arrival occurs.
//!
//! | QDisc | Shares | Induced allocation (mean queues) |
//! |---|---|---|
//! | [`Fifo`] | all on oldest packet | proportional `r_i/(1−Σr)` |
//! | [`LifoPreemptive`] | all on newest packet | proportional |
//! | [`ProcessorSharing`] | `1/k` each | proportional |
//! | [`PreemptivePriority`] | oldest packet of best class | serial `g(Λ_k)−g(Λ_{k−1})` |
//! | [`FsPriorityTable`] | Table 1 levels, preemptive | **Fair Share** |
//! | [`StartTimeFairQueueing`] | min start-tag, non-preemptive | ≈ Fair-Share-like (§5.2) |
//!
//! This module is the typed-unit successor of the old `disciplines`
//! module: the trait was renamed `Discipline` → `QDisc` (the deprecated
//! alias has since been removed) and [`ActivePacket`] now carries
//! [`SimTime`]/[`Work`] fields instead of bare `f64`s. The share logic
//! itself is unchanged — the engine-equivalence tests pin that every
//! discipline produces bitwise-identical simulations.

use crate::error::DesError;
use crate::rng::ExpStream;
use crate::units::{SimTime, Work};
use crate::Result;
use greednet_queueing::fair_share::priority_table;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// A packet currently in the system.
#[derive(Debug, Clone)]
pub struct ActivePacket {
    /// Unique, monotonically increasing packet id.
    pub id: u64,
    /// Originating user.
    pub user: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// Total service requirement (drawn from the service distribution at
    /// arrival).
    pub size: Work,
    /// Work still to be done.
    pub remaining: Work,
}

/// A queueing discipline: decides how the server's effort is split
/// across the active packets at every instant.
pub trait QDisc: Send + Debug {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Notification that `pkt` has entered the system.
    fn on_arrival(&mut self, pkt: &ActivePacket, now: SimTime);

    /// Notification that `pkt` has completed service and left.
    fn on_departure(&mut self, pkt: &ActivePacket, now: SimTime);

    /// Writes the service share of each packet in `active` into `out`
    /// (same indexing). Shares must be non-negative and sum to 1 whenever
    /// `active` is non-empty.
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>);
}

// gn:hot(amortized)
fn single_share(out: &mut Vec<f64>, len: usize, winner: usize) {
    out.clear();
    out.resize(len, 0.0);
    out[winner] = 1.0;
}

// gn:hot
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

/// First-in-first-out: the oldest packet holds the server. Induces the
/// proportional allocation.
#[derive(Debug, Clone, Default)]
pub struct Fifo;

impl QDisc for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }
    // gn:hot
    fn on_arrival(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot
    fn on_departure(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
        if let Some(idx) = oldest(active, |_| true) {
            single_share(out, active.len(), idx);
        } else {
            out.clear();
        }
    }
}

/// Last-in-first-out with preemptive resume: the newest packet always
/// holds the server. Also induces the proportional allocation (mean queue
/// lengths are scheduling-invariant within symmetric non-anticipating
/// disciplines for exponential sizes).
#[derive(Debug, Clone, Default)]
pub struct LifoPreemptive;

impl QDisc for LifoPreemptive {
    fn name(&self) -> &'static str {
        "LIFO-PR"
    }
    // gn:hot
    fn on_arrival(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot
    fn on_departure(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
        out.clear();
        out.resize(active.len(), 0.0);
        if let Some((idx, _)) = active.iter().enumerate().max_by_key(|(_, p)| p.id) {
            out[idx] = 1.0;
        }
    }
}

/// Egalitarian processor sharing: every active packet receives `1/k` of
/// the server. Induces the proportional allocation.
#[derive(Debug, Clone, Default)]
pub struct ProcessorSharing;

impl QDisc for ProcessorSharing {
    fn name(&self) -> &'static str {
        "PS"
    }
    // gn:hot
    fn on_arrival(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot
    fn on_departure(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
        out.clear();
        if active.is_empty() {
            return;
        }
        out.resize(active.len(), 1.0 / active.len() as f64);
    }
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
    // gn:hot
    fn on_arrival(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot
    fn on_departure(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot(amortized)
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
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        let u = self.rng.uniform();
        let cum = &self.cumulative[pkt.user];
        let level = cum.iter().position(|&c| u < c).unwrap_or(cum.len() - 1);
        self.levels.insert(pkt.id, level);
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.levels.remove(&pkt.id);
    }
    // gn:hot(amortized)
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
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        let s = self.v.max(self.finish_prev[pkt.user]);
        self.start_tags.insert(pkt.id, s);
        self.finish_prev[pkt.user] = s + pkt.size.get();
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.start_tags.remove(&pkt.id);
        if self.current == Some(pkt.id) {
            self.current = None;
        }
    }
    // gn:hot(amortized)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, user: usize, arrival: f64) -> ActivePacket {
        ActivePacket {
            id,
            user,
            arrival: SimTime::raw(arrival),
            size: Work::raw(1.0),
            remaining: Work::raw(1.0),
        }
    }

    fn t(now: f64) -> SimTime {
        SimTime::raw(now)
    }

    #[test]
    fn fifo_serves_oldest() {
        let mut d = Fifo;
        let active = vec![pkt(3, 0, 0.3), pkt(1, 1, 0.1), pkt(2, 0, 0.2)];
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn lifo_serves_newest() {
        let mut d = LifoPreemptive;
        let active = vec![pkt(3, 0, 0.3), pkt(1, 1, 0.1)];
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![1.0, 0.0]);
    }

    #[test]
    fn ps_splits_evenly() {
        let mut d = ProcessorSharing;
        let active = vec![
            pkt(1, 0, 0.1),
            pkt(2, 1, 0.2),
            pkt(3, 0, 0.3),
            pkt(4, 2, 0.4),
        ];
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.25; 4]);
    }

    #[test]
    fn empty_active_set_gives_empty_shares() {
        let mut out = vec![1.0];
        Fifo.shares(&[], t(0.0), &mut out);
        assert!(out.is_empty());
        ProcessorSharing.shares(&[], t(0.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn priority_serves_best_class_oldest() {
        let mut d = PreemptivePriority::new(vec![1, 0]).unwrap(); // user 1 first
        let active = vec![pkt(1, 0, 0.1), pkt(2, 1, 0.2), pkt(3, 1, 0.3)];
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.0, 1.0, 0.0]); // oldest of user 1's packets
    }

    #[test]
    fn priority_by_ascending_rate_ranks_lightest_first() {
        let d = PreemptivePriority::by_ascending_rate(&[0.3, 0.1, 0.2]).unwrap();
        assert_eq!(d.class, vec![2, 0, 1]);
    }

    #[test]
    fn fs_table_assigns_levels_within_user_bounds() {
        // User sorted position k may only get levels 0..=k.
        let rates = [0.05, 0.1, 0.2, 0.3];
        let mut d = FsPriorityTable::new(&rates, 9).unwrap();
        for trial in 0..200u64 {
            let user = (trial % 4) as usize;
            let p = pkt(trial, user, 0.0);
            d.on_arrival(&p, t(0.0));
            let level = d.levels[&trial];
            assert!(level <= user, "user {user} got level {level}");
            d.on_departure(&p, t(0.0));
        }
        assert!(d.levels.is_empty());
    }

    #[test]
    fn fs_table_level_frequencies_match_table() {
        // The heaviest of [0.1, 0.3] should send 1/3 of packets at level 0
        // and 2/3 at level 1.
        let mut d = FsPriorityTable::new(&[0.1, 0.3], 1234).unwrap();
        let mut level0 = 0;
        let n = 30_000u64;
        for id in 0..n {
            let p = pkt(id, 1, 0.0);
            d.on_arrival(&p, t(0.0));
            if d.levels[&id] == 0 {
                level0 += 1;
            }
            d.on_departure(&p, t(0.0));
        }
        let frac = level0 as f64 / n as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn sfq_is_non_preemptive_and_alternates_users() {
        let mut d = StartTimeFairQueueing::new(2).unwrap();
        let p1 = pkt(1, 0, 0.0);
        let p2 = pkt(2, 0, 0.0);
        let p3 = pkt(3, 1, 0.1);
        d.on_arrival(&p1, t(0.0));
        d.on_arrival(&p2, t(0.0));
        let mut out = Vec::new();
        let active = vec![p1.clone(), p2.clone()];
        d.shares(&active, t(0.0), &mut out);
        assert_eq!(out, vec![1.0, 0.0]); // p1 in service
                                         // User 1 arrives with an earlier start tag than p2 (v = 0 still).
        d.on_arrival(&p3, t(0.1));
        let active = vec![p1.clone(), p2.clone(), p3.clone()];
        d.shares(&active, t(0.1), &mut out);
        assert_eq!(out, vec![1.0, 0.0, 0.0]); // non-preemptive: p1 keeps it
                                              // After p1 departs, p3 (start tag 0) beats p2 (start tag 1).
        d.on_departure(&p1, t(1.0));
        let active = vec![p2.clone(), p3.clone()];
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.0, 1.0]);
    }

    #[test]
    fn constructors_reject_empty() {
        assert!(PreemptivePriority::new(vec![]).is_err());
        assert!(PreemptivePriority::by_ascending_rate(&[]).is_err());
        assert!(FsPriorityTable::new(&[], 0).is_err());
        assert!(StartTimeFairQueueing::new(0).is_err());
    }

    #[test]
    fn deprecated_discipline_alias_is_gone() {
        // The alias completed its deprecation cycle; its absence is the
        // contract now. Pin it at the source level so a compat re-export
        // cannot quietly reappear. The needle is assembled at runtime so
        // this test's own source (included below) never matches it.
        let needle = format!("QDisc as {}", "Discipline");
        for src in [include_str!("lib.rs"), include_str!("qdisc.rs")] {
            assert!(
                !src.contains(&needle),
                "deprecated `Discipline` alias re-introduced"
            );
        }
    }
}
