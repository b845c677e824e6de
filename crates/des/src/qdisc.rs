//! Queueing disciplines (`QDisc`s) for the packet engine.
//!
//! A `QDisc` maps the current set of active packets to *service shares*:
//! non-negative weights summing to 1 that say how the unit-rate server's
//! effort is split this instant. Work conservation is automatic (shares
//! only ever cover active packets); preemption is expressed simply by
//! the shares changing when an arrival occurs.
//!
//! | QDisc | Shares | Induced allocation (mean queues) | Cost per event |
//! |---|---|---|---|
//! | [`Fifo`] | all on oldest packet | proportional `r_i/(1−Σr)` | O(k) id scan |
//! | [`LifoPreemptive`] | all on newest packet | proportional | O(k) id scan |
//! | [`ProcessorSharing`] | `1/k` each | proportional | O(k) fill |
//! | [`PreemptivePriority`] | oldest packet of best class | serial `g(Λ_k)−g(Λ_{k−1})` | O(log L) hooks + O(k) |
//! | [`FsPriorityTable`] | Table 1 levels, preemptive | **Fair Share** | O(log L) hooks + O(k) |
//! | [`StartTimeFairQueueing`] | min start-tag, non-preemptive | ≈ Fair-Share-like (§5.2) | O(log k) hooks + O(k) |
//!
//! `k` is the number of active packets and `L` the number of priority
//! levels. The priority disciplines keep their selection state in their
//! arrival/departure hooks (per-level FIFO queues, an ordered start-tag
//! set), so `shares` only finds the chosen packet's index (one linear
//! pass) and writes the dense share vector the trait asks for.
//!
//! This module is the typed-unit successor of the old `disciplines`
//! module: the trait was renamed `Discipline` → `QDisc` (the deprecated
//! alias has since been removed) and [`ActivePacket`] now carries
//! [`SimTime`]/[`Work`] fields instead of bare `f64`s. Which packet each
//! discipline serves is unchanged: `tests/qdisc_reference.rs` runs the
//! queue-based priority disciplines against copies of the earlier
//! scan-based ones and compares every simulation result bit for bit.

use crate::error::DesError;
use crate::rng::ExpStream;
use crate::units::{SimTime, Work};
use crate::Result;
use greednet_queueing::fair_share::priority_table;
use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};
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

/// Preemptive priority over levels, FIFO within a level: the selection
/// structure shared by [`PreemptivePriority`] and [`FsPriorityTable`].
///
/// One queue of packet ids per level, each in ascending id order, plus the
/// set of non-empty levels. The engine numbers packets in arrival order,
/// so an arrival appends to its queue and the head of the lowest
/// non-empty level is exactly "the smallest id among the best level".
/// With `L` levels an arrival costs O(log L) amortized, the departure of
/// the served packet pops a queue front, and the head is found in
/// O(log L).
#[derive(Debug, Clone)]
struct LevelQueues {
    /// Packet ids per level (index 0 is served first), ascending.
    queues: Vec<VecDeque<u64>>,
    /// Levels whose queue is non-empty; the first one is in service.
    nonempty: BTreeSet<usize>,
    /// Packets queued over all levels.
    len: usize,
}

impl LevelQueues {
    fn new(levels: usize) -> Self {
        LevelQueues {
            queues: vec![VecDeque::new(); levels.max(1)],
            nonempty: BTreeSet::new(),
            len: 0,
        }
    }

    /// Queues `id` at `level`; a level past the last one means the last
    /// (lowest-priority) level.
    // gn:hot(amortized)
    fn enqueue(&mut self, level: usize, id: u64) {
        let level = level.min(self.queues.len() - 1);
        if let Some(q) = self.queues.get_mut(level) {
            let pos = q.partition_point(|&x| x < id);
            q.insert(pos, id);
            self.nonempty.insert(level);
            self.len += 1;
        }
    }

    /// Removes `id` from the level that holds it, searching from the
    /// level in service down (the served packet is found at once).
    // gn:hot
    fn dequeue(&mut self, id: u64) {
        let queues = &self.queues;
        let Some((level, pos)) = self.nonempty.iter().find_map(|&l| {
            let pos = queues.get(l)?.binary_search(&id).ok()?;
            Some((l, pos))
        }) else {
            return;
        };
        if let Some(q) = self.queues.get_mut(level) {
            q.remove(pos);
            if q.is_empty() {
                self.nonempty.remove(&level);
            }
        }
        self.len -= 1;
    }

    /// The packet to serve: the head of the lowest non-empty level.
    // gn:hot
    fn head(&self) -> Option<u64> {
        let level = *self.nonempty.first()?;
        self.queues.get(level)?.front().copied()
    }

    /// Writes shares that give the whole server to [`Self::head`]. An id
    /// that left without `on_departure` is dropped once it reaches the
    /// head, and a packet never announced through `on_arrival` is served
    /// only when no announced packet is active (oldest first), so the
    /// shares still sum to 1.
    // gn:hot(amortized)
    fn serve_head(&mut self, active: &[ActivePacket], out: &mut Vec<f64>) {
        out.clear();
        if active.is_empty() {
            return;
        }
        debug_assert_eq!(self.len, active.len(), "QDisc hooks out of step");
        while let Some(id) = self.head() {
            if let Some(idx) = active.iter().position(|p| p.id == id) {
                single_share(out, active.len(), idx);
                return;
            }
            self.dequeue(id);
        }
        if let Some(idx) = oldest(active, |_| true) {
            single_share(out, active.len(), idx);
        }
    }
}

#[cfg(test)]
impl LevelQueues {
    fn level_of(&self, id: u64) -> Option<usize> {
        self.queues.iter().position(|q| q.contains(&id))
    }

    fn is_empty(&self) -> bool {
        self.len == 0 && self.nonempty.is_empty() && self.queues.iter().all(VecDeque::is_empty)
    }
}

/// Preemptive-resume head-of-line priority by *user class*: user `u` has
/// fixed priority `class[u]` (smaller = served first); FIFO within class.
/// With classes ordered by ascending rate this induces the serial
/// allocation `c_(k) = g(Λ_k) − g(Λ_{k−1})`. A packet of a user the
/// class list does not cover joins the lowest class.
#[derive(Debug, Clone)]
pub struct PreemptivePriority {
    /// Dense rank of each user's class (0 = served first).
    pub(crate) class: Vec<usize>,
    queues: LevelQueues,
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
        // One queue per distinct class, however sparse the class numbers.
        let mut distinct = class.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let rank = class
            .iter()
            .map(|&c| distinct.partition_point(|&d| d < c))
            .collect();
        Ok(PreemptivePriority {
            class: rank,
            queues: LevelQueues::new(distinct.len()),
        })
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
        Ok(PreemptivePriority {
            class,
            queues: LevelQueues::new(rates.len()),
        })
    }
}

impl QDisc for PreemptivePriority {
    fn name(&self) -> &'static str {
        "preemptive priority"
    }
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        let level = self.class.get(pkt.user).copied().unwrap_or(usize::MAX);
        self.queues.enqueue(level, pkt.id);
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.queues.dequeue(pkt.id);
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
        self.queues.serve_head(active, out);
    }
}

/// The paper's **Table 1** discipline: each arriving packet of user `u` is
/// assigned a priority *level* with probability proportional to user `u`'s
/// per-level rate in the Fair Share priority table; levels are then served
/// by preemptive-resume priority (FIFO within level). Realizes the Fair
/// Share allocation function packet-by-packet. A packet of a user beyond
/// the declared rates still takes its random draw (so later draws stay in
/// step) and joins the lowest level.
#[derive(Debug)]
pub struct FsPriorityTable {
    /// Per-user cumulative level probabilities.
    cumulative: Vec<Vec<f64>>,
    /// Active packets queued by their assigned level.
    queues: LevelQueues,
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
        let cumulative: Vec<Vec<f64>> = table
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
        let levels = cumulative.iter().map(Vec::len).max().unwrap_or(1);
        Ok(FsPriorityTable {
            cumulative,
            queues: LevelQueues::new(levels),
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
        let level = self.cumulative.get(pkt.user).map_or(usize::MAX, |cum| {
            cum.iter()
                .position(|&c| u < c)
                .unwrap_or(cum.len().saturating_sub(1))
        });
        self.queues.enqueue(level, pkt.id);
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.queues.dequeue(pkt.id);
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
        self.queues.serve_head(active, out);
    }
}

/// An SFQ queue entry: start tag (ordered by `total_cmp`), then packet id.
#[derive(Debug, Clone, Copy)]
struct StartKey {
    tag: f64,
    id: u64,
}

impl Ord for StartKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.tag.total_cmp(&other.tag).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for StartKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for StartKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for StartKey {}

/// Start-time Fair Queueing (SFQ): a practical, non-preemptive
/// approximation of head-of-line processor sharing in the spirit of the
/// Fair Queueing of Demers–Keshav–Shenker \[3\] discussed in §5.2. Each
/// packet gets a start tag `S = max(v, F_prev(user))` and finish tag
/// `F = S + size`; the server (non-preemptively) serves the packet with
/// the smallest start tag and the virtual time `v` is the start tag of the
/// packet in service. A user beyond the `n` given at construction gets
/// per-user state on its first packet, starting from `F_prev = 0` like
/// every other user.
#[derive(Debug)]
pub struct StartTimeFairQueueing {
    v: f64,
    finish_prev: Vec<f64>,
    /// Active packets by (start tag, id): the first is served next. An
    /// ordered set (`BTreeSet`, not a hash set) so that no code path
    /// depends on a process-level hash seed (GN01).
    by_start: BTreeSet<StartKey>,
    /// The packet in service.
    current: Option<StartKey>,
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
            by_start: BTreeSet::new(),
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
        if pkt.user >= self.finish_prev.len() {
            self.finish_prev.resize(pkt.user + 1, 0.0);
        }
        let s = self.v.max(self.finish_prev[pkt.user]);
        self.by_start.insert(StartKey { tag: s, id: pkt.id });
        self.finish_prev[pkt.user] = s + pkt.size.get();
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        let key = match self.current {
            Some(cur) if cur.id == pkt.id => {
                self.current = None;
                Some(cur)
            }
            _ => self.by_start.iter().find(|k| k.id == pkt.id).copied(),
        };
        if let Some(key) = key {
            self.by_start.remove(&key);
        }
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
        out.clear();
        if active.is_empty() {
            return;
        }
        debug_assert_eq!(self.by_start.len(), active.len(), "QDisc hooks out of step");
        // Non-preemptive: stick with the packet in service if still present.
        if let Some(cur) = self.current.take() {
            if let Some(idx) = active.iter().position(|p| p.id == cur.id) {
                self.current = Some(cur);
                single_share(out, active.len(), idx);
                return;
            }
            self.by_start.remove(&cur);
        }
        // Ids that left without `on_departure` are dropped as they surface.
        while let Some(&head) = self.by_start.first() {
            if let Some(idx) = active.iter().position(|p| p.id == head.id) {
                self.current = Some(head);
                self.v = head.tag;
                single_share(out, active.len(), idx);
                return;
            }
            self.by_start.remove(&head);
        }
        // Only packets never announced through `on_arrival` are active:
        // without start tags they are served oldest first.
        if let Some(idx) = oldest(active, |_| true) {
            single_share(out, active.len(), idx);
        }
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
        for p in &active {
            d.on_arrival(p, t(p.arrival.get()));
        }
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
            let level = d.queues.level_of(trial).expect("queued on arrival");
            assert!(level <= user, "user {user} got level {level}");
            d.on_departure(&p, t(0.0));
        }
        assert!(d.queues.is_empty());
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
            if d.queues.level_of(id).expect("queued on arrival") == 0 {
                level0 += 1;
            }
            d.on_departure(&p, t(0.0));
        }
        let frac = level0 as f64 / n as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac {frac}");
        assert!(d.queues.is_empty());
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
    fn priority_compresses_sparse_classes_in_order() {
        let d = PreemptivePriority::new(vec![100, 5, 100, 7]).unwrap();
        assert_eq!(d.class, vec![2, 0, 2, 1]);
    }

    #[test]
    fn level_queues_serve_smallest_id_of_best_level() {
        let mut q = LevelQueues::new(3);
        // Out-of-order ids still queue in id order.
        for (level, id) in [(2, 1), (1, 5), (1, 3), (2, 0)] {
            q.enqueue(level, id);
        }
        assert_eq!(q.head(), Some(3));
        q.dequeue(3);
        assert_eq!(q.head(), Some(5));
        q.dequeue(5);
        assert_eq!(q.head(), Some(0));
        q.enqueue(9, 7); // past the last level: lowest priority
        assert_eq!(q.level_of(7), Some(2));
        for id in [0, 1, 7] {
            q.dequeue(id);
        }
        q.dequeue(42); // unknown ids are ignored
        assert!(q.is_empty());
    }

    /// Runs a 2-user simulation and returns its per-user mean queues, bit
    /// for bit.
    fn two_user_queues(d: &mut dyn QDisc) -> Vec<u64> {
        let cfg = crate::sim::SimConfig::new(vec![0.3, 0.4], 500.0, 3);
        let r = crate::sim::Simulator::new(cfg).unwrap().run(d).unwrap();
        assert!(r.completed.iter().all(|&c| c > 0), "{:?}", r.completed);
        r.mean_queue.iter().map(|q| q.to_bits()).collect()
    }

    #[test]
    fn priority_puts_users_beyond_its_classes_in_the_lowest_class() {
        // One class: user 1 shares it with user 0, which is plain FIFO.
        let d = &mut PreemptivePriority::new(vec![0]).unwrap();
        assert_eq!(two_user_queues(d), two_user_queues(&mut Fifo));
    }

    #[test]
    fn fs_table_puts_users_beyond_its_rates_in_the_lowest_level() {
        // A 1-user table has one level, so every packet is served FIFO.
        let d = &mut FsPriorityTable::new(&[0.3], 5).unwrap();
        assert_eq!(two_user_queues(d), two_user_queues(&mut Fifo));
    }

    #[test]
    fn sfq_grows_state_for_users_beyond_n() {
        let mut d = StartTimeFairQueueing::new(1).unwrap();
        let grown = two_user_queues(&mut d);
        assert_eq!(d.finish_prev.len(), 2);
        let sized = two_user_queues(&mut StartTimeFairQueueing::new(2).unwrap());
        assert_eq!(grown, sized);
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
