//! Input generation. Every input a workload hands to the program (rates,
//! specs and request lines) is a pure function of the workload seed, so
//! the same seed yields byte-identical inputs; the program sees only the
//! generated values, never the seed itself.

use crate::Arm;
use greednet_serve::ops::{LargenSpec, SimulateSpec};
use greednet_serve::{Request, RequestKind};

/// SplitMix64: a small, fast generator; its outputs are fully determined
/// by the starting state.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `stream` of `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi)`, rounded to 4 decimals so request lines
    /// stay short and readable.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.uniform()) * 1e4).round() / 1e4
    }
}

/// Which rate profile a DES workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesProfile {
    /// Victim 0.1, greedy 0.83, light 0.05 (total load 0.98).
    Backlog,
    /// 1000 users, heterogeneous rates summing to 0.8.
    ManyUsers,
}

/// Victim, greedy and light rates of `des_backlog`, in user order.
pub const BACKLOG_RATES: [f64; 3] = [0.1, 0.83, 0.05];

/// Number of users in `des_many_users`.
pub const MANY_USERS: usize = 1000;

/// Total load of `des_many_users`.
pub const MANY_USERS_LOAD: f64 = 0.8;

/// The inputs of one DES workload: a rate vector, the horizon of every
/// simulate call, and the seed from which each call's simulation seed is
/// drawn.
#[derive(Debug, Clone, PartialEq)]
pub struct DesInputs {
    /// Which profile (selects the correctness check).
    pub profile: DesProfile,
    /// Per-user Poisson rates.
    pub rates: Vec<f64>,
    /// Simulated horizon of one call.
    pub horizon: f64,
    seed: u64,
}

impl DesInputs {
    /// The inputs of `profile` for workload seed `seed`.
    #[must_use]
    pub fn new(profile: DesProfile, seed: u64) -> DesInputs {
        match profile {
            DesProfile::Backlog => DesInputs {
                profile,
                rates: BACKLOG_RATES.to_vec(),
                horizon: 50_000.0,
                seed,
            },
            DesProfile::ManyUsers => {
                // Log-uniform weights over a 20x range, normalized to the
                // target load: heterogeneous enough that Fair Share and
                // proportional allocations differ by 3x on the light half.
                let mut g = SplitMix::new(seed, 1);
                let w: Vec<f64> = (0..MANY_USERS)
                    .map(|_| (3.0 * (g.uniform() - 0.5)).exp())
                    .collect();
                let total: f64 = w.iter().sum();
                DesInputs {
                    profile,
                    rates: w.iter().map(|x| MANY_USERS_LOAD * x / total).collect(),
                    horizon: 20_000.0,
                    seed,
                }
            }
        }
    }

    /// Offered packets per call: `Σ r_i × horizon`.
    #[must_use]
    pub fn packets_per_call(&self) -> f64 {
        self.rates.iter().sum::<f64>() * self.horizon
    }

    /// The simulate spec of call `call` under `arm`. All three arms of
    /// one round share a simulation seed.
    #[must_use]
    pub fn spec(&self, arm: Arm, call: u64) -> SimulateSpec {
        self.simulate(
            arm,
            self.horizon,
            SplitMix::new(self.seed, 2 + call).next_u64() >> 1,
        )
    }

    /// Warm-up call `k` under `arm`: 1/20 of the horizon, on a simulation
    /// seed that does not depend on the workload seed, so that set-up does
    /// the same work in every run (at load 0.98 the cost of a short run
    /// swings with its realized backlog).
    #[must_use]
    pub fn warmup_spec(&self, arm: Arm, k: u64) -> SimulateSpec {
        self.simulate(
            arm,
            self.horizon / 20.0,
            SplitMix::new(0, k).next_u64() >> 1,
        )
    }

    fn simulate(&self, arm: Arm, horizon: f64, seed: u64) -> SimulateSpec {
        SimulateSpec {
            rates: self.rates.clone(),
            discipline: arm.name().to_string(),
            horizon,
            warmup: None,
            windows: None,
            seed,
            service: "M".to_string(),
        }
    }
}

/// Population of `largen_equilibrium`.
pub const LARGEN_N: u64 = 100_000;

/// The `largen_equilibrium` spec of solve `call` under `arm`: N = 10^5
/// and the service's default three classes, parsed from the request line
/// a client would send; the jittered start is drawn from the seed.
///
/// # Panics
/// Never: the line is a well-formed `largen` request.
#[must_use]
pub fn largen_spec(arm: Arm, seed: u64, call: u64, threads: usize) -> LargenSpec {
    let line = format!(
        r#"{{"kind":"largen","discipline":"{}","n":{LARGEN_N},"seed":{},"threads":{threads}}}"#,
        arm.name(),
        SplitMix::new(seed, 3 + call).next_u64() >> 12
    );
    match Request::parse_line(&line).map(|r| r.kind) {
        Ok(RequestKind::Largen(spec)) => spec,
        other => unreachable!("{line} parsed as {other:?}"),
    }
}

/// What a serve request asks for, as the benchmark classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeClass {
    /// One of the hot set: a cache hit after its first occurrence.
    Hot(usize),
    /// A fresh `table` request (≈ 20 µs of compute).
    Table,
    /// A fresh `nash` request (≈ 0.4 ms).
    Nash,
    /// A fresh light-load `simulate` request under the arm's discipline.
    Simulate(Arm),
}

/// Size of the hot set.
pub const HOT_SET: usize = 8;

/// Share of requests drawn from the hot set.
pub const HOT_SHARE: f64 = 0.5;

/// One generated request line with its class.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// The JSONL request line (without the newline).
    pub line: String,
    /// Its class.
    pub class: ServeClass,
}

/// The request stream of `serve_mixed` for one workload seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    seed: u64,
    hot: Vec<String>,
}

impl ServeInputs {
    /// The inputs for workload seed `seed`.
    #[must_use]
    pub fn new(seed: u64) -> ServeInputs {
        let mut g = SplitMix::new(seed, 4);
        let hot = (0..HOT_SET)
            .map(|slot| match slot % 4 {
                0 => table_body(&mut g),
                1 => nash_body(&mut g),
                2 => simulate_body(&mut g, Arm::ALL[(slot / 4) % 3]),
                _ => table_body(&mut g),
            })
            .collect();
        ServeInputs { seed, hot }
    }

    /// Request `index` of client `client`. Half come from the hot set;
    /// the rest are fresh scenarios, split over `table` (1/4), `nash`
    /// (1/4) and `simulate` (1/2, one third per discipline).
    #[must_use]
    pub fn request(&self, client: usize, index: u64) -> ServeRequest {
        let mut g = SplitMix::new(self.seed, (5 + client as u64) << 40 | index);
        let id = format!("c{client}-{index}");
        let (body, class) = if g.uniform() < HOT_SHARE {
            let slot = (g.next_u64() % HOT_SET as u64) as usize;
            (self.hot[slot].clone(), ServeClass::Hot(slot))
        } else {
            match g.next_u64() % 4 {
                0 => (table_body(&mut g), ServeClass::Table),
                1 => (nash_body(&mut g), ServeClass::Nash),
                _ => {
                    let arm = Arm::ALL[(g.next_u64() % 3) as usize];
                    (simulate_body(&mut g, arm), ServeClass::Simulate(arm))
                }
            }
        };
        ServeRequest {
            line: format!(r#"{{"id":"{id}",{body}}}"#),
            class,
        }
    }
}

fn table_body(g: &mut SplitMix) -> String {
    let k = 3 + (g.next_u64() % 4) as usize;
    let rates: Vec<String> = (0..k).map(|_| g.range(0.01, 0.2).to_string()).collect();
    format!(r#""kind":"table","rates":[{}]"#, rates.join(","))
}

fn nash_body(g: &mut SplitMix) -> String {
    let disc = ["fifo", "fs"][(g.next_u64() & 1) as usize];
    format!(
        r#""kind":"nash","discipline":"{disc}","users":"log:{},1.0;log:{},1.0;linear:1.0,{}""#,
        g.range(0.3, 1.0),
        g.range(0.3, 1.0),
        g.range(0.2, 0.4)
    )
}

fn simulate_body(g: &mut SplitMix, arm: Arm) -> String {
    let rates: Vec<String> = (0..3).map(|_| g.range(0.05, 0.2).to_string()).collect();
    format!(
        r#""kind":"simulate","discipline":"{}","rates":[{}],"horizon":10000,"seed":{}"#,
        arm.name(),
        rates.join(","),
        g.next_u64() >> 12
    )
}
