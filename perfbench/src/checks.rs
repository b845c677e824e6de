//! Correctness checks: every timed result is checked, and every miss
//! counts as a failure in the run's `failed` count.
//!
//! The DES tolerances are at least 5.5 standard deviations of each
//! statistic, measured over 300 simulation seeds at the benchmark's
//! horizons (the standard deviations are quoted beside each constant), so
//! that a correct engine does not fail while a result of the wrong
//! discipline always does: under `des_backlog` the FIFO victim queue is
//! 35× the Fair Share one, and under `des_many_users` the light half's
//! queue is 3× its Fair Share value.

use crate::inputs::{DesInputs, DesProfile};
use crate::Arm;
use greednet_queueing::{mm1, AllocationFunction, FairShare};
use greednet_serve::ops::SimulateOutcome;

/// FIFO (`des_backlog`): each user's share of the total queue must lie
/// within this relative distance of its share of the load (sd 1.9% for
/// the victim, 2.7% for the light user).
pub const FIFO_SHARE_TOL: f64 = 0.15;
/// FS table (`des_backlog`): the victim's queue, relative to the Fair
/// Share closed form (sd 2.7%).
pub const FS_VICTIM_TOL: f64 = 0.16;
/// FS table (`des_backlog`): the light user's queue, relative to the
/// Fair Share closed form (sd 3.4%).
pub const FS_LIGHT_TOL: f64 = 0.20;
/// FS table (`des_backlog`): slack on the Theorem 8 bound `r/(1 − N r)`.
/// The closed form sits at 96% of the bound and the simulated victim
/// queue has sd 2.6% of it; the slack admits every queue the closed-form
/// check admits.
pub const THEOREM8_SLACK: f64 = 0.12;
/// SFQ (`des_backlog`): non-preemptive fair queueing must keep the victim
/// within this factor of its Theorem 8 bound. It sits at 1.72× (sd
/// 0.045×); FIFO exceeds the bound 35-fold.
pub const SFQ_PROTECTION_FACTOR: f64 = 2.0;
/// `des_many_users`, FIFO: the light half's share of the total queue,
/// relative to its share of the load (sd 2.4%).
pub const MANY_FIFO_SHARE_TOL: f64 = 0.15;
/// `des_many_users`, FS table: the light half's summed queue, relative to
/// the Fair Share closed form (sd 3.9%).
pub const MANY_FS_TOL: f64 = 0.25;
/// `des_many_users`, SFQ: total queue relative to the M/M/1 value
/// `g(Σ r)`, i.e. work conservation (sd 7.3%: the total queue at load 0.8
/// is the noisiest statistic, and SFQ's allocation has no closed form).
pub const MANY_SFQ_TOTAL_TOL: f64 = 0.45;
/// largen: E17's finite-N error, `K / N`, per discipline (`N·err` read off
/// E17's table at N = 10^6: 1.98e-7, 2.64e-8 and 1.73e-8).
pub const E17_ERR_TIMES_N: [f64; 3] = [0.198, 0.0264, 0.0173];
/// largen: the load may differ from the continuum by this many times
/// E17's finite-N error.
pub const E17_ERR_FACTOR: f64 = 3.0;

/// Closed forms the DES checks compare against, computed once per
/// workload during set-up.
#[derive(Debug, Clone)]
pub struct DesReference {
    profile: DesProfile,
    rates: Vec<f64>,
    fair_share: Vec<f64>,
    light_half: Vec<usize>,
}

impl DesReference {
    /// Computes the Fair Share closed form and the light half of the
    /// users (the lower half by rate) for `inputs`.
    #[must_use]
    pub fn new(inputs: &DesInputs) -> DesReference {
        let rates = inputs.rates.clone();
        let mut order: Vec<usize> = (0..rates.len()).collect();
        order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]));
        order.truncate(rates.len() / 2);
        DesReference {
            profile: inputs.profile,
            fair_share: FairShare::new().congestion(&rates),
            rates,
            light_half: order,
        }
    }

    /// Checks one simulate outcome run under `arm`.
    ///
    /// # Errors
    /// A description of the first statistic outside its tolerance.
    pub fn check(&self, arm: Arm, out: &SimulateOutcome) -> Result<(), String> {
        if out.rows.len() != self.rates.len() {
            return Err(format!(
                "{} user rows for {} users",
                out.rows.len(),
                self.rates.len()
            ));
        }
        let q: Vec<f64> = out.rows.iter().map(|r| r.mean_queue).collect();
        if !q.iter().all(|x| x.is_finite() && *x >= 0.0) {
            return Err("a mean queue is negative or not finite".into());
        }
        match self.profile {
            DesProfile::Backlog => self.check_backlog(arm, &q),
            DesProfile::ManyUsers => self.check_many(arm, &q),
        }
    }

    fn check_backlog(&self, arm: Arm, q: &[f64]) -> Result<(), String> {
        let n = self.rates.len() as f64;
        let (victim, light) = (0, 2);
        let bound = |u: usize| self.rates[u] / (1.0 - n * self.rates[u]);
        match arm {
            Arm::Fifo => {
                let total_q: f64 = q.iter().sum();
                let total_r: f64 = self.rates.iter().sum();
                for (u, (&qu, &ru)) in q.iter().zip(&self.rates).enumerate() {
                    let (got, want) = (qu / total_q, ru / total_r);
                    within(got, want, FIFO_SHARE_TOL)
                        .map_err(|e| format!("FIFO user {u} queue share: {e}"))?;
                }
                Ok(())
            }
            Arm::Fs => {
                within(q[victim], self.fair_share[victim], FS_VICTIM_TOL)
                    .map_err(|e| format!("FS victim queue vs Fair Share closed form: {e}"))?;
                within(q[light], self.fair_share[light], FS_LIGHT_TOL)
                    .map_err(|e| format!("FS light-user queue vs Fair Share closed form: {e}"))?;
                let limit = bound(victim) * (1.0 + THEOREM8_SLACK);
                if q[victim] > limit {
                    return Err(format!(
                        "FS victim queue {} above the Theorem 8 bound {} (+{THEOREM8_SLACK})",
                        q[victim],
                        bound(victim)
                    ));
                }
                Ok(())
            }
            Arm::Sfq => {
                let limit = bound(victim) * SFQ_PROTECTION_FACTOR;
                if q[victim] > limit {
                    return Err(format!(
                        "SFQ victim queue {} above {SFQ_PROTECTION_FACTOR}x its Theorem 8 bound {}",
                        q[victim],
                        bound(victim)
                    ));
                }
                Ok(())
            }
        }
    }

    fn check_many(&self, arm: Arm, q: &[f64]) -> Result<(), String> {
        let light_q: f64 = self.light_half.iter().map(|&u| q[u]).sum();
        let total_q: f64 = q.iter().sum();
        let total_r: f64 = self.rates.iter().sum();
        match arm {
            Arm::Fifo => {
                let light_r: f64 = self.light_half.iter().map(|&u| self.rates[u]).sum();
                within(light_q / total_q, light_r / total_r, MANY_FIFO_SHARE_TOL)
                    .map_err(|e| format!("FIFO light-half queue share vs proportional: {e}"))
            }
            Arm::Fs => {
                let want: f64 = self.light_half.iter().map(|&u| self.fair_share[u]).sum();
                within(light_q, want, MANY_FS_TOL)
                    .map_err(|e| format!("FS light-half queue vs Fair Share closed form: {e}"))
            }
            Arm::Sfq => within(total_q, mm1::g(total_r), MANY_SFQ_TOTAL_TOL)
                .map_err(|e| format!("SFQ total queue vs g(sum r): {e}")),
        }
    }
}

fn within(got: f64, want: f64, tol: f64) -> Result<(), String> {
    let rel = (got - want).abs() / want.abs();
    if rel <= tol {
        Ok(())
    } else {
        Err(format!(
            "{got} vs {want} (off by {rel:.3}, tolerance {tol})"
        ))
    }
}

/// Checks a finite-N large-N solve of `n` users: it converged, and its
/// load lies within [`E17_ERR_FACTOR`] × E17's finite-N error of the
/// continuum load `mean_field_load` (solved by the same entry point at
/// `n = 0`).
///
/// # Errors
/// A description of the failure.
pub fn check_largen(
    arm: Arm,
    n: u64,
    load: f64,
    converged: bool,
    mean_field_load: f64,
) -> Result<(), String> {
    if !converged {
        return Err(format!("{} solve did not converge", arm.name()));
    }
    if n == 0 {
        return Err("expected a finite-N solve".into());
    }
    let tol = E17_ERR_FACTOR * E17_ERR_TIMES_N[arm.index()] / n as f64;
    let err = (load - mean_field_load).abs();
    if err <= tol {
        Ok(())
    } else {
        Err(format!(
            "{} load {load} is {err:.3e} from the continuum {mean_field_load} (tolerance {tol:.3e})",
            arm.name()
        ))
    }
}

/// 64-bit FNV-1a digest of a payload: the benchmark keeps digests, not
/// bodies, of what it received, so memory stays flat however many
/// requests a run serves.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks a served payload against the payload a fresh service computes
/// for the same request, by their [`digest`]s.
///
/// # Errors
/// When the bytes differ.
pub fn check_serve(expected: &str, received_digest: u64) -> Result<(), String> {
    if digest(expected.as_bytes()) == received_digest {
        Ok(())
    } else {
        Err("payload differs from a fresh service's bytes".into())
    }
}
