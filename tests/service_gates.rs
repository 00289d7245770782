//! Tier-1 robustness gates over the R2 fleet-service chaos campaign.
//!
//! Boots the real daemon over loopback TCP and asserts the service's
//! failure contract end to end: full baseline availability, every request
//! answered (served or typed rejection — nothing dropped silently), zero
//! silent corruption, supervised shard recovery within budget, typed
//! `shard_down` from a shard driven past its restart budget while the
//! rest of the fleet keeps serving, degraded dies serving flagged
//! temperature-only readings, and a malformed-frame storm answered with
//! typed `bad_request` without harming subsequent clean requests.

use ptsim_bench::experiments::r2_chaos::{
    run_campaign, ChaosConfig, ChaosReport, RECOVERY_BUDGET_MS,
};
use std::sync::OnceLock;

fn campaign() -> &'static ChaosReport {
    static CAMPAIGN: OnceLock<ChaosReport> = OnceLock::new();
    CAMPAIGN.get_or_init(|| run_campaign(&ChaosConfig::default()))
}

#[test]
fn all_chaos_gates_pass() {
    let fails = campaign().gate_failures();
    assert!(
        fails.is_empty(),
        "chaos gates violated:\n{}",
        fails.join("\n")
    );
}

#[test]
fn availability_and_accounting() {
    let c = campaign();
    assert!((c.baseline_availability() - 1.0).abs() < f64::EPSILON);
    assert_eq!(c.unaccounted(), 0, "requests vanished unanswered");
    assert_eq!(c.silent_corruptions, 0);
}

#[test]
fn supervised_recovery_is_within_budget() {
    let c = campaign();
    assert!(
        c.recovery_ms.is_finite() && c.recovery_ms <= RECOVERY_BUDGET_MS,
        "recovery took {} ms",
        c.recovery_ms
    );
    assert!(c.restarts() >= 1);
}

#[test]
fn dead_shard_is_typed_and_contained() {
    let c = campaign();
    assert!(
        c.dead_shard_observed,
        "kill phase never produced a dead shard"
    );
    assert!(
        c.survivors_served_during_outage >= 1,
        "healthy shards went quiet during the outage"
    );
    // The final health summary still answers (health never routes through
    // a shard queue) and records the death.
    assert!(c.health.shards.iter().any(|s| s.state == "dead"));
    assert!(c.health.shards.iter().any(|s| s.state == "up"));
}

#[test]
fn frame_storm_is_survived() {
    let c = campaign();
    let storm = c
        .phases
        .iter()
        .find(|p| p.name == "frame-storm")
        .expect("storm phase present");
    assert!(
        storm.rej_bad_request >= 1,
        "no typed bad_request during storm"
    );
    assert!(c.clean_read_after_storm);
}
