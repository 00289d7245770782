//! Self-tests of the benchmark's own arithmetic: the percentile rule,
//! due-time latency and lateness, the `max_rps` ladder, the ledger
//! residual, and the agreement of `BENCHMARK.json` with the metrics the
//! binary prints.

use ptsim_perfbench::fleet::{rates, HEAVY_SHARE_OF_CAPACITY, RECORDED_CAPACITY_RPS};
use ptsim_perfbench::report::{END_TO_END, LAYERS};
use ptsim_perfbench::stats::{
    backlog_growing, beyond, due_us, max_rps, median, percentile, reportable, summarize,
    trace_overhead, unattributed_share, Rung, Timed, MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    let v = ramp(100);
    assert_eq!(percentile(&v, 0.5), 50.0);
    assert_eq!(percentile(&v, 0.99), 99.0);
    assert_eq!(percentile(&v, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // p99 of n samples leaves n − ceil(0.99 n) beyond: 1000 leaves exactly
    // ten, 999 leaves nine.
    assert_eq!(beyond(1000, 0.99), MIN_BEYOND);
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(reportable(&ramp(1000), 0.99), Some(990.0));
    assert_eq!(reportable(&ramp(999), 0.99), None);
    // p95 needs 200.
    assert_eq!(reportable(&ramp(200), 0.95), Some(190.0));
    assert_eq!(reportable(&ramp(199), 0.95), None);
    let mut v = ramp(500);
    v.reverse();
    let s = summarize(&mut v);
    assert_eq!((s.n, s.p50, s.p95, s.p99), (500, 250.0, Some(475.0), None));
    assert_eq!(s.mean, 250.5);
}

#[test]
fn latency_runs_from_due_time_and_lateness_is_reported_apart() {
    // 2000/s on one connection: one request due every 500 µs; a phase
    // offset of one half shifts the whole schedule by 250 µs.
    assert_eq!(due_us(0, 2_000.0, 0.0), 0.0);
    assert_eq!(due_us(3, 2_000.0, 0.0), 1_500.0);
    assert_eq!(due_us(3, 2_000.0, 0.5), 1_750.0);
    // Sent 40 µs late, answered 100 µs after sending: the user waited 140.
    let t = Timed {
        due_us: 1_500.0,
        sent_us: 1_540.0,
        done_us: 1_640.0,
    };
    assert_eq!(t.lateness_us(), 40.0);
    assert_eq!(t.latency_us(), 140.0);
    // Sent 30 µs early: the latency runs from the actual send.
    let early = Timed {
        due_us: 1_500.0,
        sent_us: 1_470.0,
        done_us: 1_570.0,
    };
    assert_eq!(early.lateness_us(), -30.0);
    assert_eq!(early.latency_us(), 100.0);
}

#[test]
fn a_backlog_grows_when_late_sends_pile_up() {
    let steady = vec![5.0; 40];
    assert!(!backlog_growing(&steady, 1_000.0));
    // Lateness climbing by 100 µs per send: the last quarter runs ~3 ms
    // later than the first.
    let climbing: Vec<f64> = (0..40).map(|i| f64::from(i) * 100.0).collect();
    assert!(backlog_growing(&climbing, 1_000.0));
    // A single late burst in the middle that is caught up is no backlog.
    let mut burst = vec![5.0; 40];
    burst[20] = 50_000.0;
    assert!(!backlog_growing(&burst, 1_000.0));
    assert!(!backlog_growing(&[1e9, 1e9, 1e9], 1_000.0));
}

fn rung(rate: f64, p99: Option<f64>) -> Rung {
    Rung {
        rate,
        p99_us: p99,
        backlog_growing: false,
        failed: 0,
    }
}

#[test]
fn max_rps_is_the_top_of_the_passing_prefix() {
    let limit = 1_000.0;
    let ladder = [
        rung(4_000.0, Some(300.0)),
        rung(6_000.0, Some(900.0)),
        rung(8_000.0, Some(1_200.0)),
        // Passes again, but past the first failure it does not count.
        rung(10_000.0, Some(800.0)),
    ];
    assert_eq!(max_rps(&ladder, limit), 6_000.0);
    // An unreportable p99, a failure, or a growing backlog each fail a rung.
    assert_eq!(max_rps(&[rung(4_000.0, None)], limit), 0.0);
    let mut failed = rung(4_000.0, Some(10.0));
    failed.failed = 1;
    assert_eq!(max_rps(&[failed], limit), 0.0);
    let mut backlog = rung(4_000.0, Some(10.0));
    backlog.backlog_growing = true;
    assert_eq!(max_rps(&[backlog], limit), 0.0);
    assert_eq!(max_rps(&[], limit), 0.0);
    // With no latency limit the ladder finds where the backlog starts
    // growing (`backlog_free_rps`).
    let mut saturated = rung(16_000.0, Some(90_000.0));
    saturated.backlog_growing = true;
    let ladder = [rung(8_000.0, Some(50_000.0)), saturated];
    assert_eq!(max_rps(&ladder, limit), 0.0);
    assert_eq!(max_rps(&ladder, f64::INFINITY), 8_000.0);
}

#[test]
fn fleet_rates_follow_the_dtm_tick_and_the_recorded_capacity() {
    // One sensor read per 2 ms tick; four tiers per stack; heavy is the
    // most whole stacks within a quarter of the recorded capacity.
    let r = rates();
    assert_eq!(r.light, 4.0 * 500.0);
    assert_eq!(r.heavy, 4.0 * r.light);
    assert!(r.heavy <= HEAVY_SHARE_OF_CAPACITY * RECORDED_CAPACITY_RPS);
    assert!(r.heavy + r.light > HEAVY_SHARE_OF_CAPACITY * RECORDED_CAPACITY_RPS);
    assert_eq!(r.ladder, vec![500.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0]);
}

#[test]
fn the_residual_is_what_the_layers_leave_unexplained() {
    assert_eq!(unattributed_share(100.0, &[30.0, 50.0]), 0.2);
    assert_eq!(unattributed_share(100.0, &[]), 1.0);
    // Parts that overrun the total (overlapping spans) show as negative.
    assert_eq!(unattributed_share(100.0, &[70.0, 40.0]), -0.1);
    assert_eq!(trace_overhead(10.0, 12.5), 0.25);
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let json = include_str!("../../BENCHMARK.json");
    let names = json.matches("\"name\":").count();
    let workloads = ["population", "fleet", "dtm"];
    assert_eq!(names, workloads.len() + END_TO_END.len() + LAYERS.len());
    for w in workloads {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    for (name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "end-to-end metric {name}"
        );
    }
    for l in LAYERS {
        assert!(
            json.contains(&format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                l.name, l.unit
            )),
            "per-layer metric {}",
            l.name
        );
    }
}
