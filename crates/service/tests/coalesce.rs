//! Coalescing-equivalence: a read served inside a coalesced group must be
//! bit-identical — temperature, threshold shifts, energy, *and* the
//! quality flag derived from the sensor's health record — to the same
//! read served alone.
//!
//! Two fleets with identical seeds run the same randomized rounds of
//! concurrent reads; one fleet has coalescing disabled (`coalesce_max`
//! 1), the other groups aggressively (`coalesce_max` 8) with a one-shot
//! worker stall building queue depth so grouping actually engages (the
//! derived `svc.coalesced_wakes` counter proves it did). Every reply —
//! readings, degraded readings, and deadline timeouts — must match.

use ptsim_rng::{Pcg64, RngCore};
use ptsim_service::protocol::{InjectKind, Quality, Request, Response};
use ptsim_service::{Fleet, FleetConfig};
use std::time::Duration;

fn fleet_with(coalesce_max: usize) -> Fleet {
    Fleet::start(FleetConfig {
        n_dies: 8,
        n_shards: 1, // one queue: maximal grouping pressure
        queue_depth: 64,
        base_seed: 0xc0a1,
        coalesce_max,
        max_restarts: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    })
}

fn read(die: u64, temp_c: f64, deadline_ms: u64) -> Request {
    Request::Read {
        die,
        temp_c,
        priority: 1,
        deadline_ms,
    }
}

/// One round: a stalled read on `stall_die` builds queue depth, then the
/// remaining dies are read concurrently while the worker sleeps. Returns
/// the replies in submission order.
fn run_round(fleet: &Fleet, stall_die: u64, jobs: &[(u64, f64, u64)]) -> Vec<Response> {
    let injected = fleet.submit(Request::Inject {
        die: stall_die,
        kind: InjectKind::StallMs(60),
    });
    assert!(matches!(injected, Response::Injected { .. }));
    std::thread::scope(|s| {
        let stalled = s.spawn(move || fleet.submit(read(stall_die, 55.0, 30_000)));
        // Let the worker dequeue the stalled read and enter its sleep, so
        // the reads below pile up behind it in the shard queue.
        std::thread::sleep(Duration::from_millis(15));
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(die, temp_c, deadline_ms)| {
                s.spawn(move || fleet.submit(read(die, temp_c, deadline_ms)))
            })
            .collect();
        let mut replies = vec![stalled.join().expect("stalled reader join")];
        replies.extend(handles.into_iter().map(|h| h.join().expect("reader join")));
        replies
    })
}

#[test]
fn coalesced_reads_are_bit_identical_to_solo_reads() {
    let solo = fleet_with(1);
    let grouped = fleet_with(8);

    // Warm every die on both fleets: identical seeds, identical streams.
    for fleet in [&solo, &grouped] {
        for die in 0..8 {
            let r = fleet.submit(read(die, 60.0, 30_000));
            assert!(matches!(r, Response::Reading { .. }), "warmup: {r:?}");
        }
    }

    let mut rng = Pcg64::seed_from_u64(0x5eed_c0a1);
    for round in 0..12 {
        let stall_die = rng.next_u64() % 8;
        // Randomized queue contents: every other die in random rotation,
        // random temperature, and a mix of generous deadlines (always
        // served) and 1 ms deadlines (always expired behind the 60 ms
        // stall — answered with a typed timeout by the front-end, then
        // dropped at dequeue). Mid-range deadlines would race the stall
        // and flake, so the mix is bimodal on purpose.
        // Distinct dies only: two same-die reads in one round would make
        // the reply values depend on scheduler interleaving.
        let rot = rng.next_u64() % 8;
        let jobs: Vec<(u64, f64, u64)> = (0..8u64)
            .map(|d| (d + rot) % 8)
            .filter(|&die| die != stall_die)
            .map(|die| {
                let temp_c = 40.0 + (rng.next_u64() % 600) as f64 / 10.0;
                let deadline_ms = if rng.next_u64().is_multiple_of(4) {
                    1
                } else {
                    30_000
                };
                (die, temp_c, deadline_ms)
            })
            .collect();
        // A persistent (non-one-shot) degrade on a random die every few
        // rounds: the quality flag in a coalesced reading must track the
        // die's health record exactly as a solo reading's does.
        if round % 3 == 0 {
            let die = rng.next_u64() % 8;
            let kind = if round % 6 == 0 {
                InjectKind::DegradeDie
            } else {
                InjectKind::HealDie
            };
            for fleet in [&solo, &grouped] {
                let r = fleet.submit(Request::Inject { die, kind });
                assert!(matches!(r, Response::Injected { .. }));
            }
        }

        let solo_replies = run_round(&solo, stall_die, &jobs);
        let grouped_replies = run_round(&grouped, stall_die, &jobs);
        assert_eq!(
            solo_replies, grouped_replies,
            "round {round}: coalesced replies diverged from solo replies"
        );
        // Sanity: generous-deadline reads were actually served.
        assert!(grouped_replies
            .iter()
            .any(|r| matches!(r, Response::Reading { .. })));
    }

    // Quality flags went through both states at least once.
    let saw_degraded = |fleet: &Fleet| {
        (0..8).any(|die| {
            matches!(
                fleet.submit(read(die, 60.0, 30_000)),
                Response::Reading {
                    quality: Quality::Degraded,
                    ..
                }
            )
        })
    };
    assert_eq!(saw_degraded(&solo), saw_degraded(&grouped));

    // Proof the scheduler grouped on the coalescing fleet and never on the
    // solo fleet: the derived health counters project the width histogram.
    let wakes = |fleet: &Fleet| {
        fleet
            .health()
            .counters
            .iter()
            .find(|(k, _)| k == "svc.coalesced_wakes")
            .map_or(0, |&(_, v)| v)
    };
    assert_eq!(wakes(&solo), 0, "coalesce_max 1 must never group");
    assert!(
        wakes(&grouped) > 0,
        "stall rounds never built a group — the equivalence above tested nothing"
    );

    solo.shutdown();
    grouped.shutdown();
}
