//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <population|fleet|dtm> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `metric`/`figure`/`layer`/`check` line per value, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when any correctness check (or the traced
//! run's bit-identity guard) fails.

use ptsim_perfbench::report::{host_control_ms, Outcome, LAYERS};
use ptsim_perfbench::{dtm, fleet, population};
use std::process::ExitCode;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 2012;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let control_before = host_control_ms();
    let o: Outcome = match args.workload.as_str() {
        "population" => population::run(args.seed, args.seconds, args.trace),
        "fleet" => fleet::run(args.seed, args.seconds, args.trace),
        "dtm" => dtm::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (population, fleet, dtm)");
            return ExitCode::from(2);
        }
    };
    let control_after = host_control_ms();

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host control_ms {control_before:.3} {control_after:.3} (fixed loop, no repository code; reported, never gated)");
    for m in &o.end_to_end {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for m in &o.figures {
        println!("figure {}.{} {} {}", args.workload, m.name, m.value, m.unit);
    }
    if args.trace {
        for l in LAYERS {
            let v = o
                .layers
                .iter()
                .find(|m| m.name == l.name)
                .map_or(0.0, |m| m.value);
            println!("layer {} {} {} -> {}", l.name, v, l.unit, l.moves);
        }
    }
    println!(
        "figure {}.fail_ratio {} ratio ({} of {})",
        args.workload,
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    for c in &o.checks {
        println!(
            "check {} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAIL" },
            c.detail
        );
    }
    let correct = o.correct() && o.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted.max(1),
        o.failed,
        o.metrics_json(args.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
