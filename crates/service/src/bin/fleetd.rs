//! `ptsim-fleetd` — the wafer-fleet telemetry daemon.
//!
//! ```text
//! PTSIM_FLEET_ADDR=127.0.0.1:0   bind address (0 = ephemeral port)
//! PTSIM_FLEET_DIES=64            virtual dies
//! PTSIM_FLEET_SHARDS=4           supervised shards
//! PTSIM_FLEET_SEED=0x5eed        base seed of the per-die streams
//! PTSIM_FLEET_IDLE_SECS=30      idle-connection reap timeout
//! ```
//!
//! Each connection thread serves its own requests, one at a time per shard;
//! `batch_read` is the one request that converts many dies in one
//! lane-grouped pass.
//!
//! Prints `ptsim-fleetd listening on <addr>` once bound (scripts parse
//! this line for the resolved ephemeral port), then serves until a
//! `{"op":"shutdown"}` frame arrives.

use ptsim_service::{Fleet, FleetConfig, Server, ServerConfig};
use std::time::Duration;

/// Reads `name` as a decimal or `0x` hex integer, or `default` when it is
/// unset. A set value that does not parse stops the daemon (exit 2) with a
/// message naming the variable and its value, rather than silently
/// serving the default.
fn env_u64(name: &str, default: u64) -> u64 {
    let Some(raw) = std::env::var_os(name) else {
        return default;
    };
    let raw = raw.to_string_lossy();
    let v = raw.trim();
    v.strip_prefix("0x")
        .map_or_else(|| v.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or_else(|| {
            eprintln!("error: {name}={raw:?} is not a valid number");
            std::process::exit(2);
        })
}

fn main() {
    let addr = std::env::var("PTSIM_FLEET_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let fleet_cfg = FleetConfig {
        n_dies: env_u64("PTSIM_FLEET_DIES", 64),
        n_shards: env_u64("PTSIM_FLEET_SHARDS", 4),
        base_seed: env_u64("PTSIM_FLEET_SEED", 0x5eed),
        ..FleetConfig::default()
    };
    let server_cfg = ServerConfig {
        idle_timeout: Duration::from_secs(env_u64("PTSIM_FLEET_IDLE_SECS", 30)),
        ..ServerConfig::default()
    };
    let fleet = Fleet::start(fleet_cfg);
    let server = match Server::bind(fleet, &addr, server_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ptsim-fleetd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("ptsim-fleetd listening on {}", server.local_addr());
    server.join();
}
