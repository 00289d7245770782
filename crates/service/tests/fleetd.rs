//! The `fleetd` binary's environment handling: a knob that is set but does
//! not parse stops the daemon before it binds, naming the variable and the
//! value, instead of silently serving the default.

use std::process::Command;

#[test]
fn unparsable_env_value_exits_2_naming_variable_and_value() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleetd"))
        .env("PTSIM_FLEET_ADDR", "127.0.0.1:0")
        .env("PTSIM_FLEET_DIES", "abc")
        .output()
        .expect("run fleetd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(r#"error: PTSIM_FLEET_DIES="abc" is not a valid number"#),
        "stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "fleetd must not have started serving"
    );
}
