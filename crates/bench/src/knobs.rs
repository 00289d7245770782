//! Numeric environment knobs (`PTSIM_BENCH_DIES`, `PTSIM_DTM_STEPS`, …).
//!
//! An unset knob takes its default. A knob that is set but does not parse
//! stops the process with a message naming the variable and its value,
//! instead of silently running with the default.

use std::str::FromStr;

/// Parses the raw value of knob `name`: `Ok(None)` when unset, `Ok(Some)`
/// when it parses as `T`, and an error naming the variable and the bad
/// value otherwise.
///
/// # Errors
///
/// Returns the message [`knob`] prints when `raw` does not parse.
pub fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String> {
    match raw {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}={v:?} is not a valid number")),
    }
}

/// Reads knob `name` from the environment (`None` when unset).
///
/// Exits the process with status 2 when the variable is set to a value
/// that does not parse as `T`.
#[must_use]
pub fn knob<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref()).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knob_is_none() {
        assert_eq!(parse_knob::<usize>("PTSIM_BENCH_DIES", None), Ok(None));
    }

    #[test]
    fn valid_knob_parses() {
        assert_eq!(
            parse_knob("PTSIM_BENCH_DIES", Some("16")),
            Ok(Some(16usize))
        );
        assert_eq!(parse_knob("PTSIM_DTM_STEPS", Some("0")), Ok(Some(0u64)));
    }

    #[test]
    fn unparsable_knob_names_variable_and_value() {
        for bad in ["abc", "", "-3", "1.5", "12 "] {
            let err = parse_knob::<usize>("PTSIM_BENCH_DIES", Some(bad)).unwrap_err();
            assert!(err.contains("PTSIM_BENCH_DIES"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
