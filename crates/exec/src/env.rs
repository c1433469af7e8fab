//! Hardened runtime-environment knobs.
//!
//! The engine's worker count (`INTUNE_THREADS`) is parsed here, once,
//! with garbage surfacing as a typed [`Error::Config`] instead of
//! silently degrading to a default — a daemon started with
//! `INTUNE_THREADS=eight` should refuse to start, not quietly run on one
//! worker. An *unset* variable is never an error: [`threads_from_env`]
//! returns `Ok(None)` for it.

use intune_core::{Error, Result};

/// Environment variable overriding the engine's worker-thread count.
pub const THREADS_ENV: &str = "INTUNE_THREADS";

/// Parses a worker-thread count as `INTUNE_THREADS` would carry it:
/// a positive integer, surrounding whitespace tolerated.
///
/// # Errors
/// Returns [`Error::Config`] on a non-numeric value or zero (an engine
/// cannot run on zero workers; silently clamping would hide the typo).
pub fn parse_threads(raw: &str) -> Result<usize> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(Error::config(
            THREADS_ENV,
            "`0` workers cannot run anything; unset the variable for the default",
        )),
        Ok(t) => Ok(t),
        Err(_) => Err(Error::config(
            THREADS_ENV,
            format!("`{trimmed}` is not a positive integer"),
        )),
    }
}

/// Reads and parses [`THREADS_ENV`]. Unset → `Ok(None)`.
///
/// # Errors
/// Returns [`Error::Config`] when the variable is set to garbage
/// (non-UTF-8, non-numeric, or zero).
pub fn threads_from_env() -> Result<Option<usize>> {
    match std::env::var_os(THREADS_ENV) {
        None => Ok(None),
        Some(os) => {
            let raw = os
                .to_str()
                .ok_or_else(|| Error::config(THREADS_ENV, "value is not valid UTF-8"))?;
            parse_threads(raw).map(Some)
        }
    }
}

pub(crate) fn exit_config(e: &Error) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_parse_accepts_positive_integers() {
        assert_eq!(parse_threads("1").unwrap(), 1);
        assert_eq!(parse_threads("8").unwrap(), 8);
        assert_eq!(parse_threads("  3 \n").unwrap(), 3, "whitespace tolerated");
    }

    #[test]
    fn threads_parse_rejects_garbage_with_typed_errors() {
        for bad in ["", "eight", "-2", "1.5", "0x4", "4 workers"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                matches!(&err, Error::Config { var, .. } if var == THREADS_ENV),
                "{bad:?}: {err:?}"
            );
        }
    }

    #[test]
    fn zero_threads_is_rejected_not_clamped() {
        let err = parse_threads("0").unwrap_err();
        assert!(matches!(err, Error::Config { .. }), "{err:?}");
        assert!(err.to_string().contains("0"), "{err}");
    }
}
