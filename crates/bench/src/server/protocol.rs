//! Wire protocol of the model-server daemon: length-framed UTF-8 payloads
//! over a stream socket, CLI-shaped request lines, JSON response objects.
//!
//! A frame is the ASCII decimal byte length of the payload, a newline, then
//! exactly that many payload bytes. The framing is symmetric — requests and
//! responses use the same codec — and deliberately trivial to speak from a
//! shell (`printf '2\nls' | nc -U serve.sock`). Requests mirror the `mdl`
//! CLI surface so the daemon answers the same questions the one-shot tool
//! does, minus the per-invocation store load.

use crate::serve::{EyeWorkload, McWorkload};
use std::io::{BufRead, Write};

/// Upper bound on a single frame's payload (bytes). A sweep response over a
/// large fleet is the biggest legitimate frame; anything beyond this is a
/// corrupt length header, not traffic.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Writes one frame: `<len>\n<payload>`.
///
/// # Errors
///
/// Propagates I/O failures from the underlying writer.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    writeln!(w, "{}", payload.len())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before a length header.
///
/// # Errors
///
/// I/O failures, a non-numeric or oversized length header, truncated
/// payloads, and non-UTF-8 payloads all surface as `std::io::Error`.
pub fn read_frame(r: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len: usize = header.trim().parse().map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad frame length header {header:?}"),
        )
    })?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// A parsed daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// List the served inventory (names, kinds, digests, load failures).
    Ls,
    /// Describe one served model.
    Info {
        /// Model name.
        name: String,
    },
    /// Re-certify one model against its transistor-level reference.
    Validate {
        /// Model name.
        name: String,
        /// Shrink the validation window to smoke-test budgets.
        fast: bool,
    },
    /// Run one scenario cell on a served model.
    Simulate {
        /// Model name.
        name: String,
        /// Scenario name from the standard matrix, or `auto` to pick the
        /// default cell for the model's port direction.
        scenario: String,
    },
    /// Run the full scenario matrix over every served model.
    Sweep {
        /// Use the shrunken smoke-test scenario set.
        fast: bool,
    },
    /// Fold a PRBS eye diagram on one served driver model.
    Eye {
        /// Model name.
        name: String,
        /// PRBS order tag (7, 15 or 31); `None` keeps the standard workload.
        prbs: Option<u32>,
        /// Bits simulated per lane.
        bits: Option<usize>,
        /// Master seed of the lane streams.
        seed: Option<u64>,
    },
    /// Run a Monte-Carlo channel sweep on one served driver model.
    Mc {
        /// Model name.
        name: String,
        /// Latin-hypercube trials.
        trials: Option<usize>,
        /// Master seed of the sweep.
        seed: Option<u64>,
    },
    /// Report request, cache, reload, and scheduler counters.
    Stats,
    /// Stop the daemon after acknowledging.
    Shutdown,
}

fn take_flag(tokens: &mut Vec<&str>, flag: &str) -> bool {
    if let Some(pos) = tokens.iter().position(|t| *t == flag) {
        tokens.remove(pos);
        true
    } else {
        false
    }
}

fn take_opt(tokens: &mut Vec<&str>, key: &str) -> Result<Option<String>, String> {
    let Some(pos) = tokens.iter().position(|t| *t == key) else {
        return Ok(None);
    };
    if pos + 1 >= tokens.len() {
        return Err(format!("{key} needs a value"));
    }
    tokens.remove(pos);
    Ok(Some(tokens.remove(pos).to_string()))
}

/// Parses one request line into a [`Request`].
///
/// # Errors
///
/// A human-readable message for empty lines, unknown verbs, missing or
/// surplus arguments.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    if tokens.is_empty() {
        return Err("empty request".into());
    }
    let verb = tokens.remove(0);
    let req = match verb {
        "ls" => Request::Ls,
        "info" => Request::Info {
            name: one_name(&mut tokens, verb)?,
        },
        "validate" => {
            let fast = take_flag(&mut tokens, "--fast");
            Request::Validate {
                name: one_name(&mut tokens, verb)?,
                fast,
            }
        }
        "simulate" => {
            let scenario = take_opt(&mut tokens, "--scenario")?.unwrap_or_else(|| "auto".into());
            Request::Simulate {
                name: one_name(&mut tokens, verb)?,
                scenario,
            }
        }
        "sweep" => Request::Sweep {
            fast: take_flag(&mut tokens, "--fast"),
        },
        "eye" => {
            let prbs = take_opt(&mut tokens, "--prbs")?
                .map(|v| crate::parse_prbs(&v))
                .transpose()?;
            let bits = take_count(
                &mut tokens,
                "--bits",
                EyeWorkload::MIN_BITS,
                EyeWorkload::MAX_BITS,
            )?
            .map(|b| b as usize);
            let seed = take_count(&mut tokens, "--seed", 0, u64::MAX)?;
            Request::Eye {
                name: one_name(&mut tokens, verb)?,
                prbs,
                bits,
                seed,
            }
        }
        "mc" => {
            let trials = take_count(
                &mut tokens,
                "--trials",
                McWorkload::MIN_TRIALS,
                McWorkload::MAX_TRIALS,
            )?
            .map(|t| t as usize);
            let seed = take_count(&mut tokens, "--seed", 0, u64::MAX)?;
            Request::Mc {
                name: one_name(&mut tokens, verb)?,
                trials,
                seed,
            }
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown request '{other}'")),
    };
    if !tokens.is_empty() {
        return Err(format!("unexpected arguments: {}", tokens.join(" ")));
    }
    Ok(req)
}

/// [`take_opt`] for a count in `min..=max`, through the same grammar and
/// bounds the `mdl` CLI enforces for the flag ([`crate::parse_count`]).
fn take_count(
    tokens: &mut Vec<&str>,
    key: &str,
    min: u64,
    max: u64,
) -> Result<Option<u64>, String> {
    take_opt(tokens, key)?
        .map(|v| crate::parse_count(key, &v, min, max))
        .transpose()
}

fn one_name(tokens: &mut Vec<&str>, verb: &str) -> Result<String, String> {
    if tokens.is_empty() {
        return Err(format!("{verb} needs a model name"));
    }
    Ok(tokens.remove(0).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "simulate md1 --scenario r50").unwrap();
        write_frame(&mut wire, "").unwrap();
        write_frame(&mut wire, "payload\nwith newlines\n").unwrap();
        let mut r = BufReader::new(&wire[..]);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("simulate md1 --scenario r50")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("payload\nwith newlines\n")
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn bad_frames_are_rejected() {
        let mut r = BufReader::new(&b"notanumber\nxx"[..]);
        assert!(read_frame(&mut r).is_err());
        let mut r = BufReader::new(&b"99999999999\n"[..]);
        assert!(read_frame(&mut r).is_err(), "oversized length header");
        let mut r = BufReader::new(&b"10\nshort"[..]);
        assert!(read_frame(&mut r).is_err(), "truncated payload");
        let mut sink = Vec::new();
        let huge = "x".repeat(MAX_FRAME + 1);
        assert!(write_frame(&mut sink, &huge).is_err());
    }

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request("ls").unwrap(), Request::Ls);
        assert_eq!(
            parse_request("info md1").unwrap(),
            Request::Info { name: "md1".into() }
        );
        assert_eq!(
            parse_request("validate md1 --fast").unwrap(),
            Request::Validate {
                name: "md1".into(),
                fast: true
            }
        );
        assert_eq!(
            parse_request("simulate md1").unwrap(),
            Request::Simulate {
                name: "md1".into(),
                scenario: "auto".into()
            }
        );
        assert_eq!(
            parse_request("simulate md1 --scenario bus-ladder").unwrap(),
            Request::Simulate {
                name: "md1".into(),
                scenario: "bus-ladder".into()
            }
        );
        assert_eq!(
            parse_request("sweep --fast").unwrap(),
            Request::Sweep { fast: true }
        );
        assert_eq!(
            parse_request("eye md1").unwrap(),
            Request::Eye {
                name: "md1".into(),
                prbs: None,
                bits: None,
                seed: None
            }
        );
        assert_eq!(
            parse_request("eye md1 --prbs 15 --bits 48 --seed 7").unwrap(),
            Request::Eye {
                name: "md1".into(),
                prbs: Some(15),
                bits: Some(48),
                seed: Some(7)
            }
        );
        assert_eq!(
            parse_request("mc md1 --trials 12 --seed 42").unwrap(),
            Request::Mc {
                name: "md1".into(),
                trials: Some(12),
                seed: Some(42)
            }
        );
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("   ").is_err());
        assert!(parse_request("frobnicate").is_err());
        assert!(parse_request("info").is_err(), "missing name");
        assert!(parse_request("ls extra").is_err(), "surplus arguments");
        assert!(parse_request("simulate md1 --scenario").is_err());
        assert!(parse_request("eye").is_err(), "missing name");
        assert!(
            parse_request("eye md1 --prbs nine").is_err(),
            "non-numeric option value"
        );
        assert!(parse_request("mc md1 --trials").is_err());
        // Range checks shared with the `mdl` CLI.
        assert!(parse_request("mc md1 --trials 0").is_err());
        assert!(parse_request("eye md1 --bits 0").is_err());
        assert!(parse_request("eye md1 --bits 3").is_err());
        assert!(parse_request("eye md1 --prbs 9").is_err());
        assert!(parse_request("eye md1 --bits 4 --prbs 31").is_ok());
    }

    #[test]
    fn counts_share_the_cli_grammar() {
        // Integral floats parse like the `mdl` flags do.
        assert_eq!(
            parse_request("eye md1 --bits 1e1 --seed 1e3").unwrap(),
            Request::Eye {
                name: "md1".into(),
                prbs: None,
                bits: Some(10),
                seed: Some(1000)
            }
        );
        assert_eq!(
            parse_request("mc md1 --trials 1.2e1 --seed 7.0").unwrap(),
            Request::Mc {
                name: "md1".into(),
                trials: Some(12),
                seed: Some(7)
            }
        );
        assert!(parse_request("eye md1 --prbs 1.5e1").is_ok());
        // Fractional, negative and non-finite counts stay errors.
        for bad in ["10.5", "-1", "inf", "NaN", "1e400"] {
            assert!(
                parse_request(&format!("eye md1 --bits {bad}")).is_err(),
                "{bad}"
            );
            assert!(
                parse_request(&format!("mc md1 --seed {bad}")).is_err(),
                "{bad}"
            );
        }
        assert!(parse_request("eye md1 --prbs 4294967303").is_err());
    }

    #[test]
    fn counts_above_the_workload_bounds_are_rejected() {
        // Each would ask one cell for terabytes or hours; an allocation
        // failure aborts the whole daemon, so the bound is checked here.
        assert!(parse_request("mc md1 --trials 100000000000").is_err());
        assert!(parse_request("eye md1 --bits 1000000000000").is_err());
        let (bits, trials) = (EyeWorkload::MAX_BITS, McWorkload::MAX_TRIALS);
        assert!(parse_request(&format!("eye md1 --bits {bits}")).is_ok());
        assert!(parse_request(&format!("eye md1 --bits {}", bits + 1)).is_err());
        assert!(parse_request(&format!("mc md1 --trials {trials}")).is_ok());
        assert!(parse_request(&format!("mc md1 --trials {}", trials + 1)).is_err());
    }
}
