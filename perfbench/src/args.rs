//! Strict command-line parsing: every flag must be known, carry a value and
//! parse as its type. A value that does not parse is a usage error, never a
//! silent fall-back to the default (`--seconds 1e6` must not quietly run the
//! default length).

use std::fmt;
use std::str::FromStr;

/// The three workloads, each stressing a different part of the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full enumeration of small Chung–Lu graphs, sequential and work-steal.
    EnumFull,
    /// Large-MBP pipeline plus the dynamic maintainer on a planted graph.
    PlantedDynamic,
    /// Open-loop query and update traffic against an in-process daemon.
    ServeMixed,
}

impl Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnumFull => "enum-full",
            Workload::PlantedDynamic => "planted-dynamic",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "enum-full" => Ok(Workload::EnumFull),
            "planted-dynamic" => Ok(Workload::PlantedDynamic),
            "serve-mixed" => Ok(Workload::ServeMixed),
            other => Err(format!(
                "unknown workload {other:?} (expected enum-full, planted-dynamic or serve-mixed)"
            )),
        }
    }
}

/// Parsed and checked arguments of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// `true` for the traced run that reports per-layer metrics.
    pub trace: bool,
}

/// A usage error: the message names the offending flag or value.
#[derive(Debug)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n{USAGE}", self.0)
    }
}

/// Usage text printed with every usage error.
const USAGE: &str = "usage: perfbench --workload <enum-full|planted-dynamic|serve-mixed> \
[--seed <u64, default 7>] [--seconds <positive number, default 30>] [--trace <0|1, default 0>]";

fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, UsageError>
where
    T::Err: fmt::Display,
{
    value.parse().map_err(|e| UsageError(format!("--{flag}: cannot parse {value:?}: {e}")))
}

impl Args {
    /// Parses `--flag value` pairs. Unknown flags, missing values, repeated
    /// flags and values that do not parse are all errors.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, UsageError> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = tokens.into_iter();
        while let Some(token) = it.next() {
            let Some(flag) = token.strip_prefix("--") else {
                return Err(UsageError(format!("unexpected argument {token:?}")));
            };
            let value = it.next().ok_or_else(|| UsageError(format!("--{flag} needs a value")))?;
            let duplicate = match flag {
                "workload" => workload.replace(parse_value::<Workload>(flag, &value)?).is_some(),
                "seed" => seed.replace(parse_value::<u64>(flag, &value)?).is_some(),
                "seconds" => seconds.replace(parse_value::<f64>(flag, &value)?).is_some(),
                "trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => {
                            return Err(UsageError(format!(
                                "--trace: expected 0 or 1, got {value:?}"
                            )))
                        }
                    })
                    .is_some(),
                _ => return Err(UsageError(format!("unknown flag --{flag}"))),
            };
            if duplicate {
                return Err(UsageError(format!("--{flag} given twice")));
            }
        }
        let seconds = seconds.unwrap_or(30.0);
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(UsageError(format!("--seconds must be in (0, 600], got {seconds}")));
        }
        Ok(Args {
            workload: workload.ok_or_else(|| UsageError("--workload is required".to_string()))?,
            seed: seed.unwrap_or(7),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, UsageError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_values() {
        let a = parse(&["--workload", "enum-full"]).unwrap();
        assert_eq!(a, Args { workload: Workload::EnumFull, seed: 7, seconds: 30.0, trace: false });
        let a = parse(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "11",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a, Args { workload: Workload::ServeMixed, seed: 11, seconds: 2.5, trace: true });
    }

    #[test]
    fn unparsable_values_are_errors_not_defaults() {
        // The bug this parser exists to avoid: a value that does not parse
        // must not fall back to the default.
        for bad in [
            &["--workload", "enum-full", "--seed", "1e6"][..],
            &["--workload", "enum-full", "--seed", "-3"],
            &["--workload", "enum-full", "--seconds", "ten"],
            &["--workload", "enum-full", "--trace", "yes"],
            &["--workload", "enum-ful"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "enum-full", "--edges", "10"],
            &["--workload", "enum-full", "stray"],
            &["--workload", "enum-full", "--seed", "1", "--seed", "2"],
            &["--workload", "enum-full", "--seconds", "0"],
            &["--workload", "enum-full", "--seconds", "NaN"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
