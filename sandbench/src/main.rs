//! `sandbench`: the end-to-end trainer benchmark of the SAND workspace.
//!
//! ```text
//! sandbench --workload W --seed N --seconds S --trace 0|1   one run
//! sandbench run [--workload W] [--seed N] [--seconds S] [--sets K]
//! sandbench check <result.json>
//! ```
//!
//! One run prints every metric by name with its unit, checks the served
//! bytes against a sequential reference engine, and ends with one JSON
//! line (`correct`, `attempted`, `failed`, `metrics`). See `README.md`.

mod host;
mod json;
mod layers;
mod loader;
mod pass;
mod repeat;
mod report;
mod rig;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  sandbench --workload W --seed N --seconds S --trace 0|1
  sandbench run [--workload W] [--seed N] [--seconds S] [--sets K]
  sandbench check <result.json>
workloads: fig11_single_fit fig13_multi_constrained disk_spill remote_ddp";

/// Flags of every form, parsed once at the door. Unknown flags and
/// malformed numbers are usage errors, not defaults.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<u64>,
    pub trace: Option<bool>,
    pub sets: Option<usize>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                if workloads::by_name(value).is_none() {
                    return Err(format!("unknown workload `{value}`"));
                }
                flags.workload = Some(value.clone());
            }
            "--seed" => flags.seed = Some(number()?),
            "--seconds" => match number()? {
                s @ 1..=60 => flags.seconds = Some(s),
                _ => return Err("--seconds must be 1 to 60".into()),
            },
            "--trace" => match value.as_str() {
                "0" => flags.trace = Some(false),
                "1" => flags.trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            "--sets" => match number()? {
                k @ 1..=64 => flags.sets = Some(k as usize),
                _ => return Err("--sets must be 1 to 64".into()),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| repeat::run_sets(&f)),
        Some("check") => match args.get(1) {
            Some(path) if args.len() == 2 => repeat::check_file(path),
            _ => Err(USAGE.to_string()),
        },
        Some(flag) if flag.starts_with("--") => parse_flags(&args).and_then(|f| {
            match (&f.workload, f.seed, f.seconds, f.trace, f.sets) {
                (Some(w), Some(seed), Some(seconds), Some(trace), None) => {
                    let spec = workloads::by_name(w).ok_or("unknown workload")?;
                    run::run_once(spec, seed, seconds, trace)
                }
                _ => Err(USAGE.to_string()),
            }
        }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sandbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_parses() {
        let f = parse_flags(&args(
            "--workload disk_spill --seed 42 --seconds 20 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            f,
            Flags {
                workload: Some("disk_spill".into()),
                seed: Some(42),
                seconds: Some(20),
                trace: Some(true),
                sets: None,
            }
        );
    }

    #[test]
    fn bad_input_is_refused_at_the_door() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seed",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--sets 0",
            "--quick 1",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
    }
}
