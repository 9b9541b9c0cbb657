//! `tlbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload from the seed, replays and checks it, and
//! prints one JSON result line last on standard output. Exit code 0 when
//! every check passed, 1 when a check failed, 2 on a usage or set-up
//! error.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use tlbbench::run::Args;
use tlbbench::workloads::{WorkDir, Workload};

const USAGE: &str = "usage: tlbbench --workload <frag-walk|stream-ingest|smp-shootdown> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tlbbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = match WorkDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("tlbbench: creating the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        tlbbench::layers::traced(&args, dir.path())
    } else {
        tlbbench::run::end_to_end(&args, dir.path())
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("tlbbench: {e}");
            ExitCode::from(2)
        }
    }
}
