//! End-to-end benchmark of the EMTS pipeline.
//!
//! Three workloads stress different layers of the same code:
//!
//! * `grelon-seed` — n = 100 DAGGEN PTGs on Grelon under EMTS5, where the
//!   MCPA/HCPA seeding dominates;
//! * `chti-evolve` — n = 50 PTGs on Chti under EMTS10, where the EA
//!   generations on the serial delta path dominate;
//! * `online-churn` — the rolling-horizon control loop under node churn,
//!   with pooled fitness evaluation and `Rescheduler` repairs.
//!
//! Inputs are generated from `--seed`; outputs are checked by code of the
//! benchmark's own ([`validate`]). See `README.md` for the metric tables.

pub mod layers;
pub mod metrics;
pub mod offline;
pub mod online;
pub mod stats;
pub mod validate;

use std::time::{Duration, Instant};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["grelon-seed", "chti-evolve", "online-churn"];

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(format!(
                            "unknown workload {value:?} (known: {})",
                            WORKLOADS.join(", ")
                        ));
                    }
                    workload = Some(value);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("seconds {s} outside (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {value:?} (0 or 1)")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
        })
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What [`measure`] measured.
pub struct Measured<T> {
    /// The first set-up's result: the run's inputs.
    pub inputs: T,
    /// Median time of one set-up, seconds.
    pub setup_s: f64,
    /// Rounds run.
    pub rounds: usize,
    /// Summed wall time of the rounds (set-ups excluded).
    pub wall: Duration,
}

/// Sets up once, then runs `round` on the inputs until `seconds` of
/// rounds have passed (always at least one round), so that every run
/// attempts whole rounds. After each round, outside the rounds' wall time,
/// `setup` runs `setups_per_round` times more and its result is dropped:
/// the set-up samples then spread over the whole run, and their median
/// follows the host's speed drift the way the rounds do rather than the
/// state of the first second.
pub fn measure<T>(
    seconds: f64,
    setups_per_round: usize,
    setup: impl Fn() -> T,
    mut round: impl FnMut(&T),
) -> Measured<T> {
    let mut setup_times = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let inputs = std::hint::black_box(setup());
        setup_times.push(t.elapsed().as_secs_f64());
        inputs
    };
    let inputs = timed_setup();
    let mut rounds = 0;
    let mut wall = Duration::ZERO;
    while rounds == 0 || wall.as_secs_f64() < seconds {
        let t = Instant::now();
        round(&inputs);
        wall += t.elapsed();
        rounds += 1;
        for _ in 0..setups_per_round {
            drop(timed_setup());
        }
    }
    Measured {
        inputs,
        setup_s: stats::median(&setup_times).expect("at least one set-up"),
        rounds,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload chti-evolve --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "chti-evolve".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload chti-evolve --seed x --seconds 1").is_err());
        assert!(parse("--workload chti-evolve --seed 1 --seconds 0").is_err());
        assert!(parse("--workload chti-evolve --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload chti-evolve --seed 1").is_err());
        assert!(parse("--workload").is_err());
    }
}
