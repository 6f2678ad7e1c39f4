//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is the result as one JSON object. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ledger.

use e2ebench::metrics::{END_TO_END, PER_LAYER};
use e2ebench::{offline, online, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <grelon-seed|chti-evolve|online-churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "grelon-seed" => offline::run(&offline::GRELON_SEED, &args),
        "chti-evolve" => offline::run(&offline::CHTI_EVOLVE, &args),
        _ => online::run(&args),
    };
    result.print(if args.trace { &PER_LAYER } else { &END_TO_END });
}
