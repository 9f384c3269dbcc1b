//! Command-line entry point: `perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]`.

use perfbench::common::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = if args.trace { "traced" } else { "end-to-end" };
    println!("# {} ({mode}, seed {})", args.workload, args.seed);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("# record {}", outcome.record_line());
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} failed its correctness checks", args.workload);
        ExitCode::FAILURE
    }
}
