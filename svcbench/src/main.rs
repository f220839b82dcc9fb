//! `svcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --mapcomp <binary> --workdir <dir> [--out <dir>]`: run one benchmark
//! pass and print its report, ending with the JSON result line. Normally
//! started through `run.sh`, which builds the server and the benchmark
//! first.

use std::process::ExitCode;

fn main() -> ExitCode {
    let outcome =
        svcbench::Args::parse(std::env::args().skip(1)).and_then(|args| svcbench::run(&args));
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("svcbench: {error}");
            ExitCode::FAILURE
        }
    }
}
