//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <consolidation|multimaster|churn-ckpt> --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-reference
//! ```
//!
//! The last line of standard output is the JSON result. `--emit-reference`
//! prints a fresh `reference.txt` for the pinned seeds instead.

use gdisim_perfbench::{emit_reference, parse_args, run, Command, References, REFERENCE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|command| match command {
        Command::EmitReference => emit_reference().map(|text| print!("{text}")),
        Command::Run(cfg) => {
            let refs = References::parse(REFERENCE)?;
            let outcome = run(&cfg, &refs, &mut std::io::stdout())?;
            println!("{}", outcome.to_json());
            Ok(())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <consolidation|multimaster|churn-ckpt> \
                 --seed N --seconds S --trace 0|1\n       perfbench --emit-reference"
            );
            ExitCode::from(2)
        }
    }
}
