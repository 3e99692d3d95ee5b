//! End-to-end CLI robustness: crash reports, exit codes, and
//! checkpoint → resume output equality through the real binary.

use gdisim_core::scenarios::{churned, faulted};
use gdisim_core::{ShardedSimulation, Snapshot};
use gdisim_types::SimTime;
use std::path::PathBuf;
use std::process::{Command, Output};

fn gdisim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdisim"))
        .args(args)
        .output()
        .expect("gdisim binary launches")
}

/// Scratch directory unique to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gdisim-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir creates");
        Scratch(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Strips the lines that legitimately differ between an uninterrupted
/// run and a resumed one: banners, checkpoint notices and wall-clock
/// timings. Everything left must match byte-for-byte.
fn comparable(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            !l.starts_with("run: ")
                && !l.starts_with("resume: ")
                && !l.starts_with("checkpoint: ")
                && !l.starts_with("simulated ")
                && !l.starts_with("trace: wrote ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn serial_crash_links_the_last_checkpoint() {
    let scratch = Scratch::new("crash-ckpt");
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "5",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
        "--inject-panic",
        "150",
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"schema\": \"gdisim.crash.v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"shard\": 0"), "{stdout}");
    assert!(
        stdout.contains("churned-t0000000120.ckpt"),
        "the report must point at the t=120s checkpoint for restart:\n{stdout}"
    );
}

#[test]
fn resume_reproduces_the_uninterrupted_run() {
    let scratch = Scratch::new("resume");
    let full = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "4",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
    ]);
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let ckpt = PathBuf::from(scratch.path()).join("churned-t0000000120.ckpt");
    assert!(
        ckpt.exists(),
        "mid-run checkpoint must exist at {}",
        ckpt.display()
    );

    let resumed = gdisim(&["run", "--resume", ckpt.to_str().unwrap(), "--minutes", "4"]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let want = comparable(&full.stdout);
    let got = comparable(&resumed.stdout);
    assert!(!want.is_empty(), "the comparison must cover real output");
    assert_eq!(
        want, got,
        "resumed stdout diverged from the uninterrupted run"
    );
}

/// A run whose length is a multiple of the cadence saves its end state,
/// and resuming that file to the same horizon reprints the run's output.
#[test]
fn checkpoint_at_the_horizon_is_written() {
    let scratch = Scratch::new("horizon");
    let full = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "2",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
    ]);
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let ckpt = PathBuf::from(scratch.path()).join("churned-t0000000120.ckpt");
    assert!(
        ckpt.exists(),
        "the horizon checkpoint must exist at {}",
        ckpt.display()
    );

    let resumed = gdisim(&["run", "--resume", ckpt.to_str().unwrap(), "--minutes", "2"]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let want = comparable(&full.stdout);
    assert!(!want.is_empty(), "the comparison must cover real output");
    assert_eq!(want, comparable(&resumed.stdout));
}

#[test]
fn resume_rejects_a_mismatched_scenario() {
    let scratch = Scratch::new("mismatch");
    let full = gdisim(&[
        "run",
        "--scenario",
        "faulted",
        "--minutes",
        "3",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
    ]);
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let ckpt = PathBuf::from(scratch.path()).join("faulted-t0000000120.ckpt");
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--resume",
        ckpt.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("does not match"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn paranoid_cli_runs_clean_and_gates_on_violations() {
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "5",
        "--paranoid",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("invariant checks, 0 violations"),
        "paranoid summary missing or dirty:\n{stdout}"
    );
}

#[test]
fn corrupt_checkpoint_is_a_typed_error() {
    let scratch = Scratch::new("corrupt");
    let path = PathBuf::from(scratch.path()).join("bogus.ckpt");
    std::fs::write(&path, b"definitely not a checkpoint").unwrap();
    let out = gdisim(&["run", "--resume", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad magic"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The trace summary and the profile registry count the events the
/// JSONL file holds (it ends in one `dropped_by_kind` trailer line).
#[test]
fn trace_totals_match_the_jsonl_lines() {
    let dir = Scratch::new("trace-totals");
    let ev = format!("{}/ev.jsonl", dir.path());
    let profile = format!("{}/p.json", dir.path());
    let out = gdisim(&[
        "run",
        "--scenario",
        "faulted",
        "--faults",
        "demo",
        "--minutes",
        "10",
        "--trace-jsonl",
        &ev,
        "--profile-json",
        &profile,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&ev).expect("trace file written");
    let events = text.lines().count() as u64 - 1;
    assert!(events > 0, "the run traced nothing");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("trace: {events} events recorded")),
        "summary must count {events} events:\n{stdout}"
    );
    let json = std::fs::read_to_string(&profile).expect("profile written");
    let v = serde_json::parse_value(&json).expect("profile JSON parses");
    let recorded = v
        .get("registry")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get("trace.recorded"))
        .and_then(|n| n.as_u64());
    assert_eq!(recorded, Some(events), "registry trace.recorded");
}

/// A horizon past the simulation clock's range is a usage error: the
/// microsecond product is checked instead of wrapping (a release build
/// would otherwise run a silently shortened horizon, a debug build
/// panic).
#[test]
fn overflowing_horizon_is_a_usage_error() {
    for args in [
        [
            "run",
            "--scenario",
            "consolidated",
            "--minutes",
            "307445734562",
        ],
        [
            "run",
            "--scenario",
            "validation",
            "--minutes",
            "307445734561826",
        ],
    ] {
        let out = gdisim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("past the simulation clock's range") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
    }
}

/// A CLI checkpoint is the library engine's own encoding: the churned
/// scenario with the demo churn model and resilience policies the CLI
/// installs by default, run to the same time. A run without
/// `--trace-jsonl` keeps no trace log.
#[test]
fn cli_checkpoint_is_the_library_engine() {
    let scratch = Scratch::new("library-ckpt");
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "2",
        "--checkpoint-every",
        "120",
        "--checkpoint-dir",
        scratch.path(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli = std::fs::read(PathBuf::from(scratch.path()).join("churned-t0000000120.ckpt"))
        .expect("the horizon checkpoint is written");

    let mut sim = churned::build(42);
    sim.set_churn_model(churned::demo_churn_model())
        .expect("demo churn model installs");
    sim.set_resilience(churned::demo_resilience())
        .expect("demo resilience installs");
    sim.run_until(SimTime::from_secs(120));
    assert!(
        cli == Snapshot::serial("churned", 42, sim).to_bytes(),
        "the CLI checkpoint differs from the library engine's encoding"
    );
}

/// `--trace-jsonl` adds only `trace:` lines to stdout: the rest of the
/// run's output, wall-clock line and blank lines aside, is the same
/// with the trace log as without it.
#[test]
fn trace_lines_are_the_only_stdout_the_log_adds() {
    let scratch = Scratch::new("trace-stdout");
    let ev = format!("{}/ev.jsonl", scratch.path());
    let plain = ["run", "--scenario", "churned", "--minutes", "5"];
    let traced = [&plain[..], &["--trace-jsonl", &ev]].concat();
    let without_trace = |args: &[&str]| {
        let out = gdisim(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| {
                !l.is_empty()
                    && !l.starts_with("trace:")
                    && !l.starts_with("  dropped ")
                    && !l.starts_with("simulated ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let want = without_trace(&traced);
    assert!(want.contains("churn layer:"), "{want}");
    assert_eq!(want, without_trace(&plain));
    let out = gdisim(&plain);
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("trace:"),
        "a run without --trace-jsonl keeps no trace log"
    );
}

/// The flags that set what a checkpoint carries (seed, experiment,
/// response histograms and the installed layers) are refused on
/// `--resume` with a usage error, never silently ignored.
#[test]
fn resume_rejects_flags_the_checkpoint_fixes() {
    let scratch = Scratch::new("resume-fixed");
    let full = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "1",
        "--checkpoint-every",
        "60",
        "--checkpoint-dir",
        scratch.path(),
    ]);
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let ckpt = format!("{}/churned-t0000000060.ckpt", scratch.path());
    for extra in [
        &["--seed", "7"][..],
        &["--experiment", "3"],
        &["--response-hist"],
        &["--faults", "demo"],
        &["--churn", "demo"],
        &["--resilience", "demo"],
    ] {
        let args = [&["run", "--resume", &ckpt, "--minutes", "2"][..], extra].concat();
        let out = gdisim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} is part of the checkpointed state", extra[0])),
            "{args:?}: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("gdisim — ") && !stdout.contains("resume: "),
            "{args:?} must print usage and not run:\n{stdout}"
        );
    }
}

/// A checkpoint of the library's sharded engine is a usage error on
/// `--resume`: the CLI resumes serial checkpoints only, and says so
/// instead of panicking.
#[test]
fn resume_refuses_a_sharded_checkpoint() {
    let scratch = Scratch::new("resume-sharded");
    let mut sharded = ShardedSimulation::new(faulted::build(42), 2, None, None)
        .expect("two shards fit the faulted topology");
    sharded.run_until(SimTime::from_secs(30));
    let path = PathBuf::from(scratch.path()).join("faulted-sharded.ckpt");
    std::fs::write(&path, Snapshot::sharded("faulted", 42, sharded).to_bytes())
        .expect("checkpoint written");
    let out = gdisim(&["run", "--resume", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("holds a sharded engine") && !stderr.contains("panicked"),
        "{stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
}

/// `run --scenario validation` prints the steady-state mean ± sigma
/// table of the Ch. 5 experiment it ran.
#[test]
fn validation_run_prints_the_steady_state_table() {
    let out = gdisim(&["run", "--scenario", "validation", "--experiment", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table: Vec<&str> = stdout
        .lines()
        .skip_while(|l| *l != "steady-state CPU (mean ± sigma):")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(table.len(), 5, "{stdout}");
    for (row, tier) in table.iter().zip(["Tapp", "Tdb", "Tfs", "Tidx"]) {
        assert!(row.starts_with(&format!("  {tier}: ")), "{row}");
        assert!(row.contains("% ± "), "{row}");
    }
    assert!(table[4].starts_with("  concurrent clients: "), "{stdout}");
}

/// `--experiment` picks the validation lab's period set; on any other
/// scenario it is a usage error, never silently ignored.
#[test]
fn experiment_outside_validation_is_a_usage_error() {
    let args = [
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "1",
        "--experiment",
        "3",
    ];
    let out = gdisim(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--experiment picks the validation lab's period set")
            && stderr.contains("cannot be used with --scenario churned"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("gdisim — ") && !stdout.contains("run: "),
        "must print usage and not run:\n{stdout}"
    );
}

/// A reader that goes away (`gdisim run … | head -2`) ends the run
/// quietly: the header is printed before the simulation runs, so
/// closing the pipe after it makes every later line hit a closed
/// stdout.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::BufRead;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdisim"))
        .args(["run", "--scenario", "churned", "--minutes", "20"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gdisim binary launches");
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("the header arrives");
    assert!(first.starts_with("run: scenario churned"), "{first}");
    // The reader is dropped here, closing the pipe.
    let out = child.wait_with_output().expect("gdisim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
