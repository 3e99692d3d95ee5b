//! End-to-end CLI robustness: crash reports, exit codes, and
//! checkpoint → resume output equality through the real binary.

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
                && !l.contains("ms, waited")
                && !l.contains("ms at barriers")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn sharded_crash_emits_report_and_fails() {
    let out = gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "5",
        "--shards",
        "2",
        "--inject-panic",
        "1:120",
    ]);
    assert!(!out.status.success(), "a crashed run must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("\"schema\": \"gdisim.crash.v1\""),
        "stdout must carry the typed crash report, got:\n{stdout}"
    );
    assert!(
        stdout.contains("\"shard\": 1"),
        "report must name the shard:\n{stdout}"
    );
    assert!(
        stdout.contains("injected panic"),
        "report must carry the panic message:\n{stdout}"
    );
    assert!(
        stderr.contains("simulation crashed"),
        "stderr must explain the failure:\n{stderr}"
    );
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
        "0:150",
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

/// A sharded run's trace summary and profile registry count every
/// shard's trace log: both totals equal the event lines across
/// `ev.jsonl` and `ev.jsonl.shard1` (each file ends in one
/// `dropped_by_kind` trailer line).
#[test]
fn sharded_trace_totals_cover_every_shard() {
    let dir = Scratch::new("sharded-trace-totals");
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
        "--shards",
        "2",
        "--trace-jsonl",
        &ev,
        "--profile-json",
        &profile,
    ]);
    assert!(out.status.success(), "sharded run failed");
    let event_lines = |path: &str| {
        let text = std::fs::read_to_string(path).expect("trace file written");
        text.lines().count() as u64 - 1
    };
    let (shard0, shard1) = (event_lines(&ev), event_lines(&format!("{ev}.shard1")));
    assert!(shard0 > 0 && shard1 > 0, "a shard traced nothing");
    let events = shard0 + shard1;
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("trace: {events} events recorded")),
        "summary must count {events} events across shards:\n{stdout}"
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
            "--hours",
            "5124095576030432",
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
