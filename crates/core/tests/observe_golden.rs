//! Golden pins for what the observers export: the `gdisim.optrace.v1`
//! span-tree document of a serial faulted run and a serial churned run,
//! and the checkpoint bytes of a serial run with the trace log and the
//! invariant auditor on. Pin (c), the exports of a two-shard CLI run,
//! left with the CLI's sharded path; `tests/optrace.rs` still checks
//! the library's cross-shard span stitching.
//!
//! Each pin is an FNV-1a 64 `len:hash` digest, as in
//! `tests/failure_timeline_golden.rs` (which already pins the serial
//! JSONL trace). The observers are strictly read-only, so a change to
//! how the engine feeds them must leave every byte here in place.
//! Regenerate a pin only for a deliberate format or model change, and
//! say so where the change is recorded.

use gdisim_core::scenarios::faulted;
use gdisim_types::SimTime;
use std::path::PathBuf;
use std::process::Command;

/// Length and FNV-1a 64 hash of `bytes`, as `len:hash`.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{}:{h:016x}", bytes.len())
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

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 temp path").into()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `gdisim` to success and returns its stdout.
fn gdisim(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gdisim"))
        .args(args)
        .output()
        .expect("gdisim binary launches");
    assert!(
        out.status.success(),
        "gdisim {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn file_digest(path: &str) -> String {
    digest(&std::fs::read(path).unwrap_or_else(|e| panic!("{path}: {e}")))
}

/// (a) The span-tree document of the faulted scenario under the demo
/// fault plan, every operation sampled.
#[test]
fn serial_faulted_optrace_matches_golden() {
    let dir = Scratch::new("obs-golden-a");
    let ops = dir.file("ops.json");
    gdisim(&[
        "run",
        "--scenario",
        "faulted",
        "--faults",
        "demo",
        "--minutes",
        "10",
        "--trace-ops",
        "1.0",
        "--optrace-json",
        &ops,
    ]);
    assert_eq!(file_digest(&ops), "5530338:f463b8bb21d656c9");
}

/// (b) The span-tree document of the churned scenario (demo churn model
/// and resilience policies), every operation sampled.
#[test]
fn serial_churned_optrace_matches_golden() {
    let dir = Scratch::new("obs-golden-b");
    let ops = dir.file("ops.json");
    gdisim(&[
        "run",
        "--scenario",
        "churned",
        "--minutes",
        "10",
        "--trace-ops",
        "1.0",
        "--optrace-json",
        &ops,
    ]);
    assert_eq!(file_digest(&ops), "7170431:bf4832e04f64beb2");
}

/// (d) The checkpoint encoding of a serial faulted run under the demo
/// plan with the trace log and the auditor on: both are part of the
/// engine's snap encoding, at fixed positions.
#[test]
fn observed_checkpoint_bytes_match_golden() {
    let mut sim = faulted::build(42);
    sim.set_fault_plan(faulted::demo_fault_plan())
        .expect("demo plan fits the faulted topology");
    sim.enable_trace(100_000);
    sim.set_paranoid(true);
    sim.run_until(SimTime::from_secs(600));
    assert!(sim.audit_state().is_some_and(|a| a.checks > 0));
    assert_eq!(
        digest(&gdisim_snap::to_bytes(&sim)),
        "485846:d77995415912e0a7"
    );
}
