//! Restoration points & branches (Ch. 9.3.2): run the consolidated
//! platform into the morning, take a restoration point, and explore two
//! futures from the *same* state — one where the NA↔EU trunk fails at
//! noon, one where it doesn't. Because the branch is a deep copy,
//! differences between the futures are attributable purely to the
//! what-if input.
//!
//! ```sh
//! cargo run --release -p gdisim-core --example branching
//! ```

use gdisim_core::scenarios::consolidated;
use gdisim_core::{FaultAction, FaultTarget};
use gdisim_metrics::ResponseKey;
use gdisim_types::{AppId, DcId, OpTypeId, SimDuration, SimTime};

fn main() {
    println!("branching what-if on the consolidated platform\n");
    let mut baseline = consolidated::build(42);

    // Common history: midnight to 11:00 GMT.
    let fork_at = SimTime::from_hours(11);
    let wall = std::time::Instant::now();
    baseline.run_until(fork_at);
    println!("built common history to {fork_at} in {:?}", wall.elapsed());

    // Restoration point. The branch loses its NA<->EU trunk at noon;
    // there is no backup on that pair, so EU metadata traffic must be
    // impossible — but wait: EU routes to the master *only* via that
    // link, so we restore it an hour later and watch the backlog clear.
    let mut outage = baseline.branch();
    let trunk = FaultTarget::WanLink {
        label: "L NA->EU".into(),
    };
    outage.schedule_health(trunk.clone(), FaultAction::Fail, SimTime::from_hours(12));
    outage.schedule_health(trunk, FaultAction::Recover, SimTime::from_hours(13));

    let until = SimTime::from_hours(15);
    baseline.run_until(until);
    println!("baseline branch reached {until} in {:?}", wall.elapsed());
    outage.run_until(until);
    println!("outage branch reached {until} in {:?}\n", wall.elapsed());

    // Compare EU clients' CAD EXPLORE (chatty, master-bound) across the
    // two futures, hour by hour.
    let eu = DcId(consolidated::SITES.iter().position(|s| *s == "EU").unwrap() as u32);
    let key = ResponseKey {
        app: AppId(0),
        op: OpTypeId(3),
        dc: eu,
    };
    let hour = SimDuration::from_secs(3600);
    let base_series = baseline.report().response_series(key, hour);
    let out_series = outage.report().response_series(key, hour);
    println!("CAD EXPLORE from EU, hourly mean response (s):");
    println!("  {:>5}  {:>9}  {:>9}", "hour", "baseline", "outage");
    for (i, (t, b)) in base_series.iter().enumerate() {
        let o = out_series.values().get(i).copied().unwrap_or(f64::NAN);
        let marker = if (12..13).contains(&(t.hour_of_day() as u32)) {
            "  <- trunk down"
        } else {
            ""
        };
        println!(
            "  {:>5}  {b:>9.2}  {o:>9.2}{marker}",
            format!("{:02}:00", t.hour_of_day() as u32)
        );
    }

    // The pre-fork hours must be identical (shared history).
    let pre: Vec<f64> = base_series
        .iter()
        .take_while(|(t, _)| *t < fork_at)
        .map(|(_, v)| v)
        .collect();
    let pre_out: Vec<f64> = out_series
        .iter()
        .take_while(|(t, _)| *t < fork_at)
        .map(|(_, v)| v)
        .collect();
    assert_eq!(pre, pre_out, "branches must share their pre-fork history");
    println!("\npre-fork history identical across branches ✓");
    println!(
        "during the outage EU metadata operations stall behind the dead trunk;\n\
         after restoration the backlog drains and the branches reconverge."
    );
}
