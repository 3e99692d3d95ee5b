//! Checkpoint-byte pins for the NIC and switch agents, each holding a
//! job in service and jobs waiting.
//!
//! The topology comes from its JSON form and the agents are driven
//! through the `Station` interface of the registry's `Component`, so
//! the pins hold the bytes whatever model type backs either agent.

use gdisim_infra::{Infrastructure, TopologySpec};
use gdisim_queueing::{JobToken, Station};
use gdisim_types::{DcId, SimDuration, SimTime};

/// One data center, one App server with no storage: a 1.25 GB/s switch
/// and a 125 MB/s NIC.
const TOPOLOGY: &str = r#"{
  "data_centers": [
    {
      "name": "NA",
      "switch": { "rate_bytes_per_sec": 1250000000.0 },
      "tiers": [
        {
          "kind": "App",
          "servers": 1,
          "cpu": {
            "sockets": 1,
            "cores_per_socket": 2,
            "clock_hz": 2500000000.0,
            "hyperthreading": 1.0
          },
          "memory": {
            "capacity_bytes": 32000000000.0,
            "hit_rate": 0.0,
            "pool_bytes": 0.0
          },
          "nic": { "rate_bytes_per_sec": 125000000.0 },
          "lan": {
            "bandwidth_bytes_per_sec": 125000000.0,
            "latency": 450,
            "max_connections": 512
          },
          "storage": "None"
        }
      ],
      "clients": {
        "link": {
          "bandwidth_bytes_per_sec": 125000000.0,
          "latency": 1000,
          "max_connections": 1024
        },
        "client_clock_hz": 2000000000.0
      }
    }
  ],
  "relay_sites": [],
  "wan_links": []
}"#;

/// Length and FNV-1a 64 hash of `bytes`, as `len:hash`.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{}:{h:016x}", bytes.len())
}

/// Enqueues three jobs of `bytes` 1 ms apart at agent `pick`, runs one
/// 10 ms tick and returns the digest of the agent's checkpoint bytes.
fn busy_digest(pick: impl Fn(&Infrastructure) -> gdisim_types::AgentId, bytes: f64) -> String {
    let spec: TopologySpec = serde_json::from_str(TOPOLOGY).expect("topology JSON");
    let mut infra = Infrastructure::build(&spec, 7).expect("valid topology");
    let agent = pick(&infra);
    let queue = infra.component_mut(agent);
    for i in 0..3 {
        queue.enqueue(JobToken(i), bytes, SimTime::from_millis(i));
    }
    let mut done = Vec::new();
    queue.tick(
        SimTime::from_millis(3),
        SimDuration::from_millis(10),
        &mut done,
    );
    // One tick serves 0.625 of the first job: it stays in service while
    // the other two wait.
    assert!(done.is_empty());
    assert_eq!(queue.in_system(), 3);
    digest(&gdisim_snap::to_bytes(infra.component(agent)))
}

#[test]
fn nic_checkpoint_bytes_with_jobs_in_service_and_waiting_match_golden() {
    let nic = |infra: &Infrastructure| infra.dc(DcId(0)).tiers[0].servers[0].nic;
    assert_eq!(
        busy_digest(nic, 2e6),
        "122:9c4c20718bca7bd5",
        "NIC checkpoint bytes moved"
    );
}

#[test]
fn switch_checkpoint_bytes_with_jobs_in_service_and_waiting_match_golden() {
    let switch = |infra: &Infrastructure| infra.dc(DcId(0)).switch;
    assert_eq!(
        busy_digest(switch, 20e6),
        "122:0e0b53a3d44a8441",
        "switch checkpoint bytes moved"
    );
}
