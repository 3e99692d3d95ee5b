//! Measurement collection (§4.3.2): meters into the report at each
//! collection boundary, the metrics registry, human-readable labels for
//! exports, and the `--paranoid` invariant audit that runs first.

use super::{launch, Simulation, BG_APP, BG_OP_INDEXBUILD, BG_OP_SYNCHREP};
use crate::observe::EventClass;
use crate::report::ChurnComponentRecord;
use gdisim_infra::ComponentKind;
use gdisim_metrics::MetricsRegistry;
use gdisim_queueing::Station;
use gdisim_types::SimTime;
use std::collections::HashMap;

impl Simulation {
    /// Resolves a response key into human-readable (application,
    /// operation, client-data-center) labels for observability exports.
    /// Unknown ids fall back to numeric placeholders so an export never
    /// panics on a key minted by another shard's registry.
    pub fn key_labels(&self, key: &gdisim_metrics::ResponseKey) -> (String, String, String) {
        let (app, op) = if key.app == BG_APP {
            let op = match key.op {
                BG_OP_SYNCHREP => "SYNCHREP".to_string(),
                BG_OP_INDEXBUILD => "INDEXBUILD".to_string(),
                other => format!("op{}", other.index()),
            };
            ("background".to_string(), op)
        } else if let Some(a) = self.apps.iter().find(|a| a.id == key.app) {
            let op = a
                .ops
                .get(key.op.index())
                .map_or_else(|| format!("op{}", key.op.index()), |o| o.name.clone());
            (a.name.clone(), op)
        } else {
            (
                format!("app{}", key.app.index()),
                format!("op{}", key.op.index()),
            )
        };
        let dc = if key.dc.index() < self.infra.data_centers().len() {
            self.infra.dc(key.dc).name.clone()
        } else {
            format!("dc{}", key.dc.index())
        };
        (app, op, dc)
    }

    /// Human-readable label of a hardware agent by registry index
    /// (`"cpu srv2 Tapp@NA"`, `"L NA->EU"`, …), with a numeric fallback
    /// for out-of-range indices.
    pub fn agent_label(&self, agent: u32) -> String {
        let idx = agent as usize;
        if idx < self.infra.agent_count() {
            self.infra
                .meta(gdisim_types::AgentId::from_index(idx))
                .label
                .clone()
        } else {
            format!("agent{idx}")
        }
    }

    /// Snapshots engine counters, gauges and (in histogram mode) per-key
    /// response histograms into a [`MetricsRegistry`] — the `"registry"`
    /// section of `--profile-json`. The registry is `BTreeMap`-backed,
    /// so keys render in stable sorted order and two snapshots of equal
    /// state export byte-identically.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        crate::observe::export_counters(&mut r, &self.report, self.obs.as_deref().as_slice());
        if let Some(s) = self.config.executor.stats() {
            r.set_counter("executor.phases", s.phases);
            r.set_counter("executor.items", s.items);
        }
        r.set_gauge("sim.time_secs", self.now.as_secs_f64());
        r.set_gauge("sessions.logged_in", self.sessions.len() as f64);
        r.set_gauge("operations.active", self.flight.live_instances() as f64);
        r.set_gauge("agents.active", self.infra.active().len() as f64);
        for key in self.report.responses.histogram_keys() {
            if let Some(h) = self.report.responses.histogram(key) {
                r.insert_histogram(
                    &format!("response_us.app{}.op{}.dc{}", key.app.0, key.op.0, key.dc.0),
                    h.clone(),
                );
            }
        }
        r
    }

    /// Runs one audit pass over the current state, recording breaches
    /// into `audit`. Read-only over simulation state by construction
    /// (`&self`); called at each measurement collection.
    fn run_audit(&self, at: SimTime, audit: &mut crate::audit::AuditState) {
        use crate::audit::InvariantViolation as V;
        audit.checks += 1;

        // Token linkage and per-memory hold sums, in one flight pass.
        let mut held: Vec<f64> = vec![0.0; self.infra.memories().len()];
        for (&token, state) in &self.flight.tokens {
            if let Some((mem_idx, bytes)) = state.plan.mem_hold {
                if let Some(h) = held.get_mut(mem_idx) {
                    *h += bytes;
                }
            }
            let linked = self.flight.instances.contains_key(&state.instance)
                || self.hosts_foreign(state.instance, token)
                || self.orphans.contains(&token);
            if !linked {
                audit.record(V::TokenWithoutInstance {
                    at,
                    token,
                    instance: state.instance,
                });
            }
        }
        for (memory, (model, &held_bytes)) in self.infra.memories().iter().zip(&held).enumerate() {
            let metered = model.occupied_bytes() - model.spec().pool_bytes;
            // The gauge accumulates f64 adds/subtracts in arrival order;
            // allow the same slack the release debug-assert does.
            if (held_bytes - metered).abs() > 1e-3 + held_bytes.abs() * 1e-9 {
                audit.record(V::MemHoldImbalance {
                    at,
                    memory,
                    held_bytes,
                    metered_bytes: metered,
                });
            }
        }

        // Active-set completeness: an agent with work in system that the
        // set dropped would never be ticked again. Tightness, the
        // converse: a member with no work is one that retirement missed.
        // The always-tick loop visits everyone, so the set (and both
        // invariants) is moot there.
        if !self.tick_all {
            for i in 0..self.infra.agent_count() {
                let id = gdisim_types::AgentId::from_index(i);
                let busy = self.infra.component(id).in_system() > 0;
                let agent = i as u32;
                match (busy, self.infra.active().contains(i)) {
                    (true, false) => audit.record(V::InactiveAgentWithWork { at, agent }),
                    (false, true) => audit.record(V::IdleActiveMember { at, agent }),
                    _ => {}
                }
            }
        }

        // Derived due times: every class but series reads its next due
        // time straight off its container's head, but the series time is
        // a cached minimum over the series cursors. It must not be later
        // than a fresh scan of them, or the series drain would run late.
        if let Some(head) = launch::series_horizon(&self.traffic) {
            if self.next_series.is_none_or(|t| t > head) {
                audit.record(V::LateNextDue {
                    at,
                    class: EventClass::Series.label().to_string(),
                    head_tick: head.as_micros().div_ceil(self.config.dt.as_micros()),
                });
            }
        }

        // The diurnal zero bounds are derived too, and a stale one would
        // change draws: they must equal a fresh derivation bit for bit.
        let dt_secs = self.config.dt.as_secs_f64();
        if let Some(site) = launch::first_stale_draw(&self.site_draws, &self.traffic, dt_secs) {
            audit.record(V::StaleZeroBound {
                at,
                site: site as u64,
            });
        }

        self.audit_mailboxes(at, audit);
    }
    pub(super) fn collect(&mut self, t: SimTime) {
        // Paranoid invariant audit first, against the pre-collection
        // state (collection resets the utilization meters; the audited
        // quantities — flight table, holds, active set, due times — are
        // untouched either way).
        if let Some(mut obs) = self.obs.take() {
            if let Some(audit) = &mut obs.audit {
                self.run_audit(t, audit);
            }
            self.obs = Some(obs);
        }
        // Average CPU and disk utilization per (dc, tier); WAN and client
        // links report one series each. Every agent is collected exactly
        // once so the meters reset cleanly.
        let mut tiers = [HashMap::new(), HashMap::new()];
        for i in 0..self.infra.agent_count() {
            let id = gdisim_types::AgentId::from_index(i);
            let u = self.infra.component_mut(id).collect_utilization();
            let meta = self.infra.meta(id);
            let dc_name = self.infra.dc(meta.dc).name.clone();
            let group = match meta.kind {
                ComponentKind::Cpu => 0,
                ComponentKind::Raid | ComponentKind::San => 1,
                ComponentKind::Link if meta.label.starts_with("L ") => {
                    let series = self.report.wan_util.entry(meta.label.clone());
                    series.or_default().push(t, u);
                    continue;
                }
                ComponentKind::Link if meta.label.starts_with("client-link") => {
                    let series = self.report.client_link_util.entry(dc_name);
                    series.or_default().push(t, u);
                    continue;
                }
                _ => continue, // NIC/switch/client pools: collected (reset) but unreported
            };
            if let Some(tier) = meta.tier {
                let e = tiers[group]
                    .entry((dc_name, tier.label()))
                    .or_insert((0.0, 0u32));
                e.0 += u;
                e.1 += 1;
            }
        }
        let [cpu, disk] = tiers;
        for (series, groups) in [
            (&mut self.report.tier_cpu, cpu),
            (&mut self.report.tier_disk, disk),
        ] {
            for (key, (sum, count)) in groups {
                series.entry(key).or_default().push(t, sum / count as f64);
            }
        }

        // Memory occupancy per tier (average bytes per server).
        let holarchy: Vec<(String, &'static str, Vec<usize>)> = self
            .infra
            .data_centers()
            .iter()
            .flat_map(|dc| {
                dc.tiers.iter().map(|tier| {
                    (
                        dc.name.clone(),
                        tier.kind.label(),
                        tier.servers.iter().map(|s| s.memory).collect(),
                    )
                })
            })
            .collect();
        for (dc, tier, mems) in holarchy {
            let n = mems.len().max(1) as f64;
            let total: f64 = mems
                .iter()
                .map(|&m| self.infra.memories_mut()[m].collect_avg_occupancy())
                .sum();
            self.report
                .tier_memory
                .entry((dc, tier))
                .or_default()
                .push(t, total / n);
        }

        self.report
            .concurrent_clients
            .push(t, self.flight.live_client_instances() as f64);
        self.report
            .logged_in_clients
            .push(t, self.sessions.len() as f64);
        self.report
            .active_operations
            .push(t, self.flight.live_instances() as f64);
        // Availability over the elapsed interval: completed / (completed
        // + failed) operations, 1.0 when nothing finished either way.
        if let Some(f) = &mut self.faults {
            let total = f.interval_ok + f.interval_failed;
            let avail = if total == 0 {
                1.0
            } else {
                f.interval_ok as f64 / total as f64
            };
            self.report.availability.push(t, avail);
            self.report
                .availability_counts
                .push((t, f.interval_ok, f.interval_failed));
            f.interval_ok = 0;
            f.interval_failed = 0;
        }
        // Per-component churn records (closed up/down spans only; the
        // span in progress is credited at its next transition).
        if let Some(c) = &self.churn {
            self.report.churn.components = c
                .components
                .iter()
                .map(|x| ChurnComponentRecord {
                    label: x.label.clone(),
                    failures: x.failures,
                    repairs: x.repairs,
                    up_us: x.up_us,
                    down_us: x.down_us,
                })
                .collect();
        }
        self.report.responses.end_interval();
    }
}
