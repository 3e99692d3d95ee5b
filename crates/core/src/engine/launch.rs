//! Launches: the traffic sources and sessions that start client
//! operations, background launches, the retry and timeout drains, and
//! how a failed operation settles (retry, abandon, session wake).

use super::{Simulation, BG_APP, BG_OP_INDEXBUILD, BG_OP_SYNCHREP};
use crate::config::MasterPolicy;
use crate::flight::{Chain, Instance, InstanceKind};
use crate::observe::Event;
use gdisim_background::{BackgroundKind, BackgroundLaunch};
use gdisim_metrics::ResponseKey;
use gdisim_types::{AppId, OpTypeId, SimDuration, SimTime};
use gdisim_workload::{AppWorkload, OperationTemplate, SiteBinding, SiteDraw};
use std::sync::Arc;

/// Fresh draw state for every diurnal site in `traffic`, in scan order,
/// at a step of `dt_secs`.
pub(super) fn site_draws(traffic: &[TrafficSource], dt_secs: f64) -> Vec<SiteDraw> {
    traffic
        .iter()
        .filter_map(|source| match source {
            TrafficSource::Diurnal { workload, .. } => Some(workload),
            _ => None,
        })
        .flat_map(|workload| {
            (0..workload.sites.len()).map(move |s| SiteDraw::new(workload, s, dt_secs))
        })
        .collect()
}

/// The first diurnal site, in scan order, whose zero bound in `draws`
/// differs from a fresh derivation from `traffic` (an index past the
/// shorter list when only the lengths differ); `None` when all agree
/// bit for bit.
pub(super) fn first_stale_draw(
    draws: &[SiteDraw],
    traffic: &[TrafficSource],
    dt_secs: f64,
) -> Option<usize> {
    let fresh = site_draws(traffic, dt_secs);
    let bits = |d: Option<&SiteDraw>| d.map(|d| d.zero_bound().map(f64::to_bits));
    (0..fresh.len().max(draws.len())).find(|&i| bits(fresh.get(i)) != bits(draws.get(i)))
}

/// A failed client operation scheduled for re-issue after its backoff.
#[derive(Clone)]
pub(super) struct PendingRetry {
    pub(super) at: SimTime,
    template: Arc<OperationTemplate>,
    key: ResponseKey,
    binding: SiteBinding,
    chain: Option<Chain>,
    session: Option<u64>,
    attempt: u32,
    first_launched_at: SimTime,
    /// Sampled operation this retry belongs to, carrying span identity
    /// across the backoff (`None` when the operation is untraced).
    trace_root: Option<u64>,
}

/// Why an operation instance failed — selects the counter the failure
/// lands in. All causes share the settle machinery (retry, session
/// wake, trace), only the accounting differs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum FailCause {
    /// A fault, timeout, eviction or unroutable stage.
    Fault,
    /// Server-side load shedding bounced it at admission.
    Shed,
    /// A per-route circuit breaker rejected it at launch.
    Breaker,
}

/// A source of client operation launches.
#[derive(Clone)]
pub enum TrafficSource {
    /// Diurnal Poisson arrivals from per-site population curves.
    Diurnal {
        /// Index into the engine's application registry.
        app_idx: usize,
        /// The workload curves.
        workload: AppWorkload,
        /// Engine site index per workload site (resolved at add time).
        site_map: Vec<usize>,
    },
    /// Closed-loop *sessions* (Ch. 9.2.1's client-behavior extension):
    /// the curves give the **logged-in** population; each session
    /// alternates thinking and launching operations, so the offered load
    /// adapts to the system's own response times — the closed-workload
    /// counterpart of `Diurnal`'s open Poisson arrivals.
    Sessions {
        /// Index into the engine's application registry.
        app_idx: usize,
        /// Logged-in population curves.
        workload: AppWorkload,
        /// Engine site index per workload site.
        site_map: Vec<usize>,
        /// Mean think time between a completion and the next launch, in
        /// seconds (exponentially distributed).
        mean_think_secs: f64,
        /// Live session count per workload site.
        live: Vec<u32>,
        /// Sessions marked for retirement per workload site.
        retiring: Vec<u32>,
    },
    /// Deterministic periodic series launches (the validation driver of
    /// §5.2.4: "one light series is launched every 15 seconds…"). Each
    /// launch starts a chained run of the given templates.
    PeriodicSeries {
        /// Application id for response keys.
        app: AppId,
        /// The series' operation templates, in order.
        templates: Vec<Arc<OperationTemplate>>,
        /// Launch period.
        interval: SimDuration,
        /// Engine site index clients launch from.
        site: usize,
        /// Next launch time.
        next: SimTime,
        /// Stop launching at this time (the experiment horizon), if set.
        stop_at: Option<SimTime>,
    },
}

/// The earliest pending periodic-series launch over `traffic`: the
/// least `next` of a series still short of its `stop_at`.
pub(super) fn series_horizon(traffic: &[TrafficSource]) -> Option<SimTime> {
    traffic
        .iter()
        .filter_map(|source| match source {
            TrafficSource::PeriodicSeries { next, stop_at, .. }
                if stop_at.is_none_or(|s| *next < s) =>
            {
                Some(*next)
            }
            _ => None,
        })
        .min()
}

impl Simulation {
    /// Scans the traffic sources. Returns the number of work units the
    /// scan performed: operation launches (diurnal, periodic-series,
    /// sessions logged in) *plus one unit per polled site visit* — a
    /// diurnal site's Poisson draw and a session site's population check
    /// consume sampler state and do real work even when they produce no
    /// arrival. Counting the visits keeps a polled scan from ever
    /// registering as a no-op drain, so the profiler's `noop` column
    /// isolates what it is meant to measure: drains woken by a due time
    /// whose events no longer exist.
    pub(super) fn generate_arrivals(&mut self, now: SimTime, series_due: bool) -> u64 {
        let dt_secs = self.config.dt.as_secs_f64();
        // Every curve is evaluated at the same instant, whose hour is
        // computed once, when a curve is first evaluated.
        let mut hour = None;
        // Position of the next diurnal site in `site_draws`.
        let mut draw_idx = 0;
        let mut produced = 0u64;
        // The least pending series launch seen by this scan, in µs
        // (`u64::MAX`: none).
        let mut horizon_us = u64::MAX;
        let mut traffic = std::mem::take(&mut self.traffic);
        for (source_idx, source) in traffic.iter_mut().enumerate() {
            match source {
                TrafficSource::Diurnal {
                    app_idx,
                    workload,
                    site_map,
                } => {
                    for (w_site, &site) in site_map.iter().enumerate() {
                        // Most steps end on one uniform and one compare,
                        // without the curve or the hour.
                        let n = self.site_draws[draw_idx].draw(
                            &mut self.sampler,
                            workload,
                            w_site,
                            dt_secs,
                            || *hour.get_or_insert_with(|| now.hour_of_day()),
                        );
                        draw_idx += 1;
                        produced += 1 + u64::from(n);
                        for _ in 0..n {
                            self.launch_from_mix(*app_idx, site, None, now);
                        }
                    }
                }
                TrafficSource::Sessions {
                    app_idx: _,
                    workload,
                    site_map,
                    mean_think_secs,
                    live,
                    retiring,
                } => {
                    for w_site in 0..site_map.len() {
                        produced += 1; // the population-target check itself
                        let hour = *hour.get_or_insert_with(|| now.hour_of_day());
                        let target = workload.sites[w_site]
                            .curve
                            .population_at_gmt_hour(hour)
                            .round() as i64;
                        let current = live[w_site] as i64 - retiring[w_site] as i64;
                        if current < target {
                            // Log new sessions in; their first operation
                            // fires after a staggered initial think.
                            for _ in 0..(target - current) {
                                produced += 1;
                                let id = self.next_session;
                                self.next_session += 1;
                                self.sessions.insert(id, (source_idx, w_site));
                                live[w_site] += 1;
                                self.sleep_session(id, *mean_think_secs, now);
                            }
                        } else if current > target {
                            retiring[w_site] += (current - target) as u32;
                        }
                    }
                }
                TrafficSource::PeriodicSeries {
                    app,
                    templates,
                    interval,
                    site,
                    next,
                    stop_at,
                } => {
                    if !series_due {
                        // No series launch is due; the `next <= now`
                        // test below would fail for every series too.
                        continue;
                    }
                    while *next <= now && stop_at.is_none_or(|s| *next < s) {
                        let binding = self.client_binding(*site);
                        let dc = self.site_dc[*site];
                        let keys: Vec<ResponseKey> = (0..templates.len())
                            .map(|i| ResponseKey {
                                app: *app,
                                op: OpTypeId::from_index(i),
                                dc,
                            })
                            .collect();
                        let chain = Chain {
                            remaining: templates[1..].to_vec(),
                            keys: keys[1..].to_vec(),
                        };
                        self.launch(
                            Arc::clone(&templates[0]),
                            keys[0],
                            InstanceKind::Client,
                            binding,
                            Some(chain),
                            None,
                            0.0,
                            now,
                            None,
                        );
                        produced += 1;
                        *next += *interval;
                    }
                    // The scan visits every series, so it re-derives the
                    // earliest pending launch on the way (as
                    // `series_horizon` does).
                    if stop_at.is_none_or(|s| *next < s) {
                        horizon_us = horizon_us.min(next.as_micros());
                    }
                }
            }
        }
        if series_due {
            self.next_series = (horizon_us != u64::MAX).then_some(SimTime(horizon_us));
        }
        self.traffic = traffic;
        produced
    }

    /// Launches one client operation drawn from the application's mix,
    /// from `site`'s clients.
    fn launch_from_mix(&mut self, app_idx: usize, site: usize, session: Option<u64>, now: SimTime) {
        let app = &self.apps[app_idx];
        let op_idx = self.sampler.pick(&app.mix);
        let key = ResponseKey {
            app: app.id,
            op: OpTypeId::from_index(op_idx),
            dc: self.site_dc[site],
        };
        let template = Arc::clone(&app.ops[op_idx]);
        let binding = self.client_binding(site);
        let kind = InstanceKind::Client;
        self.launch(template, key, kind, binding, None, session, 0.0, now, None);
    }

    fn client_binding(&mut self, site: usize) -> SiteBinding {
        let client = self.site_dc[site];
        let master = match &self.master_policy {
            MasterPolicy::Local => client,
            MasterPolicy::Fixed(m) => self.site_dc[*m],
            MasterPolicy::ByOwnership(apm) => {
                let owner = apm.sample_owner(site, self.sampler.uniform());
                self.site_dc[owner]
            }
        };
        // Files are always served from the client's local file tier: the
        // SR process keeps replicas everywhere (§6.2's low-latency goal).
        SiteBinding {
            client,
            master,
            file_host: client,
            extras: Vec::new(),
        }
    }

    /// Returns the number of background operations launched.
    pub(super) fn poll_background(&mut self, now: SimTime) -> u64 {
        let Some(scheduler) = &mut self.background else {
            return 0;
        };
        let launches = scheduler.poll(now);
        let n = launches.len() as u64;
        for launch in launches {
            self.launch_background(launch, now);
        }
        n
    }

    /// Launches pending retries whose backoff has elapsed. Returns the
    /// number launched.
    pub(super) fn launch_due_retries(&mut self, now: SimTime) -> u64 {
        let due: Vec<PendingRetry> = {
            let f = self.faults.as_mut().expect("fault runtime installed");
            let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut f.pending_retries)
                .into_iter()
                .partition(|r| r.at <= now);
            f.pending_retries = rest;
            due
        };
        let n = due.len() as u64;
        for r in due {
            self.launch(
                r.template,
                r.key,
                InstanceKind::Client,
                r.binding,
                r.chain,
                r.session,
                0.0,
                now,
                Some((r.attempt, r.first_launched_at, r.trace_root)),
            );
        }
        n
    }

    /// Fails operations whose per-attempt timeout has expired. Entries
    /// for operations that already completed (or already failed) are
    /// stale and skipped — instance ids are never reused, so liveness in
    /// the flight table is a sufficient check. Returns the number of
    /// operations actually reaped: a drain woken only by stale entries
    /// counts as a no-op in the profiler.
    pub(super) fn reap_timeouts(&mut self, now: SimTime) -> u64 {
        let mut due: Vec<u64> = Vec::new();
        let f = self.faults.as_mut().expect("fault runtime installed");
        f.timeouts.pop_due(now, |id| {
            if self.flight.instances.contains_key(&id) {
                due.push(id);
            }
        });
        let n = due.len() as u64;
        for id in due {
            self.fail_instance(id, "timeout", now);
        }
        n
    }

    /// Fails a live operation: severs its in-flight messages (their jobs
    /// become orphans, swallowed when their stations finish them),
    /// counts the failure, and either schedules a backed-off retry or
    /// abandons the operation. An abandoned session operation releases
    /// its client back to thinking; a chained series aborts; background
    /// operations never retry (their schedulers own the re-issue cycle).
    /// `why` labels the failure's cause on traced spans ("timeout",
    /// "fault", "churn", "unroutable", ...).
    pub(super) fn fail_instance(&mut self, inst_id: u64, why: &'static str, now: SimTime) {
        self.fail_instance_with(inst_id, FailCause::Fault, why, now);
    }

    /// Severs a leaving instance's in-flight messages: each job becomes
    /// an orphan, swallowed when its station finishes it. Returns how
    /// many were severed.
    pub(super) fn sever_messages(&mut self, inst_id: u64, now: SimTime) -> u64 {
        let tokens = self.flight.tokens_of(inst_id);
        for &token in &tokens {
            let state = self.flight.tokens.remove(&token).expect("token listed");
            self.release_hold(state.plan.mem_hold);
            self.orphans.insert(token);
            self.emit(now, Event::TokenAborted { token });
        }
        tokens.len() as u64
    }

    /// [`Self::fail_instance`] with an explicit cause, which selects the
    /// counter the failure lands in (faults vs. shed vs. breaker).
    pub(super) fn fail_instance_with(
        &mut self,
        inst_id: u64,
        cause: FailCause,
        why: &'static str,
        now: SimTime,
    ) {
        // A failing half of a live hedged pair is cancelled quietly —
        // nothing is counted and no retry is scheduled; the surviving
        // half owns the operation's outcome (and inherits the chain and
        // session when the failing half was the primary).
        let partner = self
            .flight
            .instances
            .get(&inst_id)
            .and_then(|i| i.hedge_partner);
        if let Some(p) = partner {
            // Annotate the failing half's cause first — the loser
            // cancel's own hook then no-ops on the already-closed half.
            let ev = Event::HalfCancelled {
                instance: inst_id,
                cause: Some(why),
            };
            self.emit(now, ev);
            self.cancel_hedge_loser(inst_id, p, now);
            self.drop_settled_deadlines();
            return;
        }
        let Some(inst) = self.flight.instances.remove(&inst_id) else {
            return;
        };
        let trace_root = self.optrace().and_then(|o| o.root_of(inst_id));
        self.report.faults.dropped_messages += self.sever_messages(inst_id, now);
        match cause {
            FailCause::Fault => self.report.faults.failed_operations += 1,
            FailCause::Shed => self.report.resilience.shed_operations += 1,
            FailCause::Breaker => self.report.resilience.breaker_rejections += 1,
        }
        // Real verdicts feed the route's breaker; its own rejections do
        // not (that would hold it open forever).
        if cause != FailCause::Breaker && inst.kind == InstanceKind::Client {
            self.breaker_on_failure(inst.binding.client, inst.binding.master, now);
        }
        let mut will_retry = false;
        if let Some(f) = &mut self.faults {
            f.interval_failed += 1;
            if inst.kind == InstanceKind::Client {
                if let Some(policy) = f.retry {
                    if inst.attempt < policy.max_retries {
                        let delay = policy.backoff_secs(inst.attempt + 1);
                        let at = now + SimDuration::from_secs_f64(delay);
                        f.pending_retries.push(PendingRetry {
                            at,
                            template: Arc::clone(&inst.template),
                            key: inst.key,
                            binding: inst.binding.clone(),
                            chain: inst.chain.clone(),
                            session: inst.session,
                            attempt: inst.attempt + 1,
                            first_launched_at: inst.first_launched_at,
                            trace_root,
                        });
                        will_retry = true;
                    }
                }
            }
        }
        if inst.kind == InstanceKind::Client {
            // The failed attempt's timeout entry is dead (whether it
            // expired or the instance was evicted before its deadline),
            // and so is its hedge timer, when hedging is on.
            self.drop_settled_deadlines();
        }
        if will_retry {
            self.report.faults.retried_operations += 1;
        } else {
            self.report.faults.abandoned_operations += 1;
            if let Some(sid) = inst.session {
                self.schedule_session_think(sid, now);
            }
        }
        let ev = Event::OperationFailed {
            instance: inst_id,
            cause: why,
            will_retry,
        };
        self.emit(now, ev);
    }

    /// Wakes sessions whose think time has elapsed: retiring sessions log
    /// out, the rest launch their next operation. Returns the number of
    /// sessions woken (retired or relaunched).
    pub(super) fn wake_sessions(&mut self, now: SimTime) -> u64 {
        let mut woken = 0u64;
        let mut launches: Vec<(u64, usize, usize)> = Vec::new(); // (session, source, w_site)
        self.session_wakes.pop_due(now, |id| {
            let Some(&(source, w_site)) = self.sessions.get(&id) else {
                return;
            };
            woken += 1;
            // Retire if the population curve shrank.
            let retired = match &mut self.traffic[source] {
                TrafficSource::Sessions { live, retiring, .. } => {
                    if retiring[w_site] > 0 {
                        retiring[w_site] -= 1;
                        live[w_site] -= 1;
                        true
                    } else {
                        false
                    }
                }
                _ => unreachable!("session bound to a non-session source"),
            };
            if retired {
                self.sessions.remove(&id);
            } else {
                launches.push((id, source, w_site));
            }
        });
        for (id, source, w_site) in launches {
            let TrafficSource::Sessions {
                app_idx, site_map, ..
            } = &self.traffic[source]
            else {
                unreachable!("session bound to a non-session source")
            };
            self.launch_from_mix(*app_idx, site_map[w_site], Some(id), now);
        }
        woken
    }

    /// Puts a session back to sleep after its operation completed.
    pub(super) fn schedule_session_think(&mut self, session: u64, now: SimTime) {
        let Some(&(source, _)) = self.sessions.get(&session) else {
            return;
        };
        let mean = match &self.traffic[source] {
            TrafficSource::Sessions {
                mean_think_secs, ..
            } => *mean_think_secs,
            _ => unreachable!("session bound to a non-session source"),
        };
        self.sleep_session(session, mean, now);
    }

    /// Arms `session`'s wake after an exponential think time of mean
    /// `mean_think_secs`, capped at an hour.
    fn sleep_session(&mut self, session: u64, mean_think_secs: f64, now: SimTime) {
        let delay = self.sampler.exponential(mean_think_secs).min(3600.0);
        let wake = now + SimDuration::from_secs_f64(delay);
        self.session_wakes.push(wake, session);
    }

    fn launch_background(&mut self, launch: BackgroundLaunch, now: SimTime) {
        let master_dc = self.site_dc[launch.master_site];
        let binding = SiteBinding {
            client: master_dc,
            master: master_dc,
            file_host: master_dc,
            extras: launch
                .extra_sites
                .iter()
                .map(|s| self.site_dc[*s])
                .collect(),
        };
        let op = match launch.kind {
            BackgroundKind::SyncRep => BG_OP_SYNCHREP,
            BackgroundKind::IndexBuild => BG_OP_INDEXBUILD,
        };
        let key = ResponseKey {
            app: BG_APP,
            op,
            dc: master_dc,
        };
        self.launch(
            Arc::new(launch.template),
            key,
            InstanceKind::Background(launch.kind, launch.master_site),
            binding,
            None,
            None,
            launch.volume_bytes,
            now,
            None,
        );
    }

    /// Launches one attempt of an operation. `retry` carries a
    /// re-issue's attempt number, the original launch time (so response
    /// times cover the full client wait) and the sampled span root that
    /// keeps the retry's spans under the original operation; `None`
    /// launches attempt 0.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn launch(
        &mut self,
        template: Arc<OperationTemplate>,
        key: ResponseKey,
        kind: InstanceKind,
        binding: SiteBinding,
        chain: Option<Chain>,
        session: Option<u64>,
        volume_bytes: f64,
        now: SimTime,
        retry: Option<(u32, SimTime, Option<u64>)>,
    ) {
        let (attempt, first_launched_at, trace_root) = retry.unwrap_or((0, now, None));
        let stages = template.stages();
        let (route_client, route_master) = (binding.client, binding.master);
        let id = self.flight.add_instance(Instance {
            key,
            kind,
            template,
            binding,
            stages,
            stage_idx: 0,
            outstanding: 0,
            launched_at: now,
            first_launched_at,
            attempt,
            chain,
            session,
            volume_bytes,
            hedge_partner: None,
            is_hedge_twin: false,
        });
        if self.obs.is_some() {
            // Annotate with the breaker state as the client saw it at
            // launch — read before `breaker_admits` advances the state
            // machine below.
            let breaker = if kind == InstanceKind::Client {
                self.breaker_state_label(route_client, route_master, now)
            } else {
                "closed"
            };
            let kind = match kind {
                InstanceKind::Client => "client",
                InstanceKind::Background(..) => "background",
            };
            let ev = Event::Launch {
                instance: id,
                key,
                kind,
                attempt,
                breaker,
                trace_root,
            };
            self.emit(now, ev);
        }
        // Per-route circuit breaker: an open breaker fails the launch
        // fast (a local error response) before any message is compiled
        // or any timer armed. The rejection settles through the normal
        // fail path, so the retry policy still applies.
        if kind == InstanceKind::Client && !self.breaker_admits(route_client, route_master, now) {
            self.fail_instance_with(id, FailCause::Breaker, "breaker", now);
            return;
        }
        if kind == InstanceKind::Client {
            self.arm_timeout(id, now);
            // Arm the hedge timer when hedging is on: the twin launches
            // if this attempt has not settled by then.
            if let Some(r) = self.resilience.as_mut() {
                if let Some(h) = r.policies.hedge {
                    r.hedges
                        .push(now + SimDuration::from_secs_f64(h.delay_secs), id);
                }
            }
        }
        self.start_stage(id, now);
    }

    /// Arms client attempt `id`'s timeout when a retry policy is set.
    pub(super) fn arm_timeout(&mut self, id: u64, now: SimTime) {
        if let Some(f) = self.faults.as_mut() {
            if let Some(policy) = f.retry {
                f.timeouts
                    .push(now + SimDuration::from_secs_f64(policy.timeout_secs), id);
            }
        }
    }
}

gdisim_snap::snap_struct!(PendingRetry {
    at,
    template,
    key,
    binding,
    chain,
    session,
    attempt,
    first_launched_at,
    trace_root,
});

gdisim_snap::snap_enum!(TrafficSource {
    0 => Diurnal { app_idx, workload, site_map },
    1 => Sessions { app_idx, workload, site_map, mean_think_secs, live, retiring },
    2 => PeriodicSeries { app, templates, interval, site, next, stop_at },
});
