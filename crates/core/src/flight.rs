//! In-flight operation bookkeeping.
//!
//! Launching an operation instantiates its cascade: every stage of the
//! template is compiled into *message plans* (ordered agent hops with
//! demands) when the stage begins, and each hop in flight is identified
//! by a dense token the queueing layer hands back on completion.

use crate::router::MessagePlan;
use gdisim_background::BackgroundKind;
use gdisim_metrics::ResponseKey;
use gdisim_types::{IdMap, SimTime};
use gdisim_workload::{OperationTemplate, SiteBinding};
use std::ops::Range;
use std::sync::Arc;

/// What kind of initiator an instance has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceKind {
    /// A client launched it.
    Client,
    /// A background daemon launched it at `master_site` (site index).
    Background(BackgroundKind, usize),
}

/// Pending operations chained after this one (validation *series*: the
/// next operation launches when the current one completes, same client).
#[derive(Debug, Clone)]
pub struct Chain {
    /// Remaining templates, front first.
    pub remaining: Vec<Arc<OperationTemplate>>,
    /// Response-key ops for the remaining templates (parallel vector).
    pub keys: Vec<ResponseKey>,
}

/// One live operation instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Reporting key (app, op, client DC).
    pub key: ResponseKey,
    /// Initiator.
    pub kind: InstanceKind,
    /// The cascade being executed.
    pub template: Arc<OperationTemplate>,
    /// Site bindings for this instance.
    pub binding: SiteBinding,
    /// Parallel stages (step-index ranges) of the template.
    pub stages: Vec<Range<usize>>,
    /// Index of the stage currently executing.
    pub stage_idx: usize,
    /// Messages of the current stage still in flight.
    pub outstanding: u32,
    /// Launch timestamp of this attempt.
    pub launched_at: SimTime,
    /// Launch timestamp of the *first* attempt — equals `launched_at`
    /// unless this instance is a fault-layer retry. Response times are
    /// recorded from here, so a client that retried twice reports the
    /// full wait it actually experienced.
    pub first_launched_at: SimTime,
    /// How many times this operation has been re-issued (0 = first try).
    pub attempt: u32,
    /// Chained follow-up operations, if any.
    pub chain: Option<Chain>,
    /// The closed-loop session this operation belongs to, if any; on
    /// completion the session thinks and then launches its next
    /// operation.
    pub session: Option<u64>,
    /// Background volume (bytes) for reporting, zero for client ops.
    pub volume_bytes: f64,
    /// The other half of a hedged pair, when one is live: the twin's id
    /// on the primary, the primary's id on the twin. Whichever half
    /// settles first quiet-cancels the partner through this link.
    pub hedge_partner: Option<u64>,
    /// Whether this instance is the re-issued copy (the hedge twin).
    /// Twins never arm their own hedge timer.
    pub is_hedge_twin: bool,
}

/// Per-token state: which instance a completed hop belongs to and what
/// remains of its message.
#[derive(Debug, Clone)]
pub struct TokenState {
    /// Owning instance id.
    pub instance: u64,
    /// Remaining hops of this message (front = next).
    pub plan: MessagePlan,
}

/// Dense token and instance tables.
#[derive(Debug, Clone, Default)]
pub struct FlightTable {
    next_token: u64,
    next_instance: u64,
    pub(crate) tokens: IdMap<u64, TokenState>,
    pub(crate) instances: IdMap<u64, Instance>,
}

impl FlightTable {
    /// Creates empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new instance, returning its id.
    pub fn add_instance(&mut self, instance: Instance) -> u64 {
        let id = self.next_instance;
        self.next_instance += 1;
        self.instances.insert(id, instance);
        id
    }

    /// Registers a token for a message of `instance`.
    pub fn add_token(&mut self, instance: u64, plan: MessagePlan) -> u64 {
        let id = self.next_token;
        self.next_token += 1;
        self.tokens.insert(id, TokenState { instance, plan });
        id
    }

    /// Number of live instances.
    pub fn live_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of live client instances (excludes background).
    pub fn live_client_instances(&self) -> usize {
        self.instances
            .values()
            .filter(|i| i.kind == InstanceKind::Client)
            .count()
    }

    /// Number of in-flight messages.
    pub fn live_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Token ids belonging to `instance`, ascending. The token map is
    /// hash-ordered, so fault handling sorts before touching anything
    /// order-sensitive.
    pub fn tokens_of(&self, instance: u64) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .tokens
            .iter()
            .filter(|(_, s)| s.instance == instance)
            .map(|(t, _)| *t)
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdisim_types::{AppId, DcId, OpTypeId, RVec};
    use gdisim_workload::{CascadeStep, Endpoint, Site};

    fn template() -> Arc<OperationTemplate> {
        let c = Endpoint::client();
        let app = Endpoint::tier(gdisim_types::TierKind::App, Site::Master);
        Arc::new(OperationTemplate::new(
            "T",
            vec![CascadeStep::seq(c, app, RVec::cycles(1.0))],
        ))
    }

    #[test]
    fn tables_hand_out_dense_ids() {
        let mut ft = FlightTable::new();
        let t = template();
        let key = ResponseKey {
            app: AppId(0),
            op: OpTypeId(0),
            dc: DcId(0),
        };
        let inst = Instance {
            key,
            kind: InstanceKind::Client,
            stages: t.stages(),
            template: t,
            binding: SiteBinding::local(DcId(0)),
            stage_idx: 0,
            outstanding: 0,
            launched_at: SimTime::ZERO,
            first_launched_at: SimTime::ZERO,
            attempt: 0,
            chain: None,
            session: None,
            volume_bytes: 0.0,
            hedge_partner: None,
            is_hedge_twin: false,
        };
        let a = ft.add_instance(inst);
        let tok = ft.add_token(a, MessagePlan::default());
        assert_eq!(ft.live_instances(), 1);
        assert_eq!(ft.live_client_instances(), 1);
        assert_eq!(ft.live_tokens(), 1);
        assert_eq!(ft.tokens[&tok].instance, a);
    }
}

// Checkpoint support. `InstanceKind::Background` carries tuple fields,
// which the declarative enum macro does not cover — hand-rolled.
impl gdisim_snap::Snap for InstanceKind {
    fn save(&self, w: &mut gdisim_snap::SnapWriter) {
        match self {
            InstanceKind::Client => w.put_u8(0),
            InstanceKind::Background(kind, site) => {
                w.put_u8(1);
                gdisim_snap::Snap::save(kind, w);
                gdisim_snap::Snap::save(site, w);
            }
        }
    }
    fn load(r: &mut gdisim_snap::SnapReader<'_>) -> Result<Self, gdisim_snap::SnapError> {
        match r.take_u8()? {
            0 => Ok(InstanceKind::Client),
            1 => Ok(InstanceKind::Background(
                gdisim_snap::Snap::load(r)?,
                gdisim_snap::Snap::load(r)?,
            )),
            tag => Err(gdisim_snap::SnapError::BadTag {
                ty: "InstanceKind",
                tag,
            }),
        }
    }
}
gdisim_snap::snap_struct!(Chain { remaining, keys });
gdisim_snap::snap_struct!(Instance {
    key,
    kind,
    template,
    binding,
    stages,
    stage_idx,
    outstanding,
    launched_at,
    first_launched_at,
    attempt,
    chain,
    session,
    volume_bytes,
    hedge_partner,
    is_hedge_twin,
});
gdisim_snap::snap_struct!(TokenState { instance, plan });
gdisim_snap::snap_struct!(FlightTable {
    next_token,
    next_instance,
    tokens,
    instances,
});
