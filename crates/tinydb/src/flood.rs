//! Query dissemination, as both node applications do it: TinyDB-style
//! flooding of query definitions and aborts, pruned by the Semantic Routing
//! Tree when it is on (§3.2.2).
//!
//! [`TinyDbApp`](crate::TinyDbApp) and the in-network tier's `TtmqoApp`
//! differ in what a query frame carries and in what running a query means.
//! Which copy of a flood a node relays, after how long, and which
//! definitions it holds only to relay them, they do not differ in, so it
//! exists once.

use crate::buffers::timer_key;
use crate::srt::Srt;
use std::collections::BTreeMap;
use std::sync::Arc;
use ttmqo_query::{Query, QueryId};
use ttmqo_sim::Ctx;

/// Timer kind of a query flood's re-broadcast (low 4 bits of the key).
pub const KIND_FLOOD_QUERY: u64 = 3;
/// Timer kind of an abort flood's re-broadcast.
pub const KIND_FLOOD_ABORT: u64 = 4;

/// Which of a query id's two floods a node has heard: two independent
/// facts, since a copy of either may arrive first.
#[derive(Debug, Default)]
struct Seen {
    query: bool,
    abort: bool,
}

/// One node's dissemination state: every query id it has heard a flood
/// for, the definitions it only relays, and the semantic routing tree that
/// prunes query floods.
#[derive(Debug)]
pub struct Floods {
    /// Whether the SRT prunes dissemination.
    srt: bool,
    /// Maximum random jitter before a re-broadcast, ms.
    jitter_ms: u64,
    heard: BTreeMap<QueryId, Seen>,
    /// Queries whose flood this node forwards but that its id or position
    /// can never satisfy, held for the re-broadcast until their abort.
    relay_only: BTreeMap<QueryId, Arc<Query>>,
    /// Built at the first flood that consults it; boxed, so that a node
    /// without pruning does not carry its size.
    tree: Option<Box<Srt>>,
}

impl Floods {
    /// An empty table: `srt` turns pruning on, and each re-broadcast waits
    /// `1..=jitter_ms` ms.
    pub fn new(srt: bool, jitter_ms: u64) -> Self {
        Floods {
            srt,
            jitter_ms,
            heard: BTreeMap::new(),
            relay_only: BTreeMap::new(),
            tree: None,
        }
    }

    /// A copy of `query`'s flood arrived (at the base station: the query
    /// was posed). The first copy arms the re-broadcast unless the SRT
    /// prunes it here. Returns whether this node should run the query:
    /// `true` only for the first copy, and not where the SRT rules it out.
    pub fn on_query<P, O>(&mut self, ctx: &mut Ctx<'_, P, O>, query: &Arc<Query>) -> bool {
        let qid = query.id();
        // Only the first copy of a flood counts.
        if std::mem::replace(&mut self.heard.entry(qid).or_default().query, true) {
            return false;
        }
        let (forwards, matches) = if self.srt && !ctx.is_base_station() {
            let (node, topo) = (ctx.node(), ctx.topology());
            let tree = self.tree.get_or_insert_with(|| Srt::build(topo).into());
            (tree.forwards(node, query), tree.node_matches(node, query))
        } else {
            (true, true)
        };
        if forwards {
            self.arm(ctx, KIND_FLOOD_QUERY, qid);
            if !matches {
                self.relay_only.insert(qid, Arc::clone(query));
            }
        }
        matches
    }

    /// A copy of `qid`'s abort flood arrived (at the base station: the
    /// query was terminated). The first copy arms the re-broadcast and drops
    /// a relay-only definition. Returns whether this node should stop
    /// running the query: `true` only for the first copy.
    pub fn on_abort<P, O>(&mut self, ctx: &mut Ctx<'_, P, O>, qid: QueryId) -> bool {
        if std::mem::replace(&mut self.heard.entry(qid).or_default().abort, true) {
            return false;
        }
        self.arm(ctx, KIND_FLOOD_ABORT, qid);
        self.relay_only.remove(&qid);
        true
    }

    /// Sets `kind`'s re-broadcast timer for `qid` after a short random
    /// jitter, which desynchronizes the flood.
    fn arm<P, O>(&self, ctx: &mut Ctx<'_, P, O>, kind: u64, qid: QueryId) {
        let jitter = 1 + ctx.rand_u64() % self.jitter_ms.max(1);
        ctx.set_timer(jitter, timer_key(kind, qid, 0));
    }

    /// The definition a [`KIND_FLOOD_QUERY`] timer for `qid` re-broadcasts:
    /// the node's `running` copy, else the one it only relays; `None` when
    /// it holds neither, as after the query's abort.
    pub fn to_relay(&self, qid: QueryId, running: Option<&Arc<Query>>) -> Option<Arc<Query>> {
        running.or_else(|| self.relay_only.get(&qid)).cloned()
    }

    /// Whether this node has heard either flood for `qid`: it then runs the
    /// query, relays it only, was pruned from it, or saw it aborted.
    pub fn heard(&self, qid: QueryId) -> bool {
        self.heard.contains_key(&qid)
    }

    /// Whether this node has heard `qid`'s abort flood.
    pub fn aborted(&self, qid: QueryId) -> bool {
        self.heard.get(&qid).is_some_and(|r| r.abort)
    }

    /// The queries this node only relays (for tests and inspection).
    pub fn relay_only(&self) -> impl Iterator<Item = &Query> {
        self.relay_only.values().map(Arc::as_ref)
    }
}
