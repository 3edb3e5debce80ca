//! Query dissemination, as both node applications do it: TinyDB-style
//! flooding of query definitions and aborts (both tiers flood, §3.2.2) — and
//! the one table of what a node knows per query id.
//!
//! [`TinyDbApp`](crate::TinyDbApp) and the in-network tier's `TtmqoApp`
//! differ in what a query frame carries and in what running a query means.
//! Which copy of a flood a node relays, after how long, and which
//! definitions it holds, they do not differ in, so it exists once.

use crate::buffers::timer_key;
use std::sync::Arc;
use ttmqo_query::{Query, QueryId};
use ttmqo_sim::Ctx;

/// Timer kind of a query flood's re-broadcast (low 4 bits of the key).
pub const KIND_FLOOD_QUERY: u64 = 3;
/// Timer kind of an abort flood's re-broadcast.
pub const KIND_FLOOD_ABORT: u64 = 4;

/// Mark: the node heard a copy of the id's query flood.
const HEARD_QUERY: u8 = 1;
/// Mark: the node heard a copy of the id's abort flood.
const HEARD_ABORT: u8 = 1 << 1;
/// Mark: the node's latest readings satisfy the query (in-network tier).
const HAS_DATA: u8 = 1 << 2;
/// Mark: the node asked its neighbours for the definition (in-network tier).
const REQUESTED: u8 = 1 << 3;

/// A definition a node holds: the allocation its flood carried, with the
/// id beside the pointer so that a search reads no query.
#[derive(Debug)]
struct Def {
    id: QueryId,
    query: Arc<Query>,
}

/// Where `qid`'s definition sits in `defs` (ascending by id), or where it
/// would.
fn find(defs: &[Def], qid: QueryId) -> Result<usize, usize> {
    defs.binary_search_by_key(&qid, |d| d.id)
}

/// One node's table of query ids: which of an id's two floods it heard
/// (two independent facts, since a copy of either may arrive first), the
/// definitions it runs, and the in-network tier's has-data and requested
/// marks.
///
/// Three sorted flat vectors: an id costs 9 bytes while only its marks are
/// left (a node remembers every id it ever heard a flood for, so that a
/// late copy is not taken for a new query), and only the handful of
/// definitions held pay 16 more. Every walk is in ascending id, the order
/// in which the ids reach the radio.
#[derive(Debug)]
pub struct Floods {
    /// Maximum random jitter before a re-broadcast, ms.
    jitter_ms: u64,
    /// Every id the node has marks for or runs, ascending.
    ids: Vec<QueryId>,
    /// The marks of `ids[i]`, one bit each.
    marks: Vec<u8>,
    /// The installed queries — the ones the node samples for (the base
    /// station: closes the epochs of) — ascending by id; each id is in `ids`.
    running: Vec<Def>,
}

impl Floods {
    /// An empty table; each re-broadcast waits `1..=jitter_ms` ms.
    pub fn new(jitter_ms: u64) -> Self {
        Floods {
            jitter_ms,
            ids: Vec::new(),
            marks: Vec::new(),
            running: Vec::new(),
        }
    }

    /// A copy of `query`'s flood arrived (at the base station: the query
    /// was posed). The first copy arms the re-broadcast. Returns whether
    /// this node should run the query: `true` only for the first copy.
    pub fn on_query<P, O>(&mut self, ctx: &mut Ctx<'_, P, O>, query: &Arc<Query>) -> bool {
        let qid = query.id();
        // Only the first copy of a flood counts.
        if !self.first_copy(qid, HEARD_QUERY) {
            return false;
        }
        self.arm(ctx, KIND_FLOOD_QUERY, qid);
        true
    }

    /// A copy of `qid`'s abort flood arrived (at the base station: the
    /// query was terminated). The first copy arms the re-broadcast. Returns
    /// whether this node should stop running the query: `true` only for the
    /// first copy.
    pub fn on_abort<P, O>(&mut self, ctx: &mut Ctx<'_, P, O>, qid: QueryId) -> bool {
        if !self.first_copy(qid, HEARD_ABORT) {
            return false;
        }
        self.arm(ctx, KIND_FLOOD_ABORT, qid);
        true
    }

    /// Sets `kind`'s re-broadcast timer for `qid` after a short random
    /// jitter, which desynchronizes the flood.
    fn arm<P, O>(&self, ctx: &mut Ctx<'_, P, O>, kind: u64, qid: QueryId) {
        let jitter = 1 + ctx.rand_u64() % self.jitter_ms.max(1);
        ctx.set_timer(jitter, timer_key(kind, qid, 0));
    }

    /// Marks `qid`'s flood of kind `heard` as heard: `true` for its first
    /// copy.
    fn first_copy(&mut self, qid: QueryId, heard: u8) -> bool {
        let at = self.slot(qid);
        let first = self.marks[at] & heard == 0;
        self.marks[at] |= heard;
        first
    }

    /// Where `qid` sits in `ids` and `marks`, inserted without marks if new.
    fn slot(&mut self, qid: QueryId) -> usize {
        self.ids.binary_search(&qid).unwrap_or_else(|at| {
            self.ids.insert(at, qid);
            self.marks.insert(at, 0);
            at
        })
    }

    /// `qid`'s marks; none for an id the node never met.
    fn marks_of(&self, qid: QueryId) -> u8 {
        self.ids.binary_search(&qid).map_or(0, |at| self.marks[at])
    }

    /// Sets or clears one of `qid`'s marks; clearing never adds an id.
    fn set_mark(&mut self, qid: QueryId, mark: u8, on: bool) {
        if on {
            let at = self.slot(qid);
            self.marks[at] |= mark;
        } else if let Ok(at) = self.ids.binary_search(&qid) {
            self.marks[at] &= !mark;
        }
    }

    /// Installs `query`: the node runs it from now on, and no longer asks
    /// its neighbours for it. Returns `false` if it ran already.
    pub fn install(&mut self, query: &Arc<Query>) -> bool {
        let qid = query.id();
        self.set_mark(qid, REQUESTED, false);
        let Err(at) = find(&self.running, qid) else {
            return false;
        };
        self.slot(qid);
        let query = Arc::clone(query);
        self.running.insert(at, Def { id: qid, query });
        true
    }

    /// Uninstalls `qid`: the node stops running it, and so no longer has
    /// data for it. Returns whether it ran.
    pub fn uninstall(&mut self, qid: QueryId) -> bool {
        let Ok(at) = find(&self.running, qid) else {
            return false;
        };
        self.running.remove(at);
        self.set_mark(qid, HAS_DATA, false);
        true
    }

    /// The installed query `qid`, if the node runs it: also the definition a
    /// [`KIND_FLOOD_QUERY`] timer for `qid` re-broadcasts (none after the
    /// query's abort).
    pub fn running(&self, qid: QueryId) -> Option<&Arc<Query>> {
        let at = find(&self.running, qid).ok()?;
        Some(&self.running[at].query)
    }

    /// The installed queries, ascending by id.
    pub fn installed(&self) -> impl Iterator<Item = &Arc<Query>> {
        self.running.iter().map(|d| &d.query)
    }

    /// Whether the node runs no query.
    pub fn runs_none(&self) -> bool {
        self.running.is_empty()
    }

    /// Whether this node has heard either flood for `qid`: it then runs the
    /// query or saw it aborted.
    pub fn heard(&self, qid: QueryId) -> bool {
        self.marks_of(qid) & (HEARD_QUERY | HEARD_ABORT) != 0
    }

    /// Whether this node has heard `qid`'s abort flood.
    pub fn aborted(&self, qid: QueryId) -> bool {
        self.marks_of(qid) & HEARD_ABORT != 0
    }

    /// The queries marked as ones this node's latest readings satisfy,
    /// ascending.
    pub fn has_data(&self) -> impl Iterator<Item = QueryId> + '_ {
        let marked = self.marks.iter().map(|&m| m & HAS_DATA != 0);
        self.ids
            .iter()
            .zip(marked)
            .filter(|(_, m)| *m)
            .map(|(&q, _)| q)
    }

    /// Whether any query is marked as one this node's readings satisfy.
    pub fn has_any_data(&self) -> bool {
        self.marks.iter().any(|&m| m & HAS_DATA != 0)
    }

    /// Whether `qid` is marked as one this node's readings satisfy.
    pub fn has_data_for(&self, qid: QueryId) -> bool {
        self.marks_of(qid) & HAS_DATA != 0
    }

    /// Marks (`on`) or unmarks `qid` as one this node's readings satisfy.
    pub fn set_has_data(&mut self, qid: QueryId, on: bool) {
        self.set_mark(qid, HAS_DATA, on);
    }

    /// Re-marks the installed queries, ascending: `mark` returns whether
    /// the node's readings satisfy a query, or `None` to leave its mark.
    pub fn mark_installed(&mut self, mut mark: impl FnMut(&Arc<Query>) -> Option<bool>) {
        // Both vectors ascend and each installed id is in `ids`, so one
        // forward walk finds every mark.
        let mut at = 0;
        for def in &self.running {
            let Some(has) = mark(&def.query) else {
                continue;
            };
            at += self.ids[at..].partition_point(|&q| q < def.id);
            if has {
                self.marks[at] |= HAS_DATA;
            } else {
                self.marks[at] &= !HAS_DATA;
            }
        }
    }

    /// Whether to ask the neighbourhood for `qid`'s definition: not when
    /// the node runs the query or heard a flood of it (it installed it or it
    /// was aborted), nor when it asked already.
    /// A `true` marks it asked.
    pub fn request(&mut self, qid: QueryId) -> bool {
        // Most ids a node hears traffic for are ones it runs: the handful of
        // definitions is searched before the marks of every id it knows.
        if self.running(qid).is_some() {
            return false;
        }
        let at = self.slot(qid);
        let asked = self.marks[at] & (HEARD_QUERY | HEARD_ABORT | REQUESTED) == 0;
        self.marks[at] |= REQUESTED;
        asked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use ttmqo_query::parse_query;

    /// The table as the in-network tier kept it before it was one table:
    /// which floods were heard, the installed definitions, the has-data set
    /// and the requested set.
    #[derive(Default)]
    struct Model {
        heard: BTreeMap<QueryId, (bool, bool)>,
        queries: BTreeMap<QueryId, Arc<Query>>,
        has_data: BTreeSet<QueryId>,
        requested: BTreeSet<QueryId>,
    }

    /// Compares every lookup and every walk of `table` with `model`.
    fn assert_same(table: &Floods, model: &Model, qids: &[Arc<Query>], step: usize) {
        let ids = |it: &mut dyn Iterator<Item = QueryId>| it.collect::<Vec<_>>();
        assert_eq!(
            ids(&mut table.installed().map(|q| q.id())),
            ids(&mut model.queries.keys().copied()),
            "installed at step {step}"
        );
        assert_eq!(
            ids(&mut table.has_data()),
            ids(&mut model.has_data.iter().copied()),
            "has-data at step {step}"
        );
        assert_eq!(table.runs_none(), model.queries.is_empty());
        assert_eq!(table.has_any_data(), !model.has_data.is_empty());
        for q in qids {
            let qid = q.id();
            let seen = model.heard.get(&qid);
            assert_eq!(table.heard(qid), seen.is_some(), "{qid} at step {step}");
            assert_eq!(table.aborted(qid), seen.is_some_and(|s| s.1));
            assert_eq!(table.has_data_for(qid), model.has_data.contains(&qid));
            assert_eq!(
                table.running(qid).map(|q| q.id()),
                model.queries.get(&qid).map(|q| q.id())
            );
        }
    }

    #[test]
    fn one_table_matches_the_maps_and_sets_it_replaced() {
        // Replay one deterministic pseudo-random stream of installs,
        // flood copies, requests, has-data marks and
        // uninstalls through the table and through the B-trees it replaced,
        // and demand the same answer to every lookup and the same order of
        // every walk after each step. Ids come from a range small enough
        // that every operation meets every state.
        let mut state = 0x0dd_ba11_cafe_f00du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let qids: Vec<Arc<Query>> = (0..96u64)
            .map(|i| {
                let text = format!("select light epoch duration {}", 2048 << (i % 3));
                Arc::new(parse_query(QueryId(i * 7 % 96), &text).unwrap())
            })
            .collect();
        let (mut table, mut model) = (Floods::new(24), Model::default());
        let mut asked = 0;
        for step in 0..8_000 {
            let q = &qids[(rand() % qids.len() as u64) as usize];
            let qid = q.id();
            match rand() % 9 {
                // A flood copy: the first one counts.
                0 => {
                    let seen = model.heard.entry(qid).or_default();
                    let first = !std::mem::replace(&mut seen.0, true);
                    assert_eq!(table.first_copy(qid, HEARD_QUERY), first, "step {step}");
                    if first {
                        let new = !model.queries.contains_key(&qid);
                        model.queries.entry(qid).or_insert_with(|| Arc::clone(q));
                        assert_eq!(table.install(q), new, "step {step}");
                    }
                }
                // An abort copy: the first one drops what is run, and the
                // in-network tier's has-data mark with it.
                1 => {
                    let seen = model.heard.entry(qid).or_default();
                    let first = !std::mem::replace(&mut seen.1, true);
                    assert_eq!(table.first_copy(qid, HEARD_ABORT), first, "step {step}");
                    if first {
                        let ran = model.queries.remove(&qid).is_some();
                        assert_eq!(table.uninstall(qid), ran, "step {step}");
                        if ran {
                            model.has_data.remove(&qid);
                        }
                    }
                }
                // A share answering a request: installed unless aborted.
                2 if !model.heard.get(&qid).is_some_and(|s| s.1) => {
                    model.requested.remove(&qid);
                    let new = !model.queries.contains_key(&qid);
                    model.queries.entry(qid).or_insert_with(|| Arc::clone(q));
                    assert_eq!(table.install(q), new, "step {step}");
                }
                3 | 4 => {
                    let ask = !model.queries.contains_key(&qid)
                        && !model.heard.contains_key(&qid)
                        && model.requested.insert(qid);
                    assert_eq!(table.request(qid), ask, "step {step}");
                    asked += usize::from(ask);
                }
                5 => {
                    let on = rand() % 2 == 0;
                    if on {
                        model.has_data.insert(qid);
                    } else {
                        model.has_data.remove(&qid);
                    }
                    table.set_has_data(qid, on);
                }
                // A clock firing re-marks the due installed queries.
                6 => {
                    let (due, has) = (rand() % 3, rand() % 2 == 0);
                    let fires = |q: &Query| q.id().0 % 3 == due;
                    for q in model.queries.values().filter(|q| fires(q)) {
                        if has {
                            model.has_data.insert(q.id());
                        } else {
                            model.has_data.remove(&q.id());
                        }
                    }
                    table.mark_installed(|q| fires(q).then_some(has));
                }
                _ => {}
            }
            assert_same(&table, &model, &qids, step);
        }
        assert!(asked > 10, "{asked} requests");
        assert!(!model.queries.is_empty());
    }
}
