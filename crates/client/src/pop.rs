//! The struct-of-arrays client population.
//!
//! A cell serves thousands to millions of mobile hosts, and the
//! engine's report fan-out walks every client a broadcast can change
//! (a *quiet* client, see [`ClientPop::stamp_quiet`], only takes the new
//! `Tlb`). Scattering per-client state across individually boxed client
//! structs makes that walk a pointer chase; [`ClientPop`] instead keeps
//! one column per field — disconnect epoch, last-report time, cache,
//! gap/retry state, pending query, counters — so the walk scans
//! contiguous columns.
//!
//! The columns are declared once, in `client_columns!`. That one list
//! gives the population its `Vec` fields, `Cols` its slices and
//! [`ClientMut`] its per-client `&mut` cells. The state-machine handlers
//! are written once, against [`ClientMut`], so the scheme logic never
//! sees column indices, and every view is built by `Cols::view`:
//! [`ClientPop::client_mut`] views one client, and
//! [`ClientPop::for_each_delivered`] views each masked client in turn.
//!
//! Per-scheme column groups are materialized only for the active
//! scheme: the `SIG` baseline column exists only when the population
//! runs [`Scheme::Sig`], so the other seven schemes pay nothing for it.

use crate::machine::{ClientAction, ClientConfig, ClientCounters};
use crate::query::{PendingItem, PendingState, QueryHeader};
use mobicache_cache::{EntryState, LruCache};
use mobicache_model::{CheckingMode, ItemId, Scheme, UplinkKind};
use mobicache_reports::{BsSelect, PlanCache, PlanStats, ReportPayload, SigDecision};
use mobicache_sim::bits::for_each_set_bit;
use mobicache_sim::SimTime;
use std::collections::HashSet;

/// A reconnection gap: the period of history the client missed and has
/// not yet been vouched for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GapState {
    /// `Tlb` at the moment the gap was detected — coverage target for
    /// salvage.
    since: SimTime,
    /// When the `Tlb`/check message was sent, if it was.
    sent_at: Option<SimTime>,
    /// Re-sends of the gap's `Tlb`/check so far (capped backoff).
    retries: u32,
}

/// What the lost-reply re-arm timer makes of an open gap's salvage
/// request (see `ClientMut::rearm`).
enum Rearm {
    /// The request is out and within its grace.
    Waiting,
    /// Send the request: the gap has none out, or a lost one is re-armed
    /// (`retried` when the fault policy counts it as a retry). Carries
    /// the gap to store, stamped, once the request goes up.
    Resend { gap: GapState, retried: bool },
    /// The fault policy's retry budget ran out.
    Exhausted,
    /// An adaptive client's grace ran out with no fault policy.
    GiveUp,
}

/// Declares the per-client columns once. Each `name: Type = init` entry
/// becomes a `Vec<Type>` field of `Columns` holding `init` for every
/// fresh client (`$cfg` names the shared configuration there), a
/// `&mut [Type]` field of `Cols`, and a `&mut Type` field of
/// [`ClientMut`]. The SIG baseline column is written out beside the
/// list, as it is materialized only under [`Scheme::Sig`].
macro_rules! client_columns {
    ($cfg:ident => $( $(#[$doc:meta])* $col:ident: $ty:ty = $init:expr, )*) => {
        /// Every per-client column, indexed by client.
        struct Columns {
            $( $(#[$doc])* $col: Vec<$ty>, )*
            /// Stored combined signatures; `None` unless the scheme is
            /// [`Scheme::Sig`].
            sig_baseline: Option<Vec<Option<Vec<u64>>>>,
        }

        impl Columns {
            /// The columns of `n` fresh clients.
            fn new($cfg: &ClientConfig, n: usize) -> Self {
                Columns {
                    $( $col: (0..n).map(|_| $init).collect(), )*
                    sig_baseline: ($cfg.scheme == Scheme::Sig).then(|| vec![None; n]),
                }
            }

            /// Every column of every client.
            #[inline]
            fn cols<'a>(&'a mut self, cfg: &'a ClientConfig) -> Cols<'a> {
                Cols {
                    cfg,
                    $( $col: &mut self.$col, )*
                    sig_baseline: self.sig_baseline.as_deref_mut(),
                }
            }
        }

        /// Every column, as `&mut` slices: what a view borrows from.
        struct Cols<'a> {
            cfg: &'a ClientConfig,
            $( $col: &'a mut [$ty], )*
            sig_baseline: Option<&'a mut [Option<Vec<u64>>]>,
        }

        impl<'a> Cols<'a> {
            /// The same columns, borrowed for a shorter lifetime.
            // `reborrow` and `view` run once per walked client: out of
            // line, the call and the returned view cost the fan-out a
            // few per cent of a small population's run time.
            #[inline(always)]
            fn reborrow(&mut self) -> Cols<'_> {
                Cols {
                    cfg: self.cfg,
                    $( $col: &mut *self.$col, )*
                    sig_baseline: self.sig_baseline.as_deref_mut(),
                }
            }

            /// The view of client `i`: the one place a [`ClientMut`] is
            /// built.
            #[inline(always)]
            fn view(self, i: usize) -> ClientMut<'a> {
                let Cols { cfg, $( $col, )* sig_baseline } = self;
                ClientMut {
                    cfg,
                    $( $col: &mut $col[i], )*
                    sig_baseline: sig_baseline.map(|col| &mut col[i]),
                }
            }
        }

        /// A mutable per-client accessor view: one `&mut` per column cell,
        /// so the scheme handlers read like a self-contained client while
        /// the state lives in the population columns.
        pub struct ClientMut<'a> {
            cfg: &'a ClientConfig,
            $( $col: &'a mut $ty, )*
            /// `None` unless the population materialized the SIG column.
            sig_baseline: Option<&'a mut Option<Vec<u64>>>,
        }
    };
}

client_columns! {
    cfg =>
    /// The client's cache.
    cache: LruCache = LruCache::new(cfg.cache_capacity),
    /// Timestamp of the last report received.
    tlb: SimTime = SimTime::ZERO,
    /// `true` while listening to broadcasts.
    connected: bool = true,
    /// Reconnected, and no report has been applied since.
    reconnect_pending: bool = false,
    /// When the current doze began.
    disconnected_at: Option<SimTime> = None,
    /// The open reconnection gap, if any.
    gap: Option<GapState> = None,
    /// The per-query scalars of the query in flight, if any.
    header: Option<QueryHeader> = None,
    /// The query in flight's items, empty when there is none. The `Vec`
    /// keeps its capacity across queries.
    pending: Vec<PendingItem> = Vec::new(),
    /// Stale items found while applying a report, drained before the
    /// handler returns.
    stale_scratch: Vec<ItemId> = Vec::new(),
    /// Behaviour counters.
    counters: ClientCounters = ClientCounters::default(),
    /// No report of any kind can change the client beyond its `Tlb` (see
    /// `quiet_predicate`), so the fan-out stamps it instead of walking
    /// it. Recomputed only by `ClientMut`'s `Drop`, and cleared by
    /// [`ClientPop::start_query`].
    quiet: bool = cfg.scheme != Scheme::Sig,
}

/// A struct-of-arrays population of mobile clients.
///
/// All clients share one [`ClientConfig`]; per-client state lives in
/// parallel columns indexed by `ClientId::index()`. Mutating access
/// goes through [`ClientPop::client_mut`] (one client) or
/// [`ClientPop::for_each_delivered`] (every client of a mask).
pub struct ClientPop {
    cfg: ClientConfig,
    col: Columns,
    /// Dense mirror of the `connected` column: bit `i` set iff client `i`
    /// listens. The fan-out copies this as its delivery-mask seed, so
    /// the walk skips 64 disconnected clients per zero word instead of
    /// branching each. Maintained only by [`ClientPop::disconnect`] and
    /// [`ClientPop::reconnect`], the only ways to doze and wake a
    /// client.
    connected_bits: Vec<u64>,
    /// Which cell each client is currently associated with (all zero in
    /// the single-cell topology).
    cell: Vec<u32>,
    /// One membership bitmap per cell: bit `i` of `cell_bits[c]` is set
    /// iff client `i` is associated with cell `c`. The per-cell fan-out
    /// intersects this with `connected_bits` for its delivery mask.
    /// Maintained only by the [`ClientPop::handoff`] wrapper.
    cell_bits: Vec<Vec<u64>>,
}

impl ClientPop {
    /// A population of `n` fresh, connected clients with empty caches
    /// in a single cell (the legacy topology).
    pub fn new(cfg: ClientConfig, n: usize) -> Self {
        ClientPop::with_cells(cfg, n, 1)
    }

    /// A population of `n` fresh, connected clients spread round-robin
    /// over `cells` cells (client `i` starts in cell `i % cells`).
    ///
    /// # Panics
    /// Panics if `cells` is zero.
    pub fn with_cells(cfg: ClientConfig, n: usize, cells: u32) -> Self {
        assert!(cells > 0, "at least one cell");
        let words = n.div_ceil(64);
        let mut cell = Vec::with_capacity(n);
        let mut cell_bits = vec![vec![0u64; words]; cells as usize];
        for i in 0..n {
            let c = (i as u32) % cells;
            cell.push(c);
            cell_bits[c as usize][i / 64] |= 1u64 << (i % 64);
        }
        ClientPop {
            col: Columns::new(&cfg, n),
            connected_bits: {
                let mut words = vec![u64::MAX; words];
                if !n.is_multiple_of(64) {
                    if let Some(last) = words.last_mut() {
                        *last = (1u64 << (n % 64)) - 1;
                    }
                }
                words
            },
            cell,
            cell_bits,
            cfg,
        }
    }

    /// Number of clients in the population.
    pub fn len(&self) -> usize {
        self.col.cache.len()
    }

    /// `true` for the empty population.
    pub fn is_empty(&self) -> bool {
        self.col.cache.is_empty()
    }

    /// The shared static configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Read access to client `i`'s cache.
    pub fn cache(&self, i: usize) -> &LruCache {
        &self.col.cache[i]
    }

    /// The whole cache column (the oracle's masked scan walks this).
    pub fn caches_col(&self) -> &[LruCache] {
        &self.col.cache
    }

    /// The connected set as bitmap words (bit `i` = client `i` listens).
    /// The last word's tail bits beyond `len()` are zero.
    pub fn connected_words(&self) -> &[u64] {
        &self.connected_bits
    }

    /// Number of cells the population is spread over.
    pub fn cells(&self) -> u32 {
        self.cell_bits.len() as u32
    }

    /// The cell client `i` is currently associated with.
    pub fn cell_of(&self, i: usize) -> u32 {
        self.cell[i]
    }

    /// Cell `c`'s membership as bitmap words (bit `i` = client `i` is
    /// associated with cell `c`). Tail bits beyond `len()` are zero.
    pub fn cell_words(&self, c: u32) -> &[u64] {
        &self.cell_bits[c as usize]
    }

    /// Moves client `i` to cell `dest`, keeping the membership bitmaps
    /// in sync. Re-associating with the current cell is a no-op.
    pub fn handoff(&mut self, i: usize, dest: u32) {
        let from = self.cell[i] as usize;
        let dest_idx = dest as usize;
        assert!(dest_idx < self.cell_bits.len(), "cell {dest} out of range");
        self.cell_bits[from][i / 64] &= !(1u64 << (i % 64));
        self.cell_bits[dest_idx][i / 64] |= 1u64 << (i % 64);
        self.cell[i] = dest;
    }

    /// `true` while client `i` has an unresolved reconnection gap (its
    /// limbo entries await a covering report or verdict). The mobility
    /// process defers handoffs while a gap is open so no in-flight
    /// salvage traffic crosses a cell boundary.
    pub fn has_open_gap(&self, i: usize) -> bool {
        self.col.gap[i].is_some()
    }

    /// Disconnects client `i`, keeping the connected bitmap in sync.
    ///
    /// # Panics
    /// Panics if already disconnected or a query is in flight.
    pub fn disconnect(&mut self, i: usize, now: SimTime) {
        self.connected_bits[i / 64] &= !(1u64 << (i % 64));
        self.client_mut(i).disconnect(now);
    }

    /// Reconnects client `i`, keeping the connected bitmap in sync and
    /// returning the doze period in seconds.
    ///
    /// # Panics
    /// Panics if already connected.
    pub fn reconnect(&mut self, i: usize, now: SimTime) -> f64 {
        self.connected_bits[i / 64] |= 1u64 << (i % 64);
        self.client_mut(i).reconnect(now)
    }

    /// The whole counters column — snapshot samplers sum straight over
    /// this contiguous slice, no per-client cloning.
    pub fn counters_col(&self) -> &[ClientCounters] {
        &self.col.counters
    }

    /// Client `i`'s behaviour counters.
    pub fn counters(&self, i: usize) -> ClientCounters {
        self.col.counters[i]
    }

    /// `true` while client `i` listens to broadcasts.
    pub fn is_connected(&self, i: usize) -> bool {
        self.col.connected[i]
    }

    /// Timestamp of the last report client `i` received.
    pub fn tlb(&self, i: usize) -> SimTime {
        self.col.tlb[i]
    }

    /// `true` while client `i` resolves a query.
    pub fn has_pending_query(&self, i: usize) -> bool {
        self.col.header[i].is_some()
    }

    /// The items of client `i`'s query in flight and how far each has
    /// got; empty when there is none.
    pub fn pending_items(&self, i: usize) -> &[PendingItem] {
        &self.col.pending[i]
    }

    /// The stored quiet flag of client `i`: `true` when a report of any
    /// kind would change nothing of it but its `Tlb`.
    pub fn is_quiet(&self, i: usize) -> bool {
        self.col.quiet[i]
    }

    /// The quiet predicate re-derived from client `i`'s columns; the
    /// stored flag must always equal it.
    pub fn quiet_from_columns(&self, i: usize) -> bool {
        quiet_predicate(
            &self.cfg,
            &self.col.cache[i],
            &self.col.gap[i],
            self.col.reconnect_pending[i],
            &self.col.header[i],
            &self.col.pending[i],
        )
    }

    /// Applies a report broadcast at `at` to every quiet client set in
    /// `words` — which, for a quiet client, is exactly `Tlb ← at` — and
    /// clears their bits, leaving the clients a report can change.
    /// Returns the number of clients stamped.
    pub fn stamp_quiet(&mut self, words: &mut [u64], at: SimTime) -> u64 {
        let mut stamped = 0;
        for (k, word) in words.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let i = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.col.quiet[i] {
                    debug_assert!(self.quiet_from_columns(i), "client {i} flagged quiet");
                    self.col.tlb[i] = at;
                    *word &= !(1u64 << (i % 64));
                    stamped += 1;
                }
            }
        }
        stamped
    }

    /// A mutable accessor view of client `i`.
    pub fn client_mut(&mut self, i: usize) -> ClientMut<'_> {
        self.col.cols(&self.cfg).view(i)
    }

    /// Visits every client whose bit is set in `words` (bit `i` of word
    /// `i / 64` is client `i`) in ascending index order: `visit(i, view)`
    /// gets the client index and a mutable view of that client.
    ///
    /// # Panics
    /// Panics if `words` holds fewer than `self.len().div_ceil(64)`
    /// words.
    pub fn for_each_delivered(
        &mut self,
        words: &[u64],
        mut visit: impl FnMut(usize, ClientMut<'_>),
    ) {
        let len = self.len();
        let mut cols = self.col.cols(&self.cfg);
        for_each_set_bit(words, 0..len, |i| visit(i, cols.reborrow().view(i)));
    }

    /// Issues a query for client `i` referencing `items`.
    ///
    /// # Panics
    /// Panics if a query is already in flight, the client is
    /// disconnected, or `items` is empty.
    pub fn start_query(&mut self, i: usize, now: SimTime, items: &[ItemId]) {
        assert!(self.col.connected[i], "query while disconnected");
        assert!(self.col.header[i].is_none(), "overlapping queries");
        self.col.quiet[i] = false;
        self.col.counters[i].queries_issued += 1;
        self.col.header[i] = Some(QueryHeader::new(now, items, &mut self.col.pending[i]));
    }
}

/// The quiet predicate: a report of any kind can change nothing of the
/// client but its `Tlb`. With an empty cache, no gap and no pending
/// reconnection, every report arm invalidates, revalidates, drops or
/// salvages nothing, and an uncovered window opens and closes a gap in
/// one step; with no query waiting on a report and no retry policy to
/// re-send requests, the query phases emit nothing. `SIG` is never
/// quiet: it stores a baseline on every report.
fn quiet_predicate(
    cfg: &ClientConfig,
    cache: &LruCache,
    gap: &Option<GapState>,
    reconnect_pending: bool,
    header: &Option<QueryHeader>,
    pending: &[PendingItem],
) -> bool {
    cfg.scheme != Scheme::Sig
        && cache.is_empty()
        && gap.is_none()
        && !reconnect_pending
        && header.is_none_or(|_| {
            cfg.retry.is_none() && pending.iter().all(|p| p.state != PendingState::WaitReport)
        })
}

/// Every handler runs through a view, so refreshing the quiet flag when
/// the view goes away keeps it exact on every path.
/// The predicate cannot panic, as `Drop` also runs while a handler
/// unwinds.
impl Drop for ClientMut<'_> {
    fn drop(&mut self) {
        *self.quiet = quiet_predicate(
            self.cfg,
            self.cache,
            self.gap,
            *self.reconnect_pending,
            self.header,
            self.pending,
        );
    }
}

impl ClientMut<'_> {
    /// The shared static configuration.
    pub fn config(&self) -> &ClientConfig {
        self.cfg
    }

    /// Read access to the cache.
    pub fn cache(&self) -> &LruCache {
        self.cache
    }

    /// Behaviour counters.
    pub fn counters(&self) -> ClientCounters {
        *self.counters
    }

    /// `true` while listening to broadcasts.
    pub fn is_connected(&self) -> bool {
        *self.connected
    }

    /// Timestamp of the last report received.
    pub fn tlb(&self) -> SimTime {
        *self.tlb
    }

    /// `true` while a query is being resolved.
    pub fn has_pending_query(&self) -> bool {
        self.header.is_some()
    }

    /// The coverage target: with an open gap, reports must reach back to
    /// the gap start; otherwise to the last report heard.
    fn effective_tlb(&self) -> SimTime {
        self.gap.map_or(*self.tlb, |g| g.since)
    }

    /// Enters doze mode; reached only through [`ClientPop::disconnect`],
    /// which keeps the connected bitmap in sync.
    ///
    /// # Panics
    /// Panics if a query is still in flight (the model only disconnects
    /// between queries).
    fn disconnect(&mut self, now: SimTime) {
        assert!(self.header.is_none(), "disconnect with a query in flight");
        assert!(*self.connected, "already disconnected");
        *self.connected = false;
        *self.disconnected_at = Some(now);
    }

    /// Wakes up from doze mode, returning the length of the doze period
    /// in seconds; reached only through [`ClientPop::reconnect`]. Cache
    /// reconciliation happens at the next broadcast report.
    fn reconnect(&mut self, now: SimTime) -> f64 {
        assert!(!*self.connected, "already connected");
        *self.connected = true;
        *self.reconnect_pending = true;
        self.disconnected_at.take().map_or(0.0, |at| now - at)
    }

    /// Processes a broadcast invalidation report outside a tick fan-out,
    /// appending the resulting actions to `actions` (which is *not*
    /// cleared): decodes a throwaway plan for this client's own
    /// effective `Tlb`, then applies it like the engine does.
    pub fn on_report_into(
        &mut self,
        now: SimTime,
        payload: &ReportPayload,
        actions: &mut Vec<ClientAction>,
    ) {
        let plan = PlanCache::for_report(payload, self.effective_tlb());
        self.on_report_planned(now, payload, &plan, actions, &mut PlanStats::default());
    }

    /// Processes a broadcast invalidation report through `plan`, this
    /// tick's decode of `payload` shared by the whole fan-out, appending
    /// the resulting actions to `actions` (which is *not* cleared).
    ///
    /// The fan-out hot path, allocation-free: stale lists land in a
    /// buffer owned by the client, actions in the caller's. Which plan
    /// arm served the client is tallied in `stats` (not cleared); the
    /// arms yield the same stale set, pinned by the `plan ≡ decide`
    /// proptests and the engine's golden digests.
    pub fn on_report_planned(
        &mut self,
        now: SimTime,
        payload: &ReportPayload,
        plan: &PlanCache,
        actions: &mut Vec<ClientAction>,
        stats: &mut PlanStats,
    ) {
        assert!(*self.connected, "report delivered to a disconnected client");
        self.apply_report(now, payload, plan, actions, stats);
        *self.tlb = payload.broadcast_at();
        self.resolve_query(now, actions);
        self.retry_pending_requests(now, actions);
    }

    /// Whether the word arm beats the per-item arm for this cache: the
    /// word loop is charged `min(|member|, |plan|)` words, an upper bound
    /// (it ANDs only the plan's non-zero words below `|member|`), the
    /// per-item arm probes `|cache|` plan bits.
    fn plan_profitable(plan: &PlanCache, cache: &LruCache) -> bool {
        plan.words().len().min(cache.member_words().len()) <= 8 * cache.len() + 4
    }

    /// Collects the cached items `plan` marks stale into the scratch
    /// buffer through the cheaper arm, and tallies which arm ran. Under
    /// a window plan an item is stale only if its cached version
    /// predates the listed update.
    fn collect_stale(&mut self, plan: &PlanCache, stats: &mut PlanStats) {
        let window = plan.window_active();
        let cache = &*self.cache;
        if Self::plan_profitable(plan, cache) {
            plan.intersect_into(cache.member_words(), self.stale_scratch, |item| {
                !window
                    || cache
                        .peek(item)
                        .is_some_and(|e| e.version < plan.listed_ts(item))
            });
            stats.hits += 1;
        } else {
            for (item, version) in cache.items_iter() {
                let stale = if window {
                    plan.window_stale(item, version)
                } else {
                    plan.contains(item)
                };
                if stale {
                    self.stale_scratch.push(item);
                }
            }
            stats.misses += 1;
        }
    }

    /// Processes a downloaded data item, appending the resulting actions
    /// to `actions` (which is *not* cleared).
    pub fn on_data_into(
        &mut self,
        now: SimTime,
        item: ItemId,
        version: SimTime,
        actions: &mut Vec<ClientAction>,
    ) {
        self.cache.insert(item, version, now);
        if let Some(q) = self.header.as_mut() {
            q.resolve(self.pending, item, PendingState::WaitData, false);
        }
        self.try_finish(now, actions);
    }

    /// Opportunistically caches a data item overheard on the broadcast
    /// downlink (snooping extension). Unlike an addressed delivery this
    /// never touches the pending query — the item was addressed to
    /// someone else. Items already cached and valid are refreshed; items
    /// the client is itself waiting for are left to the addressed
    /// delivery.
    pub fn on_snooped_data(&mut self, now: SimTime, item: ItemId, version: SimTime) {
        // Don't interfere with an in-flight fetch of the same item.
        let awaiting = self
            .pending
            .iter()
            .any(|p| p.item == item && p.state != PendingState::Done);
        if !awaiting {
            self.cache.insert(item, version, now);
        }
    }

    /// Processes a validity report (answer to a check request): `valid`
    /// lists the checked items that are still current as of `asof`.
    /// Appends the resulting actions to `actions` (not cleared).
    pub fn on_validity_into(
        &mut self,
        now: SimTime,
        asof: SimTime,
        valid: &[ItemId],
        actions: &mut Vec<ClientAction>,
    ) {
        let valid_set: HashSet<ItemId> = valid.iter().copied().collect();
        match self.cfg.checking_mode {
            CheckingMode::FullCache => {
                // The check covered the whole cache: every limbo entry
                // gets a verdict.
                let (salvaged, dropped) = self
                    .cache
                    .salvage_limbo(asof, |item| valid_set.contains(&item));
                self.counters.salvaged += salvaged as u64;
                self.counters.limbo_dropped += dropped as u64;
                *self.gap = None;
            }
            CheckingMode::QueriedItems => {
                // Only the pending query's items were checked.
                let checked: Vec<ItemId> = self
                    .pending
                    .iter()
                    .filter(|p| p.state == PendingState::WaitValidity)
                    .map(|p| p.item)
                    .collect();
                for item in checked {
                    let ok = valid_set.contains(&item);
                    if self.cache.salvage_item(item, ok, asof) {
                        if ok {
                            self.counters.salvaged += 1;
                        } else {
                            self.counters.limbo_dropped += 1;
                        }
                    }
                }
                if !self.cache.has_limbo() {
                    *self.gap = None;
                }
            }
        }
        self.resolve_validity_waiters(now, actions);
        self.try_finish(now, actions);
    }

    /// Processes a grouped-checking verdict (answer to a
    /// [`UplinkKind::GroupCheckRequest`]): `stale` lists the checked
    /// groups' items updated since the request's `Tlb`; `covered = false`
    /// means the retention window was exceeded and nothing can be
    /// salvaged. Appends the resulting actions to `actions` (not
    /// cleared).
    pub fn on_group_validity_into(
        &mut self,
        now: SimTime,
        asof: SimTime,
        covered: bool,
        stale: &[ItemId],
        actions: &mut Vec<ClientAction>,
    ) {
        if !covered {
            if !self.cache.is_empty() {
                self.counters.full_drops += 1;
            }
            self.cache.clear();
            *self.gap = None;
        } else {
            // Stale items go regardless of state; surviving limbo
            // entries are vouched for as of the verdict.
            self.cache.invalidate_many(stale.iter().copied());
            let (salvaged, dropped) = self.cache.salvage_limbo(asof, |_| true);
            self.counters.salvaged += salvaged as u64;
            self.counters.limbo_dropped += dropped as u64;
            *self.gap = None;
        }
        self.resolve_validity_waiters(now, actions);
        self.try_finish(now, actions);
    }

    /// Resolve query items that were waiting on a validity/group verdict.
    fn resolve_validity_waiters(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        if let Some(q) = self.header.as_mut() {
            let waiting: Vec<ItemId> = self
                .pending
                .iter()
                .filter(|p| p.state == PendingState::WaitValidity)
                .map(|p| p.item)
                .collect();
            for item in waiting {
                if self.cache.get_valid(item).is_some() {
                    q.resolve(self.pending, item, PendingState::WaitValidity, true);
                } else {
                    q.transition_at(
                        self.pending,
                        item,
                        PendingState::WaitValidity,
                        PendingState::WaitData,
                        now,
                    );
                    actions.push(ClientAction::Uplink(UplinkKind::QueryRequest { item }));
                }
            }
        }
    }

    fn resolve_gap(&mut self) {
        if self.gap.take().is_some() {
            // Whatever is still cached survived the covering report.
            let kept = self.cache.limbo_iter().count();
            self.counters.salvaged += kept as u64;
        }
    }

    fn apply_report(
        &mut self,
        now: SimTime,
        payload: &ReportPayload,
        plan: &PlanCache,
        actions: &mut Vec<ClientAction>,
        stats: &mut PlanStats,
    ) {
        let etlb = self.effective_tlb();
        debug_assert!(self.stale_scratch.is_empty(), "scratch not drained");
        // A report vouches for the database state at its *broadcast* time,
        // not its delivery time — updates can land while the report is on
        // the air, so revalidating "as of delivery" would silently cover
        // them (caught by the consistency oracle).
        let report_asof = payload.broadcast_at();
        // Second disconnection while an earlier gap is still unresolved:
        // entries fetched (and thus vouched) *during* that gap are only
        // vouched up to the last report heard. If this first report after
        // the reconnection does not cover `tlb`, those entries have an
        // unvouched period of their own — fold them into the gap (back to
        // limbo) and re-arm the salvage request. Without this, a valid
        // entry could sail past updates broadcast while the client dozed
        // (caught by the consistency oracle).
        if std::mem::take(self.reconnect_pending) {
            if let Some(gap) = self.gap.as_mut() {
                let covers_tlb = match payload {
                    // BS / AT / SIG reports give a verdict for the whole
                    // missed period by construction.
                    ReportPayload::Window(w) => w.covers(*self.tlb),
                    _ => true,
                };
                if !covers_tlb {
                    self.cache.mark_all_limbo();
                    gap.sent_at = None;
                    // A fresh unvouched period restarts the retry budget.
                    gap.retries = 0;
                }
            }
        }
        match payload {
            ReportPayload::Window(w) => {
                // Provably stale entries always go, covered or not. The
                // window plan is Tlb-independent (listed bitmap + dense
                // timestamps), so every client takes it.
                debug_assert!(plan.window_active(), "window report without its plan");
                self.collect_stale(plan, stats);
                self.cache.invalidate_many(self.stale_scratch.drain(..));
                if w.covers(etlb) {
                    self.resolve_gap();
                    self.cache.revalidate_all(report_asof);
                } else {
                    self.on_uncovered_window(now, payload.broadcast_at(), actions);
                }
            }
            ReportPayload::BitSeq(bs) => {
                // BS staleness is pure prefix membership, so the memo key
                // is the selected prefix length: a client whose `select`
                // lands on the plan's pre-decoded bucket (the dominant
                // Tlb — everyone who heard the previous report; the plan
                // memoizes its selection) reads the plan. Another bucket
                // walks its own marked prefix and tests the membership
                // bitmap — Figure 2's `decide` with the bitmap for its
                // `HashSet`.
                let sel = plan.bs_select(bs, etlb);
                if let BsSelect::Prefix(prefix) = sel {
                    if plan.bs_prefix() == Some(prefix) {
                        self.collect_stale(plan, stats);
                    } else {
                        let cache = &*self.cache;
                        self.stale_scratch
                            .extend(bs.marked(prefix).filter(|&item| cache.is_resident(item)));
                        stats.misses += 1;
                    }
                }
                match sel {
                    BsSelect::Clean => {
                        self.resolve_gap();
                        self.cache.revalidate_all(report_asof);
                    }
                    BsSelect::DropAll => {
                        *self.gap = None;
                        if !self.cache.is_empty() {
                            self.counters.full_drops += 1;
                        }
                        self.cache.clear();
                    }
                    BsSelect::Prefix(_) => {
                        self.cache.invalidate_many(self.stale_scratch.drain(..));
                        self.resolve_gap();
                        self.cache.revalidate_all(report_asof);
                    }
                }
            }
            ReportPayload::At(at) => {
                // The AT listed-item bitmap is Tlb-independent; coverage
                // stays a scalar check (an uncovered client drops its
                // whole cache without touching the plan).
                if at.covers(etlb) {
                    debug_assert!(plan.at_active(), "AT report without its plan");
                    self.collect_stale(plan, stats);
                    self.cache.invalidate_many(self.stale_scratch.drain(..));
                    self.resolve_gap();
                    self.cache.revalidate_all(report_asof);
                } else {
                    // Amnesic: nothing to salvage, ever.
                    *self.gap = None;
                    if !self.cache.is_empty() {
                        self.counters.full_drops += 1;
                    }
                    self.cache.clear();
                }
            }
            ReportPayload::Sig(sig, signer) => {
                let cached = self.cache.items_iter().map(|(i, _)| i);
                let baseline = self.sig_baseline.as_ref().and_then(|b| b.as_deref());
                match sig.decide(signer, baseline, cached) {
                    SigDecision::NoBaseline => {
                        *self.gap = None;
                        if !self.cache.is_empty() {
                            self.counters.full_drops += 1;
                            self.cache.clear();
                        }
                    }
                    SigDecision::Invalidate(flagged) => {
                        self.cache.invalidate_many(flagged);
                        self.resolve_gap();
                        self.cache.revalidate_all(report_asof);
                    }
                }
                let slot = self
                    .sig_baseline
                    .as_mut()
                    .expect("SIG column materialized for the SIG scheme");
                **slot = Some(sig.combined.clone());
            }
        }
    }

    /// How long after an uplinked `Tlb`/check the client keeps waiting
    /// for a covering report before concluding the request (or its
    /// reply) was lost. Legacy behaviour is a fixed two periods; a
    /// fault-injection `RetryPolicy` doubles the wait per retry up to
    /// its cap.
    fn gap_grace_secs(cfg: &ClientConfig, retries: u32) -> f64 {
        let intervals = match cfg.retry {
            None => 2.0,
            Some(p) => f64::from(p.timeout_intervals_for(retries)),
        };
        intervals * cfg.broadcast_period_secs
    }

    /// The retry budget ran out: paper-faithful graceful degradation —
    /// drop the whole cache and start cold, closing the gap.
    fn degrade_exhausted(&mut self) {
        self.counters.backoff_exhaustions += 1;
        if !self.cache.is_empty() {
            self.counters.full_drops += 1;
        }
        self.cache.clear();
        *self.gap = None;
    }

    /// Opens a gap if none is open (sending the cache to limbo), then
    /// runs the lost-reply re-arm timer of its salvage request against a
    /// report built at `built_at`. With no request out, one goes up.
    /// With one out, the client waits [`Self::gap_grace_secs`] for a
    /// covering report; once that lapses the request or its reply was
    /// lost (e.g. the client dozed off while the reply was in flight),
    /// so the request is re-sent, or the client gives up or degrades.
    fn rearm(&mut self, built_at: SimTime) -> Rearm {
        if self.gap.is_none() && !self.cache.is_empty() {
            self.cache.mark_all_limbo();
            self.counters.limbo_episodes += 1;
        }
        let since = *self.tlb;
        let gap = self.gap.get_or_insert(GapState {
            since,
            sent_at: None,
            retries: 0,
        });
        let Some(sent_at) = gap.sent_at else {
            return Rearm::Resend {
                gap: *gap,
                retried: false,
            };
        };
        if built_at.as_secs() < sent_at.as_secs() + Self::gap_grace_secs(self.cfg, gap.retries) {
            return Rearm::Waiting;
        }
        match self.cfg.retry {
            None if matches!(self.cfg.scheme, Scheme::Afw | Scheme::Aaw) => Rearm::GiveUp,
            // Legacy: a checking client sends its check again.
            None => Rearm::Resend {
                gap: *gap,
                retried: false,
            },
            Some(p) if gap.retries >= p.max_retries => Rearm::Exhausted,
            Some(_) => {
                gap.retries += 1;
                Rearm::Resend {
                    gap: *gap,
                    retried: true,
                }
            }
        }
    }

    /// Puts a gap's salvage request on the uplink and restarts the gap's
    /// re-arm timer.
    fn send_salvage(
        &mut self,
        now: SimTime,
        gap: GapState,
        retried: bool,
        request: UplinkKind,
        actions: &mut Vec<ClientAction>,
    ) {
        if matches!(request, UplinkKind::TlbReport { .. }) {
            self.counters.tlbs_sent += 1;
        } else {
            self.counters.checks_sent += 1;
        }
        self.counters.retries_sent += u64::from(retried);
        *self.gap = Some(GapState {
            sent_at: Some(now),
            ..gap
        });
        actions.push(ClientAction::Uplink(request));
    }

    /// A window report arrived that does not reach back to the gap —
    /// the scheme-defining moment (see the crate docs table).
    fn on_uncovered_window(
        &mut self,
        now: SimTime,
        report_built_at: SimTime,
        actions: &mut Vec<ClientAction>,
    ) {
        match self.cfg.scheme {
            Scheme::TsNoCheck => {
                // Figure 1: drop the entire cache.
                if !self.cache.is_empty() {
                    self.counters.full_drops += 1;
                }
                self.cache.clear();
                *self.gap = None;
            }
            Scheme::Gcore | Scheme::SimpleChecking => {
                match self.rearm(report_built_at) {
                    Rearm::Resend { gap, retried } if !self.cache.is_empty() => {
                        let request = match self.cfg.scheme {
                            // One (group, Tlb) record per cached group —
                            // the whole point of grouping: the uplink
                            // scales with the number of groups touched,
                            // not the cache size.
                            Scheme::Gcore => {
                                let mut groups: Vec<(u32, f64)> = self
                                    .cache
                                    .items_iter()
                                    .map(|(item, _)| item.0 % self.cfg.gcore_groups)
                                    .collect::<std::collections::BTreeSet<u32>>()
                                    .into_iter()
                                    .map(|g| (g, gap.since.as_secs()))
                                    .collect();
                                groups.sort_unstable_by_key(|&(g, _)| g);
                                Some(UplinkKind::GroupCheckRequest { groups })
                            }
                            _ if self.cfg.checking_mode == CheckingMode::FullCache => {
                                let entries: Vec<(ItemId, f64)> = self
                                    .cache
                                    .items_iter()
                                    .map(|(i, v)| (i, v.as_secs()))
                                    .collect();
                                Some(UplinkKind::CheckRequest { entries })
                            }
                            // Lazy checking: queries check their own
                            // items (`resolve_query`).
                            _ => None,
                        };
                        if let Some(request) = request {
                            self.send_salvage(now, gap, retried, request, actions);
                        }
                    }
                    Rearm::Exhausted => self.degrade_exhausted(),
                    Rearm::Resend { .. } | Rearm::Waiting | Rearm::GiveUp => {}
                }
                if self.cache.is_empty() {
                    // Nothing to salvage; the gap is moot.
                    *self.gap = None;
                }
            }
            Scheme::Afw | Scheme::Aaw => match self.rearm(report_built_at) {
                Rearm::Waiting => {}
                Rearm::Resend { retried: false, .. } if self.cache.is_empty() => *self.gap = None,
                // The first Tlb, or a re-send: under fault injection an
                // uncovering report past the grace may mean the Tlb was
                // *lost* on the uplink, so the policy re-sends it
                // (idempotent at the server) with capped exponential
                // backoff before degrading.
                Rearm::Resend { gap, retried } => {
                    let request = UplinkKind::TlbReport {
                        tlb_secs: gap.since.as_secs(),
                    };
                    self.send_salvage(now, gap, retried, request, actions);
                }
                // Legacy: give up once a report built comfortably after
                // our Tlb reached the server still does not cover us —
                // the server judged BS unable to help (our Tlb predates
                // TS(B_n)), so the limbo entries are unsalvageable.
                Rearm::GiveUp => {
                    let dropped = self.cache.drop_limbo();
                    self.counters.limbo_dropped += dropped as u64;
                    *self.gap = None;
                }
                Rearm::Exhausted => self.degrade_exhausted(),
            },
            // BS / AT / SIG clients never receive window reports.
            other => panic!("window report under scheme {other:?}"),
        }
    }

    /// After the cache has been reconciled with a report, move the
    /// pending query forward.
    fn resolve_query(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        let Some(q) = self.header.as_mut() else {
            return;
        };
        let mut check_entries: Vec<(ItemId, f64)> = Vec::new();
        let waiting: Vec<ItemId> = self
            .pending
            .iter()
            .filter(|p| p.state == PendingState::WaitReport)
            .map(|p| p.item)
            .collect();
        for item in waiting {
            if self.cache.get_valid(item).is_some() {
                q.resolve(self.pending, item, PendingState::WaitReport, true);
                continue;
            }
            let limbo = self
                .cache
                .peek(item)
                .filter(|e| e.state == EntryState::Limbo);
            if let Some(entry) =
                limbo.filter(|_| matches!(self.cfg.scheme, Scheme::SimpleChecking | Scheme::Gcore))
            {
                // A verdict is (or will be) on its way: under FullCache
                // the gap check already covers this item; under
                // QueriedItems we check it now, targeted.
                if self.cfg.checking_mode == CheckingMode::QueriedItems {
                    check_entries.push((item, entry.version.as_secs()));
                }
                q.transition_at(
                    self.pending,
                    item,
                    PendingState::WaitReport,
                    PendingState::WaitValidity,
                    now,
                );
            } else {
                // Absent, or limbo under a scheme that fetches fresh.
                q.transition_at(
                    self.pending,
                    item,
                    PendingState::WaitReport,
                    PendingState::WaitData,
                    now,
                );
                actions.push(ClientAction::Uplink(UplinkKind::QueryRequest { item }));
            }
        }
        if !check_entries.is_empty() {
            actions.push(ClientAction::Uplink(UplinkKind::CheckRequest {
                entries: check_entries,
            }));
            self.counters.checks_sent += 1;
        }
        self.try_finish(now, actions);
    }

    /// Fault-injection safety net for per-item requests: a data request
    /// (or validity check) whose uplink or reply was lost would park the
    /// query forever. With a `RetryPolicy` configured, re-send after
    /// the backoff schedule's wait; a stuck validity wait falls back to
    /// fetching fresh data, which is always safe. At most one re-send
    /// per item per report keeps the retry traffic bounded by the
    /// broadcast clock. Requests are re-sent even past `max_retries`
    /// (at the capped interval): dropping the cache cannot answer a
    /// query, so the repeat request is the only route forward and it
    /// terminates once the channel heals or the server recovers.
    fn retry_pending_requests(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        let Some(policy) = self.cfg.retry else { return };
        let l = self.cfg.broadcast_period_secs;
        for p in self.pending.iter_mut() {
            let Some(at) = p.requested_at else { continue };
            let wait = f64::from(policy.timeout_intervals_for(p.retries)) * l;
            if now.as_secs() < at.as_secs() + wait {
                continue;
            }
            match p.state {
                PendingState::WaitData | PendingState::WaitValidity => {
                    p.state = PendingState::WaitData;
                    p.requested_at = Some(now);
                    p.retries = p.retries.saturating_add(1);
                    actions.push(ClientAction::Uplink(UplinkKind::QueryRequest {
                        item: p.item,
                    }));
                    self.counters.retries_sent += 1;
                }
                PendingState::WaitReport | PendingState::Done => {}
            }
        }
    }

    fn try_finish(&mut self, now: SimTime, actions: &mut Vec<ClientAction>) {
        let pending = &mut *self.pending;
        if let Some(q) = self.header.take_if(|q| q.is_complete(pending)) {
            let outcome = q.outcome(pending, now);
            pending.clear();
            self.counters.queries_answered += 1;
            self.counters.item_hits += outcome.hits as u64;
            self.counters.item_misses += outcome.misses as u64;
            actions.push(ClientAction::QueryDone(outcome));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicache_reports::WindowReport;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn cfg(scheme: Scheme) -> ClientConfig {
        ClientConfig {
            scheme,
            checking_mode: CheckingMode::FullCache,
            cache_capacity: 8,
            broadcast_period_secs: 20.0,
            gcore_groups: 4,
            retry: None,
        }
    }

    fn window(at: f64, wstart: f64, records: Vec<(u32, f64)>) -> ReportPayload {
        ReportPayload::Window(WindowReport {
            broadcast_at: t(at),
            window_start: t(wstart),
            records: records
                .into_iter()
                .map(|(i, ts)| (ItemId(i), t(ts)))
                .collect(),
            dummy: None,
        })
    }

    /// One scripted step applied identically to a member of a population
    /// and to a population of one.
    #[derive(Clone)]
    enum Step {
        Query(Vec<u32>),
        Report(ReportPayload),
        Data(u32, f64),
        Snoop(u32, f64),
        Disconnect,
        Reconnect,
        Validity(Vec<u32>),
    }

    /// Applies `step` to client `i` of `pop` at `clock` and returns the
    /// actions it emitted. Dozing and waking go through the pop-level
    /// calls, the only ones that keep the connected bitmap in sync.
    fn apply(pop: &mut ClientPop, i: usize, step: &Step, clock: f64) -> Vec<ClientAction> {
        let now = t(clock);
        let ids = |items: &[u32]| items.iter().map(|&x| ItemId(x)).collect::<Vec<_>>();
        let mut actions = Vec::new();
        match step {
            Step::Query(items) => pop.start_query(i, now, &ids(items)),
            Step::Report(payload) => pop.client_mut(i).on_report_into(now, payload, &mut actions),
            Step::Data(item, v) => {
                pop.client_mut(i)
                    .on_data_into(now, ItemId(*item), t(*v), &mut actions);
            }
            Step::Snoop(item, v) => pop.client_mut(i).on_snooped_data(now, ItemId(*item), t(*v)),
            Step::Disconnect => pop.disconnect(i, now),
            Step::Reconnect => {
                pop.reconnect(i, now);
            }
            Step::Validity(valid) => {
                pop.client_mut(i)
                    .on_validity_into(now, t(clock - 0.5), &ids(valid), &mut actions);
            }
        }
        actions
    }

    /// The connected bitmap mirrors the connected column.
    fn assert_bitmap_mirrors(pop: &ClientPop) {
        for i in 0..pop.len() {
            let bit = pop.connected_words()[i / 64] & (1 << (i % 64)) != 0;
            assert_eq!(bit, pop.is_connected(i), "client {i}");
        }
    }

    /// An N-client population must be observationally identical to N
    /// one-client populations running the same scripts: same actions,
    /// same counters, same cache contents, and a connected bitmap that
    /// tracks every doze and wake. This pins the per-client column
    /// bookkeeping (neighbours never clobbered).
    #[test]
    fn population_matches_independent_clients() {
        let schemes = [Scheme::SimpleChecking, Scheme::Afw, Scheme::Gcore];
        for scheme in schemes {
            let scripts: Vec<Vec<Step>> = vec![
                vec![
                    Step::Query(vec![3]),
                    Step::Report(window(20.0, -180.0, vec![])),
                    Step::Data(3, 0.0),
                    Step::Query(vec![3, 4, 5]),
                    Step::Report(window(40.0, -160.0, vec![])),
                    Step::Data(4, 0.0),
                    Step::Data(5, 0.0),
                ],
                vec![
                    Step::Query(vec![7]),
                    Step::Report(window(20.0, -180.0, vec![])),
                    Step::Data(7, 0.0),
                    Step::Disconnect,
                    Step::Reconnect,
                    Step::Report(window(800.0, 600.0, vec![])),
                    Step::Validity(vec![7]),
                ],
                vec![
                    Step::Snoop(9, 5.0),
                    Step::Query(vec![9, 11]),
                    Step::Report(window(20.0, -180.0, vec![(11, 10.0)])),
                    Step::Data(11, 10.0),
                ],
            ];
            let n = scripts.len();
            let mut pop = ClientPop::new(cfg(scheme), n);
            let mut solo: Vec<ClientPop> = (0..n).map(|_| ClientPop::new(cfg(scheme), 1)).collect();
            let mut clock = 0.0;
            for step_idx in 0..scripts.iter().map(Vec::len).max().unwrap() {
                for (i, script) in scripts.iter().enumerate() {
                    let Some(step) = script.get(step_idx) else {
                        continue;
                    };
                    clock += 1.0;
                    let pop_actions = apply(&mut pop, i, step, clock);
                    let solo_actions = apply(&mut solo[i], 0, step, clock);
                    assert_eq!(pop_actions, solo_actions, "{scheme:?} client {i}");
                    assert_bitmap_mirrors(&pop);
                    assert_bitmap_mirrors(&solo[i]);
                }
            }
            for (i, solo_client) in solo.iter().enumerate() {
                assert_eq!(
                    pop.counters(i),
                    solo_client.counters(0),
                    "{scheme:?} client {i}"
                );
                let mut a: Vec<(ItemId, SimTime)> = pop.cache(i).items_iter().collect();
                let mut b: Vec<(ItemId, SimTime)> = solo_client.cache(0).items_iter().collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{scheme:?} client {i} cache diverged");
            }
        }
    }

    /// A client's pending column grows once, for its largest query, and
    /// a shorter later query reuses that capacity; neighbours keep their
    /// own items throughout.
    #[test]
    fn pending_column_grows_once_and_is_reused() {
        let mut pop = ClientPop::new(cfg(Scheme::Bs), 3);
        let items: Vec<ItemId> = (0..9).map(ItemId).collect();
        let prep = ReportPayload::BitSeq(mobicache_reports::BitSequences::from_recency(
            t(20.0),
            64,
            vec![],
        ));
        let mut acts = Vec::new();
        let mut answer = |pop: &mut ClientPop, at: f64, n: u32| {
            pop.client_mut(1).on_report_into(t(at), &prep, &mut acts);
            for k in 0..n {
                pop.client_mut(1)
                    .on_data_into(t(at + 1.0), ItemId(k), SimTime::ZERO, &mut acts);
            }
            assert!(!pop.has_pending_query(1));
            assert!(pop.pending_items(1).is_empty(), "emptied on completion");
        };
        pop.start_query(0, t(1.0), &items[..2]);
        pop.start_query(1, t(1.0), &items[..5]);
        assert_eq!(pop.pending_items(1).len(), 5);
        let small = pop.col.pending[1].capacity();
        answer(&mut pop, 20.0, 5);
        pop.start_query(1, t(25.0), &items);
        let grown = pop.col.pending[1].capacity();
        assert!(grown >= 9 && grown > small, "column grew");
        answer(&mut pop, 40.0, 9);
        pop.start_query(1, t(45.0), &items[..3]);
        assert_eq!(pop.pending_items(1).len(), 3);
        assert_eq!(pop.col.pending[1].capacity(), grown, "capacity reused");
        // Client 0 still tracks its own two items.
        assert!(pop.has_pending_query(0));
        assert_eq!(
            pop.pending_items(0)
                .iter()
                .map(|p| p.item)
                .collect::<Vec<_>>(),
            items[..2]
        );
    }

    /// The connected bitmap mirrors the bool column through the
    /// pop-level disconnect/reconnect wrappers, with tail bits zero.
    #[test]
    fn connected_bitmap_mirrors_column() {
        let n = 70; // crosses a word boundary
        let mut pop = ClientPop::new(cfg(Scheme::Aaw), n);
        let check = |pop: &ClientPop| {
            for i in 0..n {
                let bit = pop.connected_words()[i / 64] & (1 << (i % 64)) != 0;
                assert_eq!(bit, pop.is_connected(i), "client {i}");
            }
            let tail: u32 = pop.connected_words()[n / 64].count_ones();
            assert!(tail as usize <= n % 64, "tail bits beyond len set");
        };
        check(&pop);
        pop.disconnect(3, t(1.0));
        pop.disconnect(64, t(1.0));
        pop.disconnect(69, t(1.0));
        check(&pop);
        assert!(!pop.is_connected(64));
        pop.reconnect(64, t(5.0));
        check(&pop);
        assert!(pop.is_connected(64));
    }

    /// Cell membership bitmaps mirror the cell column through the
    /// `handoff` wrapper; exactly one cell owns each client.
    #[test]
    fn cell_bitmaps_mirror_column() {
        let n = 70; // crosses a word boundary
        let cells = 3;
        let mut pop = ClientPop::with_cells(cfg(Scheme::Aaw), n, cells);
        let check = |pop: &ClientPop| {
            for i in 0..n {
                let owner = pop.cell_of(i);
                for c in 0..cells {
                    let bit = pop.cell_words(c)[i / 64] & (1 << (i % 64)) != 0;
                    assert_eq!(bit, c == owner, "client {i} cell {c}");
                }
            }
            for c in 0..cells {
                let tail = pop.cell_words(c)[n / 64] >> (n % 64);
                assert_eq!(tail, 0, "tail bits beyond len set in cell {c}");
            }
        };
        check(&pop);
        assert_eq!(pop.cell_of(0), 0);
        assert_eq!(pop.cell_of(1), 1);
        assert_eq!(pop.cell_of(5), 2);
        pop.handoff(0, 2);
        pop.handoff(64, 0);
        pop.handoff(69, 1);
        check(&pop);
        assert_eq!(pop.cell_of(0), 2);
        // Re-associating with the current cell is a no-op.
        pop.handoff(0, 2);
        check(&pop);
        // The legacy constructor is the single-cell special case: the
        // one membership bitmap equals the initial connected bitmap.
        let single = ClientPop::new(cfg(Scheme::Aaw), n);
        assert_eq!(single.cells(), 1);
        assert_eq!(single.cell_words(0), single.connected_words());
    }

    /// The masked walk visits exactly the masked clients, in index
    /// order, and leaves every client in the state a `client_mut` loop
    /// leaves it, over a mask that skips clients.
    #[test]
    fn for_each_delivered_matches_serial_views() {
        let n: usize = 200;
        let payload = window(20.0, -180.0, vec![]);
        let words: Vec<u64> = {
            let mut w = vec![0u64; n.div_ceil(64)];
            for i in (0..n).filter(|i| i % 3 != 1 && !(70..140).contains(i)) {
                w[i / 64] |= 1 << (i % 64);
            }
            w
        };
        let fresh = || {
            let mut pop = ClientPop::new(cfg(Scheme::SimpleChecking), n);
            for i in 0..n {
                pop.start_query(i, t(1.0), &[ItemId(i as u32)]);
            }
            pop
        };
        let mut serial_pop = fresh();
        let mut serial = Vec::new();
        for i in 0..n {
            if words[i / 64] & (1 << (i % 64)) != 0 {
                let mut acts = Vec::new();
                serial_pop
                    .client_mut(i)
                    .on_report_into(t(20.0), &payload, &mut acts);
                serial.push((i, acts));
            }
        }
        let mut pop = fresh();
        let mut walked = Vec::new();
        pop.for_each_delivered(&words, |i, mut client| {
            let mut acts = Vec::new();
            client.on_report_into(t(20.0), &payload, &mut acts);
            walked.push((i, acts));
        });
        assert_eq!(walked, serial);
        assert_eq!(pop.counters_col(), serial_pop.counters_col());
        assert_eq!(pop.col.tlb, serial_pop.col.tlb);
    }
}
