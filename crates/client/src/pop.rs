//! The struct-of-arrays client population.
//!
//! A cell serves thousands to millions of mobile hosts, and the
//! engine's report fan-out walks only the clients a broadcast can
//! change. A *vouched* client (see [`ClientPop::stamp`]) only takes the
//! new `Tlb` and has its cache revalidated as of the broadcast, and
//! costs the tick nothing per client: its bit in the `stamped` bitmap
//! marks it, and its `Tlb` and its cache's vouch time are its cell's
//! broadcast epoch until something reads or changes them. The clients a
//! report can change are found through an item → holders index
//! ([`crate::holders`]). Scattering per-client state across
//! individually boxed client structs makes the walk of the rest a
//! pointer chase; [`ClientPop`] instead keeps one column per field —
//! disconnect epoch, last-report time, cache, gap/retry state, pending
//! query — so the walk scans contiguous columns.
//!
//! A client holds only what differs per client. The behaviour counters,
//! which are only ever summed, and the stale-item scratch, which every
//! report handler drains before it returns, are one population-wide
//! value each that every view borrows: handlers run one at a time.
//!
//! The columns are declared once, in `client_columns!`. That one list
//! gives the population its `Vec` fields and [`ClientMut`] its
//! per-client `&mut` cells. The state-machine handlers are written
//! once, against [`ClientMut`], so the scheme logic never sees column
//! indices. Every view is built by [`ClientPop::client_mut`], which the
//! engine calls once per client a message reaches, in client-index
//! order within a broadcast.
//!
//! Per-scheme column groups are materialized only for the active
//! scheme: the `SIG` baseline column exists only when the population
//! runs [`Scheme::Sig`], so the other seven schemes pay nothing for it.
//! A baseline is the shared buffer of the last report its client heard,
//! never a per-client copy.
//! Likewise the retry deadlines exist only under a retry policy, so
//! fault-free runs carry no retry column.

use crate::holders::{HeldCache, Holders};
use crate::machine::{ClientAction, ClientConfig, ClientCounters};
use crate::query::{PendingItem, PendingItems, PendingState, QueryHeader};
use mobicache_cache::{CacheEntry, EntryState, LruCache};
use mobicache_model::{CheckingMode, ItemId, Scheme, UplinkKind};
use mobicache_reports::{BsSelect, PlanCache, PlanStats, ReportPayload};
use mobicache_sim::bits::for_each_set_bit;
use mobicache_sim::SimTime;
use std::sync::Arc;

/// A client's stored combined signatures: the buffer of the last `SIG`
/// report it heard (`None` before the first).
type Baseline = Option<Arc<[u64]>>;

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
/// fresh client (`$cfg` names the shared configuration there) and a
/// `&mut Type` field of [`ClientMut`]. The rest is written out beside
/// the list: the cache handle column with the shared empty body, the
/// body arena and the holders index, viewed as one [`HeldCache`] that
/// keeps the index in step; the vouch bitmap, whose
/// view is one bit of a shared word; the retry deadlines, materialized
/// only under a retry policy; the SIG baseline, materialized only
/// under [`Scheme::Sig`]; and the population-wide counters and stale
/// scratch, which every view borrows whole.
macro_rules! client_columns {
    ($cfg:ident => $( $(#[$doc:meta])* $col:ident: $ty:ty = $init:expr, )*) => {
        /// Bytes a client costs in the listed columns.
        const LISTED_BYTES: usize = 0 $( + std::mem::size_of::<$ty>() )*;

        /// Every per-client column, indexed by client, and the
        /// population-wide state the views share.
        struct Columns {
            $( $(#[$doc])* $col: Vec<$ty>, )*
            /// The client's cache handle: 0 for `empty` until its first
            /// insert gives it a body of its own, then `h` for
            /// `bodies[h - 1]`.
            body: Vec<u32>,
            /// The shared empty body of every client that has never
            /// cached an item. Nothing writes it.
            empty: LruCache,
            /// One body per client that ever cached an item, in the
            /// order of their first inserts. Mutated only through a
            /// view's [`HeldCache`], or revalidated by
            /// `ClientPop::materialize`.
            bodies: Vec<LruCache>,
            /// Item → the clients whose cache holds it.
            holders: Holders,
            /// The behaviour counters, summed over every client.
            counters: ClientCounters,
            /// Stale items found while applying a report, drained before
            /// the handler returns.
            stale_scratch: Vec<ItemId>,
            /// Bit `i` set iff client `i` is vouchable (see
            /// `vouch_predicate`): a report that covers its `Tlb`, and
            /// finds any retry it has armed not yet due, changes it
            /// beyond `Tlb` and the cache's vouch time only through the
            /// items the report marks. Recomputed only by `ClientMut`'s
            /// `Drop`, and cleared by [`ClientPop::start_query`]. Tail
            /// bits beyond `len()` are zero.
            vouch: Vec<u64>,
            /// Client `i`'s earliest retry deadline, in seconds (see
            /// `earliest_deadline`), or infinity while it has no request
            /// out. Recomputed only by `ClientMut`'s `Drop`: a client
            /// with no query has no request out, so
            /// [`ClientPop::start_query`] finds it infinite. `None`
            /// unless the configuration has a retry policy.
            deadline: Option<Vec<f64>>,
            /// Stored combined signatures; `None` unless the scheme is
            /// [`Scheme::Sig`]. A stamped client's lives in its cell's
            /// epoch signatures until `ClientPop::materialize`.
            sig_baseline: Option<Vec<Baseline>>,
        }

        impl Columns {
            /// The columns of `n` fresh clients.
            fn new($cfg: &ClientConfig, n: usize) -> Self {
                Columns {
                    $( $col: (0..n).map(|_| $init).collect(), )*
                    body: vec![0; n],
                    empty: LruCache::new($cfg.cache_capacity),
                    bodies: Vec::new(),
                    holders: Holders::new(),
                    counters: ClientCounters::default(),
                    stale_scratch: Vec::new(),
                    // A fresh client is vouchable unless it needs a
                    // baseline it has not heard yet.
                    vouch: match $cfg.scheme {
                        Scheme::Sig => vec![0; n.div_ceil(64)],
                        _ => ones(n),
                    },
                    deadline: $cfg.retry.is_some().then(|| vec![f64::INFINITY; n]),
                    sig_baseline: ($cfg.scheme == Scheme::Sig).then(|| vec![None; n]),
                }
            }

            /// The view of client `i`: the one place a [`ClientMut`] is
            /// built.
            #[inline(always)]
            fn view<'a>(&'a mut self, cfg: &'a ClientConfig, i: usize) -> ClientMut<'a> {
                ClientMut {
                    cfg,
                    $( $col: &mut self.$col[i], )*
                    cache: HeldCache::new(
                        &mut self.body[i],
                        &mut self.bodies,
                        &mut self.empty,
                        &mut self.holders,
                        i,
                    ),
                    counters: &mut self.counters,
                    stale_scratch: &mut self.stale_scratch,
                    vouch: (&mut self.vouch[i / 64], 1 << (i % 64)),
                    deadline: self.deadline.as_mut().map(|col| &mut col[i]),
                    sig_baseline: self.sig_baseline.as_mut().map(|col| &mut col[i]),
                }
            }
        }

        /// A mutable per-client accessor view: one `&mut` per column cell,
        /// so the scheme handlers read like a self-contained client while
        /// the state lives in the population columns.
        pub struct ClientMut<'a> {
            cfg: &'a ClientConfig,
            $( $col: &'a mut $ty, )*
            /// The client's cache and the holders index.
            cache: HeldCache<'a>,
            /// The population's counters.
            counters: &'a mut ClientCounters,
            /// The population's stale scratch, empty between handlers.
            stale_scratch: &'a mut Vec<ItemId>,
            /// The client's word of the vouch bitmap, and its bit there.
            vouch: (&'a mut u64, u64),
            /// The client's retry deadline; `None` unless the population
            /// materialized the column.
            deadline: Option<&'a mut f64>,
            /// `None` unless the population materialized the SIG column.
            sig_baseline: Option<&'a mut Baseline>,
        }
    };
}

client_columns! {
    cfg =>
    /// Timestamp of the last report received.
    tlb: SimTime = SimTime::ZERO,
    /// Reconnected, and no report has been applied since.
    reconnect_pending: bool = false,
    /// When the current doze began; `None` while listening to
    /// broadcasts.
    disconnected_at: Option<SimTime> = None,
    /// The open reconnection gap, if any.
    gap: Option<GapState> = None,
    /// The per-query scalars of the query in flight, if any.
    header: Option<QueryHeader> = None,
    /// The query in flight's items, empty when there is none: one item
    /// inline, more in a `Vec` that keeps its capacity across queries.
    pending: PendingItems = PendingItems::default(),
}

/// A bitmap of `n` set bits, tail bits zero.
fn ones(n: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << (n % 64)) - 1;
        }
    }
    words
}

/// A struct-of-arrays population of mobile clients.
///
/// All clients share one [`ClientConfig`]; per-client state lives in
/// parallel columns indexed by `ClientId::index()`. Mutating access
/// to one client goes through [`ClientPop::client_mut`].
pub struct ClientPop {
    cfg: ClientConfig,
    col: Columns,
    /// Dense mirror of the `disconnected_at` column: bit `i` set iff
    /// client `i` listens (its `disconnected_at` is `None`). The fan-out
    /// copies this as its delivery-mask seed, so the walk skips 64
    /// disconnected clients per zero word instead of branching each. Maintained only by [`ClientPop::disconnect`] and
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
    /// Each cell's broadcast epoch: the broadcast time of the last
    /// report [`ClientPop::stamp`] handed out there.
    epoch: Vec<SimTime>,
    /// Each cell's epoch signatures: the combined signatures of the
    /// `SIG` report [`ClientPop::stamp`] last handed out there (`None`
    /// before the first, and under every other scheme).
    sig_epoch: Vec<Baseline>,
    /// Bit `i` set iff client `i` is *vouched*: its `Tlb` is its cell's
    /// epoch rather than its `tlb` cell, its cache is revalidated as of
    /// that epoch (a pending [`LruCache::revalidate_all`]), and under
    /// `SIG` its baseline is the cell's epoch signatures. The stamp
    /// sets it for every vouched listener in one word operation. A
    /// stamped client is vouchable and connected, and it is
    /// *materialized* (the epoch written into its `tlb` cell, its cache
    /// revalidated, its baseline stored, the bit cleared) before
    /// anything reads those cells or can change the client: when a view
    /// is built, in [`ClientPop::start_query`], at a handoff, and when
    /// its cell broadcasts a report that does not stamp it again.
    stamped: Vec<u64>,
    /// The stamp's scratch: the holders of the items a report marks.
    held: Vec<u64>,
}

impl ClientPop {
    /// Bytes every client costs whatever the scheme and faults: the
    /// listed columns and the cache handle. A client that caches pays
    /// for its body besides, the [`LruCache`] header and its contents.
    pub const CLIENT_BYTES: usize = LISTED_BYTES + std::mem::size_of::<u32>();

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
            connected_bits: ones(n),
            cell,
            cell_bits,
            epoch: vec![SimTime::ZERO; cells as usize],
            sig_epoch: vec![None; cells as usize],
            stamped: vec![0; words],
            held: Vec::new(),
            cfg,
        }
    }

    /// Number of clients in the population.
    pub fn len(&self) -> usize {
        self.col.body.len()
    }

    /// `true` for the empty population.
    pub fn is_empty(&self) -> bool {
        self.col.body.is_empty()
    }

    /// The shared static configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Read access to client `i`'s cache as last written. A stamped
    /// client's cache lacks its pending revalidation: read its entries
    /// through [`ClientPop::entries`].
    pub fn cache(&self, i: usize) -> &LruCache {
        match self.col.body[i] {
            0 => &self.col.empty,
            h => &self.col.bodies[h as usize - 1],
        }
    }

    /// Cache bodies in the population's arena, the shared empty one
    /// included: one more than the number of clients that ever cached
    /// an item.
    pub fn cache_bodies(&self) -> usize {
        1 + self.col.bodies.len()
    }

    /// Client `i`'s cache entries with their effective state, reading
    /// through the stamp: a stamped client's entries are valid as of
    /// its cell's epoch, exactly as its pending `revalidate_all` will
    /// leave them (nothing writes its cache before that).
    pub fn entries(&self, i: usize) -> impl Iterator<Item = (ItemId, CacheEntry)> + '_ {
        let vouched_at = bit(&self.stamped, i).then(|| self.epoch[self.cell[i] as usize]);
        self.cache(i)
            .entries_iter()
            .map(move |(item, entry)| match vouched_at {
                Some(at) => (
                    item,
                    CacheEntry {
                        validated_at: at,
                        state: EntryState::Valid,
                        ..entry
                    },
                ),
                None => (item, entry),
            })
    }

    /// The clients whose cache holds `item`, in any state.
    pub fn holders_of(&self, item: ItemId) -> Vec<usize> {
        let mut out = Vec::new();
        self.col.holders.for_each(item, |c| out.push(c));
        out
    }

    /// Nodes of the holders index, live and free: never more than the
    /// peak number of cached entries across the population.
    pub fn holders_arena_len(&self) -> usize {
        self.col.holders.arena_len()
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
        self.materialize(i);
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

    /// The behaviour counters summed over every client. Handlers run
    /// one at a time, so the change across one handler is that client's.
    pub fn counters(&self) -> ClientCounters {
        self.col.counters
    }

    /// `true` while client `i` listens to broadcasts.
    pub fn is_connected(&self, i: usize) -> bool {
        self.col.disconnected_at[i].is_none()
    }

    /// Timestamp of the last report client `i` received.
    pub fn tlb(&self, i: usize) -> SimTime {
        if bit(&self.stamped, i) {
            self.epoch[self.cell[i] as usize]
        } else {
            self.col.tlb[i]
        }
    }

    /// Cell `c`'s broadcast epoch: the broadcast time of its last report
    /// ([`SimTime::ZERO`] before the first), which every member that
    /// heard that report holds as its `Tlb`.
    pub fn epoch(&self, c: u32) -> SimTime {
        self.epoch[c as usize]
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

    /// The stored vouch flag of client `i`: `true` when a report that
    /// covers its `Tlb`, delivered before its retry deadline, could
    /// change it only through the cached items the report marks, beyond
    /// its `Tlb` and its cache's vouch time.
    pub fn is_vouchable(&self, i: usize) -> bool {
        bit(&self.col.vouch, i)
    }

    /// The vouch predicate re-derived from client `i`'s columns; the
    /// stored flag must always equal it.
    pub fn vouchable_from_columns(&self, i: usize) -> bool {
        vouch_predicate(
            self.col.sig_baseline.as_ref().map(|col| &col[i]),
            &self.col.gap[i],
            self.col.reconnect_pending[i],
            &self.col.pending[i],
        )
    }

    /// Client `i`'s `SIG` baseline, read through the stamp: the buffer of
    /// the last `SIG` report it heard, `None` before the first and under
    /// every other scheme.
    pub fn sig_baseline(&self, i: usize) -> Option<&Arc<[u64]>> {
        if bit(&self.stamped, i) {
            self.sig_epoch[self.cell[i] as usize].as_ref()
        } else {
            self.col.sig_baseline.as_ref()?[i].as_ref()
        }
    }

    /// The stored retry deadline of client `i`, in seconds: `Some` while
    /// it is retry-armed (a data or validity request in flight under a
    /// retry policy), the earliest [`PendingItem::retry_deadline`] of
    /// its items. A report delivered at `now < deadline` re-sends
    /// nothing.
    pub fn retry_deadline(&self, i: usize) -> Option<f64> {
        let deadline = self.col.deadline.as_ref()?[i];
        deadline.is_finite().then_some(deadline)
    }

    /// Applies `report`, which cell `cell` broadcast, to every vouched
    /// client set in `words`, and clears their bits, leaving the
    /// clients the report can change. Returns the number of clients
    /// stamped. `plan` must be this tick's decode of `report` for the
    /// cell's epoch ([`PlanCache::decode_for_tick`]).
    ///
    /// A listener is vouched when it is vouchable (no gap, nothing
    /// waiting on a report, under `SIG` a baseline), any retry it has
    /// armed is not yet due at `now`, its `Tlb` is the epoch, the report
    /// covers the epoch, and its cache holds none of the items the plan
    /// marks (the holders index names those clients). Every report arm
    /// then does exactly `Tlb ← T_i` and `revalidate_all(T_i)` to it,
    /// for the report's broadcast time `T_i`: a window or AT report
    /// covers its `Tlb`, BS selects the plan's bucket, its stale set,
    /// the marked items it caches, is empty, a `SIG` report equal to the
    /// epoch's (whose signatures its baseline holds) flags nothing and
    /// becomes its baseline, and the retry pass re-sends nothing.
    ///
    /// The pass works a word at a time and writes no client column: a
    /// vouched listener's `Tlb` and cache vouch time become the cell's
    /// new epoch through its `stamped` bit. Under a retry policy, each
    /// candidate costs one load of its deadline. Only a stamped member
    /// of the cell that is not stamped again — one the fault layer made
    /// lose the report, or one the report can change — is materialized
    /// first, so it keeps the previous epoch.
    ///
    /// `words` must hold only connected members of `cell`, and `now`
    /// must be the report's delivery time, the one the walk passes to
    /// [`ClientMut::on_report_planned`].
    pub fn stamp(
        &mut self,
        cell: u32,
        words: &mut [u64],
        report: &ReportPayload,
        plan: &PlanCache,
        now: SimTime,
    ) -> u64 {
        let c = cell as usize;
        let epoch = self.epoch[c];
        let covered = covers(report, plan, epoch, self.sig_epoch[c].as_deref());
        if covered {
            self.held.clear();
            self.held.resize(self.stamped.len(), 0);
            for item in plan.marked() {
                let held = &mut self.held;
                self.col
                    .holders
                    .for_each(item, |h| held[h / 64] |= 1 << (h % 64));
            }
        }
        let mut stamped = 0;
        for (k, word) in words.iter_mut().enumerate() {
            let members = self.cell_bits[c][k];
            debug_assert_eq!(*word & !members, 0, "word {k} outside cell {c}");
            debug_assert_eq!(*word & !self.connected_bits[k], 0, "word {k} not listening");
            let mut stamp = 0;
            if covered {
                // A stamped client is at the epoch; any other one is if
                // its `tlb` cell says so (it heard the last report).
                stamp = *word & self.col.vouch[k] & !self.held[k];
                let unstamped = stamp & !self.stamped[k];
                for_each_set_bit(&[unstamped], 0..64, |b| {
                    if self.col.tlb[k * 64 + b] != epoch {
                        stamp &= !(1 << b);
                    }
                });
                // A candidate is walked once one of its requests is due:
                // the walk's retry pass re-sends it.
                if let Some(deadline) = &self.col.deadline {
                    for_each_set_bit(&[stamp], 0..64, |b| {
                        if now.as_secs() >= deadline[k * 64 + b] {
                            stamp &= !(1 << b);
                        }
                    });
                }
            }
            // Still at the previous epoch, which is what a member that
            // misses this report keeps and what a walked one starts from.
            let off = self.stamped[k] & members & !stamp;
            for_each_set_bit(&[off], 0..64, |b| self.materialize(k * 64 + b));
            #[cfg(debug_assertions)]
            for_each_set_bit(&[stamp], 0..64, |b| {
                let i = k * 64 + b;
                let cache = self.cache(i);
                assert!(
                    self.vouchable_from_columns(i)
                        && self.tlb(i) == epoch
                        && plan.marked().all(|item| !cache.is_resident(item)),
                    "client {i} stamped but not vouched"
                );
                let period = self.cfg.broadcast_period_secs;
                let due = self.col.pending[i].iter().any(|p| {
                    self.cfg
                        .retry
                        .and_then(|policy| p.retry_deadline(policy, period))
                        .is_some_and(|deadline| now.as_secs() >= deadline)
                });
                assert!(!due, "client {i} stamped with a retry due");
                if let Some(epoch_sigs) = &self.sig_epoch[c] {
                    assert!(
                        self.sig_baseline(i).is_some_and(|b| b == epoch_sigs),
                        "client {i} stamped off its cell's epoch signatures"
                    );
                }
            });
            self.stamped[k] |= stamp;
            stamped += u64::from(stamp.count_ones());
            *word &= !stamp;
        }
        self.epoch[c] = report.broadcast_at();
        if let ReportPayload::Sig(sig, _) = report {
            self.sig_epoch[c] = Some(Arc::clone(&sig.combined));
        }
        stamped
    }

    /// Writes client `i`'s `Tlb` into its column, revalidates its cache
    /// as of that `Tlb`, and stores its cell's epoch signatures as its
    /// baseline, if it is stamped.
    #[inline]
    fn materialize(&mut self, i: usize) {
        if bit(&self.stamped, i) {
            self.stamped[i / 64] &= !(1 << (i % 64));
            let cell = self.cell[i] as usize;
            let epoch = self.epoch[cell];
            self.col.tlb[i] = epoch;
            match self.col.body[i] {
                0 => {}
                h => self.col.bodies[h as usize - 1].revalidate_all(epoch),
            }
            if let Some(col) = &mut self.col.sig_baseline {
                col[i].clone_from(&self.sig_epoch[cell]);
            }
        }
    }

    /// A mutable accessor view of client `i`.
    #[inline]
    pub fn client_mut(&mut self, i: usize) -> ClientMut<'_> {
        self.materialize(i);
        self.col.view(&self.cfg, i)
    }

    /// Issues a query for client `i` referencing `items`.
    ///
    /// # Panics
    /// Panics if a query is already in flight, the client is
    /// disconnected, or `items` is empty.
    pub fn start_query(&mut self, i: usize, now: SimTime, items: &[ItemId]) {
        assert!(self.is_connected(i), "query while disconnected");
        assert!(self.col.header[i].is_none(), "overlapping queries");
        self.materialize(i);
        // Its items wait on the next report. It has no request out:
        // the view that closed its last query left it unarmed.
        set_bit(&mut self.col.vouch, i, false);
        debug_assert!(
            self.retry_deadline(i).is_none(),
            "client {i} armed with no query"
        );
        self.col.counters.queries_issued += 1;
        self.col.header[i] = Some(QueryHeader::new(now, items, &mut self.col.pending[i]));
    }
}

/// Bit `i` of the bitmap `words`.
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// Whether `report` covers `epoch`: for a client whose `Tlb` is
/// `epoch`, a window or AT report reaches back to it, BS selects a
/// bucket that is not `DropAll`, and a `SIG` report carries the
/// signatures of the epoch's, `epoch_sigs`, so it flags nothing. `plan`
/// is the report's decode for `epoch`.
fn covers(
    report: &ReportPayload,
    plan: &PlanCache,
    epoch: SimTime,
    epoch_sigs: Option<&[u64]>,
) -> bool {
    match report {
        ReportPayload::Window(w) => w.covers(epoch),
        ReportPayload::At(at) => at.covers(epoch),
        ReportPayload::BitSeq(bs) => plan.bs_select(bs, epoch) != BsSelect::DropAll,
        ReportPayload::Sig(sig, _) => epoch_sigs == Some(&*sig.combined),
    }
}

/// Sets bit `i` of the bitmap `words` to `on`.
#[inline]
fn set_bit(words: &mut [u64], i: usize, on: bool) {
    set_masked(&mut words[i / 64], 1 << (i % 64), on);
}

/// Sets the `mask` bits of `word` to `on`.
#[inline]
fn set_masked(word: &mut u64, mask: u64, on: bool) {
    *word = if on { *word | mask } else { *word & !mask };
}

/// The vouch predicate: a report can change the client only through
/// its cache and its retries. With no gap and no pending reconnection,
/// a report that covers the client's `Tlb` drops the cached items it
/// marks (or, for an uncovered one, the cache) and revalidates the
/// rest, and a client with an empty cache keeps nothing to drop,
/// salvage or revalidate; with no query item waiting on a report,
/// `resolve_query` moves nothing, and the retry pass re-sends only the
/// requests due at the report (see `earliest_deadline`, which the
/// stamp tests). A `SIG` client also needs a baseline (`baseline` is
/// `None` without a baseline column): with none, a report drops its
/// whole cache.
fn vouch_predicate(
    baseline: Option<&Baseline>,
    gap: &Option<GapState>,
    reconnect_pending: bool,
    pending: &[PendingItem],
) -> bool {
    baseline.is_none_or(Option::is_some)
        && gap.is_none()
        && !reconnect_pending
        && pending.iter().all(|p| p.state != PendingState::WaitReport)
}

/// The earliest retry deadline of a client's in-flight requests, in
/// seconds (see [`PendingItem::retry_deadline`]); `None` with no retry
/// policy or no request out, when the client is not retry-armed.
fn earliest_deadline(cfg: &ClientConfig, pending: &[PendingItem]) -> Option<f64> {
    let policy = cfg.retry?;
    pending
        .iter()
        .filter_map(|p| p.retry_deadline(policy, cfg.broadcast_period_secs))
        .reduce(f64::min)
}

/// Every handler runs through a view, so refreshing the vouch flag and
/// the retry deadline when the view goes away keeps them exact on every
/// path. The predicates cannot panic, as `Drop` also runs while a
/// handler unwinds.
impl Drop for ClientMut<'_> {
    fn drop(&mut self) {
        let vouchable = vouch_predicate(
            self.sig_baseline.as_deref(),
            self.gap,
            *self.reconnect_pending,
            self.pending,
        );
        set_masked(self.vouch.0, self.vouch.1, vouchable);
        if let Some(at) = &mut self.deadline {
            **at = earliest_deadline(self.cfg, self.pending).unwrap_or(f64::INFINITY);
        }
    }
}

impl ClientMut<'_> {
    /// The shared static configuration.
    pub fn config(&self) -> &ClientConfig {
        self.cfg
    }

    /// Read access to the cache.
    pub fn cache(&self) -> &LruCache {
        &self.cache
    }

    /// `true` while listening to broadcasts.
    pub fn is_connected(&self) -> bool {
        self.disconnected_at.is_none()
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
        assert!(self.is_connected(), "already disconnected");
        *self.disconnected_at = Some(now);
    }

    /// Wakes up from doze mode, returning the length of the doze period
    /// in seconds; reached only through [`ClientPop::reconnect`]. Cache
    /// reconciliation happens at the next broadcast report.
    fn reconnect(&mut self, now: SimTime) -> f64 {
        assert!(!self.is_connected(), "already connected");
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
    /// buffer the population lends, actions in the caller's. Which plan
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
        assert!(
            self.is_connected(),
            "report delivered to a disconnected client"
        );
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
        self.cache.insert(item, version, now, self.counters);
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
            self.cache.insert(item, version, now, self.counters);
        }
    }

    /// Processes a validity report (answer to a check request): `valid`
    /// lists, in ascending order, the checked items that are still current
    /// as of `asof`.
    /// Appends the resulting actions to `actions` (not cleared).
    pub fn on_validity_into(
        &mut self,
        now: SimTime,
        asof: SimTime,
        valid: &[ItemId],
        actions: &mut Vec<ClientAction>,
    ) {
        debug_assert!(valid.is_sorted(), "validity list not ascending");
        let is_valid = |item: ItemId| valid.binary_search(&item).is_ok();
        match self.cfg.checking_mode {
            CheckingMode::FullCache => {
                // The check covered the whole cache: every limbo entry
                // gets a verdict.
                let (salvaged, dropped) = self.cache.salvage_limbo(asof, is_valid);
                self.counters.salvaged += salvaged as u64;
                self.counters.limbo_dropped += dropped as u64;
                *self.gap = None;
            }
            CheckingMode::QueriedItems => {
                // Only the pending query's items were checked.
                for p in self.pending.iter() {
                    if p.state != PendingState::WaitValidity {
                        continue;
                    }
                    let ok = is_valid(p.item);
                    if self.cache.salvage_item(p.item, ok, asof) {
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
            // By index, as `resolve_query` walks: each step moves only the
            // entry it reads out of `WaitValidity`.
            for k in 0..self.pending.len() {
                let PendingItem { item, state, .. } = self.pending[k];
                if state != PendingState::WaitValidity {
                    continue;
                }
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
                // tests each cached item against its level's cut: an
                // item is marked iff its recency slot is at or past the
                // slot of the prefix's oldest mark. That costs the cache,
                // not the prefix.
                let sel = plan.bs_select(bs, etlb);
                if let BsSelect::Prefix(prefix) = sel {
                    if plan.bs_prefix() == Some(prefix) {
                        self.collect_stale(plan, stats);
                    } else {
                        let cut = bs.cut(prefix);
                        self.stale_scratch.extend(
                            self.cache
                                .items_iter()
                                .map(|(item, _)| item)
                                .filter(|&item| bs.slot(item).is_some_and(|s| s >= cut)),
                        );
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
                match self.sig_baseline.as_deref().and_then(Option::as_deref) {
                    // No stored signatures to compare against (the first
                    // report heard): the cache is unverifiable.
                    None => {
                        *self.gap = None;
                        if !self.cache.is_empty() {
                            self.counters.full_drops += 1;
                            self.cache.clear();
                        }
                    }
                    Some(baseline) => {
                        let cached = self.cache.items_iter().map(|(item, _)| item);
                        sig.stale_into(signer, baseline, cached, self.stale_scratch);
                        self.cache.invalidate_many(self.stale_scratch.drain(..));
                        self.resolve_gap();
                        self.cache.revalidate_all(report_asof);
                    }
                }
                if let Some(baseline) = self.sig_baseline.as_deref_mut() {
                    *baseline = Some(Arc::clone(&sig.combined));
                }
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
        // By index, with no list of the waiting items: each step moves
        // only the entry it reads out of `WaitReport`.
        for k in 0..self.pending.len() {
            let PendingItem { item, state, .. } = self.pending[k];
            if state != PendingState::WaitReport {
                continue;
            }
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
            // The stamp skips a retry-armed client on the same test.
            let Some(deadline) = p.retry_deadline(policy, l) else {
                continue;
            };
            if now.as_secs() < deadline {
                continue;
            }
            p.state = PendingState::WaitData;
            p.requested_at = Some(now);
            p.retries = p.retries.saturating_add(1);
            actions.push(ClientAction::Uplink(UplinkKind::QueryRequest {
                item: p.item,
            }));
            self.counters.retries_sent += 1;
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

    /// The counts added between `before` and `after`, two readings of
    /// the same counters.
    fn since(after: &ClientCounters, before: &ClientCounters) -> ClientCounters {
        ClientCounters {
            queries_issued: after.queries_issued - before.queries_issued,
            queries_answered: after.queries_answered - before.queries_answered,
            item_hits: after.item_hits - before.item_hits,
            item_misses: after.item_misses - before.item_misses,
            tlbs_sent: after.tlbs_sent - before.tlbs_sent,
            checks_sent: after.checks_sent - before.checks_sent,
            full_drops: after.full_drops - before.full_drops,
            salvaged: after.salvaged - before.salvaged,
            limbo_dropped: after.limbo_dropped - before.limbo_dropped,
            limbo_episodes: after.limbo_episodes - before.limbo_episodes,
            retries_sent: after.retries_sent - before.retries_sent,
            backoff_exhaustions: after.backoff_exhaustions - before.backoff_exhaustions,
            evictions: after.evictions - before.evictions,
        }
    }

    /// The connected bitmap mirrors the `disconnected_at` column.
    fn assert_bitmap_mirrors(pop: &ClientPop) {
        for i in 0..pop.len() {
            let bit = pop.connected_words()[i / 64] & (1 << (i % 64)) != 0;
            assert_eq!(bit, pop.is_connected(i), "client {i}");
        }
    }

    /// An N-client population must be observationally identical to N
    /// one-client populations running the same scripts: same actions,
    /// the same counts added by every step, same cache contents, and a
    /// connected bitmap that tracks every doze and wake. This pins the
    /// per-client column bookkeeping (neighbours never clobbered) and
    /// the attribution of the shared counters to the client a step
    /// drove.
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
                    let (pop_before, solo_before) = (pop.counters(), solo[i].counters());
                    let pop_actions = apply(&mut pop, i, step, clock);
                    let solo_actions = apply(&mut solo[i], 0, step, clock);
                    assert_eq!(pop_actions, solo_actions, "{scheme:?} client {i}");
                    assert_eq!(
                        since(&pop.counters(), &pop_before),
                        since(&solo[i].counters(), &solo_before),
                        "{scheme:?} client {i} step {step_idx}"
                    );
                    assert_bitmap_mirrors(&pop);
                    assert_bitmap_mirrors(&solo[i]);
                }
            }
            for (i, solo_client) in solo.iter().enumerate() {
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

    /// The connected bitmap mirrors the `disconnected_at` column through
    /// the pop-level disconnect/reconnect wrappers, with tail bits zero.
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

    /// Delivers a window report broadcast at `at` to every listener at
    /// `now`, stamping the vouched ones and walking the rest as the
    /// engine's fan-out does. Returns the number stamped and the walk's
    /// actions.
    fn deliver(pop: &mut ClientPop, at: f64, now: SimTime) -> (u64, Vec<ClientAction>) {
        let report = window(at, -180.0, vec![]);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&report, pop.epoch(0), 16);
        let mut walk = pop.connected_words().to_vec();
        let stamped = pop.stamp(0, &mut walk, &report, &plan, now);
        let mut actions = Vec::new();
        for_each_set_bit(&walk, 0..pop.len(), |i| {
            pop.client_mut(i).on_report_planned(
                now,
                &report,
                &plan,
                &mut actions,
                &mut PlanStats::default(),
            );
        });
        (stamped, actions)
    }

    /// The arm choice at the `bigdb` shape: over a 40 000-item window
    /// plan (625 words) a full 800-item cache takes the word-wise
    /// intersection, and a 5-item cache spread over the same ids probes
    /// its items one by one.
    #[test]
    fn plan_profitable_picks_the_word_arm_for_full_caches_only() {
        let db = 40_000;
        let records = (0..40).map(|k| (k * 1_000, 10.0)).collect();
        let report = window(20.0, -180.0, records);
        let mut plan = PlanCache::new();
        plan.decode_for_tick(&report, SimTime::ZERO, db);
        for (len, stride, arm) in [(800, 50, (1, 0)), (5, 9_999, (0, 1))] {
            let mut pop = ClientPop::new(
                ClientConfig {
                    cache_capacity: 800,
                    ..cfg(Scheme::Aaw)
                },
                1,
            );
            let mut client = pop.client_mut(0);
            for k in 0..len {
                client.on_snooped_data(t(1.0), ItemId(k * stride), t(0.5));
            }
            let mut stats = PlanStats::default();
            client.on_report_planned(t(20.0), &report, &plan, &mut Vec::new(), &mut stats);
            assert_eq!((stats.hits, stats.misses), arm, "{len}-item cache");
        }
    }

    /// A fresh population holds one cache body, the shared empty one.
    /// Reads, the stamp and its `materialize`, and every mutator but
    /// insert leave a cold client on it; a client's first insert gives
    /// it exactly one body of its own, which it keeps through emptying
    /// and refilling.
    #[test]
    fn a_cold_client_holds_no_body_until_its_first_insert() {
        let n = 70;
        let mut pop = ClientPop::new(cfg(Scheme::Aaw), n);
        assert_eq!(pop.cache_bodies(), 1);
        assert_eq!(deliver(&mut pop, 20.0, t(20.0)), (n as u64, vec![]));
        for i in 0..n {
            assert!(pop.cache(i).is_empty());
            assert_eq!(pop.entries(i).count(), 0);
            let mut c = pop.client_mut(i);
            c.cache.revalidate_all(t(21.0));
            c.cache.mark_all_limbo();
            c.cache.clear();
            c.cache.invalidate_many([ItemId(1)]);
            assert_eq!(c.cache.drop_limbo(), 0);
            assert_eq!(c.cache.salvage_limbo(t(21.0), |_| true), (0, 0));
            assert!(!c.cache.salvage_item(ItemId(1), true, t(21.0)));
            assert!(c.cache.get_valid(ItemId(1)).is_none());
        }
        assert_eq!(pop.tlb(0), t(20.0), "materialized");
        assert_eq!(pop.cache_bodies(), 1);

        let snoop = |pop: &mut ClientPop, i: usize, item: u32| {
            pop.client_mut(i)
                .on_snooped_data(t(22.0), ItemId(item), t(1.0));
        };
        snoop(&mut pop, 5, 3);
        assert_eq!(pop.cache_bodies(), 2);
        snoop(&mut pop, 5, 4);
        assert_eq!(pop.cache_bodies(), 2);
        pop.client_mut(5).cache.clear();
        assert!(pop.cache(5).is_empty());
        snoop(&mut pop, 5, 9);
        assert_eq!(pop.cache_bodies(), 2, "refilled in its own body");
        assert_eq!(pop.col.body[5], 1);
        assert!(pop.cache(5).is_resident(ItemId(9)));
        snoop(&mut pop, 64, 9);
        assert_eq!(pop.cache_bodies(), 3);
        assert_eq!(pop.holders_of(ItemId(9)), vec![64, 5]);
        assert!(pop.col.empty.is_empty(), "the shared body stays empty");
        assert!((0..n).all(|i| pop.cache(i).is_empty() == (i != 5 && i != 64)));
    }

    /// A new per-client column moves this figure. State that is only
    /// ever summed or drained belongs to the population, not to a
    /// column.
    #[test]
    fn per_client_footprint_is_pinned() {
        assert_eq!(ClientPop::CLIENT_BYTES, 117);
    }

    /// The stamp and the retry pass compare one deadline with one strict
    /// `<`: a retry-armed client whose deadline is the report's delivery
    /// time is walked and re-sends its request, and one a report
    /// delivered an ulp earlier is stamped.
    #[test]
    fn a_retry_is_due_at_its_deadline_not_an_ulp_before() {
        let retry = ClientConfig {
            retry: Some(mobicache_model::RetryPolicy::default()),
            ..cfg(Scheme::Aaw)
        };
        let request = ClientAction::Uplink(UplinkKind::QueryRequest { item: ItemId(5) });
        for (now, due) in [(60.0, true), (f64::next_down(60.0), false)] {
            let mut pop = ClientPop::new(retry, 1);
            pop.start_query(0, t(1.0), &[ItemId(5)]);
            // The report at 20 s sends the data request, whose first
            // retry waits two periods: due at 60 s.
            assert_eq!(deliver(&mut pop, 20.0, t(20.0)), (0, vec![request.clone()]));
            assert_eq!(pop.retry_deadline(0), Some(60.0));
            assert!(pop.is_vouchable(0));
            assert_eq!(deliver(&mut pop, 40.0, t(40.0)), (1, vec![]));
            let (stamped, actions) = deliver(&mut pop, 50.0, t(now));
            assert_eq!(pop.tlb(0), t(50.0));
            if due {
                assert_eq!((stamped, actions), (0, vec![request.clone()]));
                assert_eq!(pop.counters().retries_sent, 1);
                assert_eq!(pop.retry_deadline(0), Some(60.0 + 4.0 * 20.0));
            } else {
                assert_eq!((stamped, actions), (1, vec![]));
                assert_eq!(pop.counters().retries_sent, 0);
                assert_eq!(pop.retry_deadline(0), Some(60.0));
            }
        }
    }
}
