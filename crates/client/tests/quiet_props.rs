//! The vouched-stamp rule of the report fan-out, checked against the
//! handler it short-cuts. A *quiet* client — vouchable (no open gap, no
//! pending reconnection, no query item waiting on a report), no retry
//! armed and an empty cache — must come out of *any* report exactly as
//! a `Tlb` stamp leaves it: no actions, every other column unchanged,
//! and the same behaviour from then on. Random client histories drive
//! all eight schemes, with and without a retry policy, under both
//! checking modes; after every step the stored vouch flag and retry
//! deadline must equal the predicates re-derived from the columns. A
//! population-level case runs the stamp-plus-walk fan-out against
//! walking every delivered client, and checks that the stamp serves
//! exactly the listeners the vouched rule names.
//! Two multi-cell cases run the stamp's lazy `Tlb` and cache vouch time
//! (each cell's broadcast epoch) in lockstep with an eager population
//! that walks every listener and a plain `Tlb` per client, through
//! lossy reports, handoffs, dozes, snoops and validity verdicts; the
//! second also holds the item → holders index to the caches. Under a
//! retry policy a client with a data or validity request in flight is
//! stamped until its backoff deadline: after every step its stored
//! deadline must equal one re-derived from its pending items, and the
//! two multi-cell cases must stamp an armed client and walk a due one.
//! A `SIG` client with a baseline is vouched by a report that carries
//! its cell's epoch signatures; the multi-cell cases hold every
//! client's baseline, read through the stamp, to be the very buffer of
//! the last report its eager twin heard.

use mobicache_cache::CacheEntry;
use mobicache_client::{
    ClientAction, ClientConfig, ClientCounters, ClientMut, ClientPop, PendingItem, PendingState,
};
use mobicache_model::{CheckingMode, ItemId, RetryPolicy, Scheme};
use mobicache_reports::{
    AtReport, BitSequences, BsSelect, PlanCache, PlanStats, ReportPayload, SigReport, Signer,
    WindowReport,
};
use mobicache_sim::SimTime;
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::Arc;

const DB: u32 = 32;
const PERIOD: f64 = 20.0;
const SCHEMES: [Scheme; 8] = [
    Scheme::TsNoCheck,
    Scheme::At,
    Scheme::SimpleChecking,
    Scheme::Bs,
    Scheme::Afw,
    Scheme::Aaw,
    Scheme::Sig,
    Scheme::Gcore,
];

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

fn id(frac: f64) -> ItemId {
    ItemId(((frac * f64::from(DB)) as u32).min(DB - 1))
}

fn cfg(scheme: Scheme, retry: bool, full_cache: bool) -> ClientConfig {
    ClientConfig {
        scheme,
        checking_mode: if full_cache {
            CheckingMode::FullCache
        } else {
            CheckingMode::QueriedItems
        },
        cache_capacity: 4,
        broadcast_period_secs: PERIOD,
        gcore_groups: 4,
        retry: retry.then(RetryPolicy::default),
    }
}

/// Schemes whose clients hear timestamp-window reports.
fn hears_windows(scheme: Scheme) -> bool {
    matches!(
        scheme,
        Scheme::TsNoCheck | Scheme::SimpleChecking | Scheme::Gcore | Scheme::Afw | Scheme::Aaw
    )
}

/// Whether the fan-out stamps a vouched client or walks it like the rest.
#[derive(Clone, Copy)]
enum Fanout {
    Stamp,
    WalkAll,
}

/// One step of a history: `(client, op, a, b)`, with `a` and `b` the
/// op's parameters as fractions. Op 1 is a population-wide broadcast;
/// the others act on one client and are skipped where the engine would
/// never produce them (a query while one is in flight, data to a dozing
/// client, ...).
type Step = (usize, u32, f64, f64);

/// The action lists one step emitted, as `(client, actions)` in client
/// order.
type Emitted = Vec<(usize, Vec<ClientAction>)>;

/// A client population, the database it caches and the broadcast clock.
struct Harness {
    pop: ClientPop,
    /// Broadcasts so far; the next goes out at `(tick + 1) · PERIOD`.
    tick: u32,
    /// Steps since the last broadcast, ordering the in-period events.
    sub: u32,
    /// Each item's last update time (`None`: never updated).
    last: Vec<Option<SimTime>>,
    /// Each client's latest query.
    asked: Vec<Vec<ItemId>>,
    signer: Signer,
    plan: PlanCache,
    prev_at: SimTime,
    /// The signatures of the last `SIG` report a [`Fanout::Stamp`]
    /// broadcast handed out: the epoch a stamp covers.
    epoch_sigs: Option<Arc<[u64]>>,
}

impl Harness {
    fn new(cfg: ClientConfig, n: usize) -> Self {
        Harness::with_cells(cfg, n, 1)
    }

    fn with_cells(cfg: ClientConfig, n: usize, cells: u32) -> Self {
        Harness {
            pop: ClientPop::with_cells(cfg, n, cells),
            tick: 0,
            sub: 0,
            last: vec![None; DB as usize],
            asked: vec![Vec::new(); n],
            signer: Signer::new(8, 16, 7, DB),
            plan: PlanCache::new(),
            prev_at: SimTime::ZERO,
            epoch_sigs: None,
        }
    }

    fn now(&self) -> SimTime {
        t(f64::from(self.tick) * PERIOD + f64::from(self.sub) * 0.01)
    }

    fn next_broadcast(&self) -> f64 {
        f64::from(self.tick + 1) * PERIOD
    }

    fn version(&self, item: ItemId) -> SimTime {
        self.last[item.0 as usize].unwrap_or(SimTime::ZERO)
    }

    /// Updated items, newest first, ties by id.
    fn recency(&self) -> Vec<(ItemId, SimTime)> {
        let mut r: Vec<(ItemId, SimTime)> = (0..DB)
            .filter_map(|i| self.last[i as usize].map(|ts| (ItemId(i), ts)))
            .collect();
        r.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        r
    }

    fn updated_after(&self, since: f64) -> Vec<(ItemId, SimTime)> {
        let mut r = self.recency();
        r.retain(|&(_, ts)| ts > t(since));
        r.sort_unstable();
        r
    }

    /// The report the server of this harness's scheme would broadcast at
    /// `at`: window reports (plain, with a window of 1, 3 or 10 periods,
    /// or enlarged), with BS fall-backs under AFW/AAW; BS; AT; SIG.
    fn scheme_report(&self, at: f64, a: f64, b: f64) -> ReportPayload {
        let bs = || ReportPayload::BitSeq(BitSequences::from_recency(t(at), DB, self.recency()));
        match self.pop.config().scheme {
            Scheme::Bs => bs(),
            Scheme::Afw | Scheme::Aaw if a < 0.25 => bs(),
            Scheme::At => ReportPayload::At(AtReport {
                broadcast_at: t(at),
                prev_broadcast: t(at - PERIOD),
                items: self
                    .updated_after(at - PERIOD)
                    .into_iter()
                    .map(|(i, _)| i)
                    .collect(),
            }),
            Scheme::Sig => {
                let versions: Vec<SimTime> = (0..DB).map(|i| self.version(ItemId(i))).collect();
                ReportPayload::Sig(
                    SigReport {
                        broadcast_at: t(at),
                        combined: self.signer.combine(&versions),
                    },
                    self.signer.clone(),
                )
            }
            scheme => {
                let periods = [1.0, 3.0, 10.0][((b * 3.0) as usize).min(2)];
                let start = at - periods * PERIOD;
                ReportPayload::Window(WindowReport {
                    broadcast_at: t(at),
                    window_start: t(start),
                    records: self.updated_after(start),
                    dummy: (scheme == Scheme::Aaw && a > 0.8).then(|| t(start - b * 10.0 * PERIOD)),
                })
            }
        }
    }

    /// Delivers `payload` to every connected client, stamping the
    /// vouched ones unless under [`Fanout::WalkAll`] and walking the rest
    /// through `client_mut` in index order, and returns the non-empty
    /// action lists in client order. The stamp must serve exactly the
    /// listeners [`vouched`] names.
    fn broadcast(
        &mut self,
        payload: &ReportPayload,
        fanout: Fanout,
    ) -> Vec<(usize, Vec<ClientAction>)> {
        let at = payload.broadcast_at();
        self.tick += 1;
        self.sub = 0;
        // The stamp reads a plan decoded for the cell's epoch.
        let dominant = match fanout {
            Fanout::WalkAll => self.prev_at,
            Fanout::Stamp => self.pop.epoch(0),
        };
        self.plan.decode_for_tick(payload, dominant, DB);
        self.prev_at = at;
        let mut walk = self.pop.connected_words().to_vec();
        if let Fanout::Stamp = fanout {
            let epoch_sigs = self.epoch_sigs.as_deref();
            let expected: Vec<bool> = (0..self.pop.len())
                .map(|i| {
                    self.pop.is_connected(i)
                        && vouched(&self.pop, payload, &self.plan, epoch_sigs, at, i)
                })
                .collect();
            let stamped = self.pop.stamp(0, &mut walk, payload, &self.plan, at);
            if let ReportPayload::Sig(sig, _) = payload {
                self.epoch_sigs = Some(Arc::clone(&sig.combined));
            }
            for (i, &vouched) in expected.iter().enumerate() {
                let walked = walk[i / 64] & (1 << (i % 64)) != 0;
                let heard = self.pop.is_connected(i);
                assert_eq!(
                    (heard && !walked),
                    vouched,
                    "client {i} stamped iff vouched"
                );
            }
            let vouched = expected.iter().filter(|&&v| v).count();
            assert_eq!(stamped, vouched as u64);
        }
        let mut out = Vec::new();
        for i in (0..self.pop.len()).filter(|&i| walk[i / 64] & (1 << (i % 64)) != 0) {
            let mut actions = Vec::new();
            self.pop.client_mut(i).on_report_planned(
                at,
                payload,
                &self.plan,
                &mut actions,
                &mut PlanStats::default(),
            );
            if !actions.is_empty() {
                out.push((i, actions));
            }
        }
        out
    }

    /// Applies one history step and returns the actions it emitted.
    fn step(&mut self, &(c, op, a, b): &Step, fanout: Fanout) -> Vec<(usize, Vec<ClientAction>)> {
        let c = c % self.pop.len();
        self.sub += 1;
        let now = self.now();
        let connected = self.pop.is_connected(c);
        let pending = self.pop.has_pending_query(c);
        let scheme = self.pop.config().scheme;
        let mut actions = Vec::new();
        match op {
            0 => {
                for item in [id(a), id(b)] {
                    self.last[item.0 as usize] = Some(now);
                }
            }
            1 => {
                let payload = self.scheme_report(self.next_broadcast(), a, b);
                return self.broadcast(&payload, fanout);
            }
            2 if connected && !pending => {
                let mut items = vec![id(a), id(b), id((a + b) / 2.0)];
                items.truncate(1 + (b * 3.0) as usize % 3);
                items.sort_unstable();
                items.dedup();
                self.pop.start_query(c, now, &items);
                self.asked[c] = items;
            }
            3 if connected && pending => {
                let asked = &self.asked[c];
                let item = asked[((a * asked.len() as f64) as usize).min(asked.len() - 1)];
                let version = self.version(item);
                self.pop
                    .client_mut(c)
                    .on_data_into(now, item, version, &mut actions);
            }
            4 if connected => {
                let item = id(a);
                let version = self.version(item);
                self.pop.client_mut(c).on_snooped_data(now, item, version);
            }
            5 if connected && !pending => self.pop.disconnect(c),
            6 if !connected => self.pop.reconnect(c),
            7 if connected && scheme == Scheme::SimpleChecking => {
                let mut valid: Vec<ItemId> = self
                    .pop
                    .cache(c)
                    .items_iter()
                    .filter(|&(i, v)| v >= self.version(i))
                    .map(|(i, _)| i)
                    .collect();
                // The server lists the valid items in ascending order.
                valid.sort_unstable();
                self.pop
                    .client_mut(c)
                    .on_validity_into(now, now, &valid, &mut actions);
            }
            7 if connected && scheme == Scheme::Gcore => {
                let stale: Vec<ItemId> = self
                    .pop
                    .cache(c)
                    .items_iter()
                    .filter(|&(i, v)| v < self.version(i))
                    .map(|(i, _)| i)
                    .collect();
                self.pop.client_mut(c).on_group_validity_into(
                    now,
                    now,
                    b < 0.8,
                    &stale,
                    &mut actions,
                );
            }
            _ => {}
        }
        if actions.is_empty() {
            Vec::new()
        } else {
            vec![(c, actions)]
        }
    }

    fn replay(cfg: ClientConfig, steps: &[Step]) -> Self {
        let mut h = Harness::new(cfg, 1);
        for s in steps {
            h.step(s, Fanout::WalkAll);
        }
        h
    }
}

/// The vouched rule, re-derived from client `i`'s observable state for a
/// report of cell 0 delivered at `at` (its broadcast time), with `plan`
/// its decode for the cell's epoch and `epoch_sigs` the signatures of
/// the cell's last `SIG` report: the client is vouchable, at the epoch,
/// any retry it has armed is not yet due, the report covers the epoch
/// (a `SIG` report carries the epoch's signatures) and the client
/// caches none of the items the plan marks.
fn vouched(
    pop: &ClientPop,
    payload: &ReportPayload,
    plan: &PlanCache,
    epoch_sigs: Option<&[u64]>,
    at: SimTime,
    i: usize,
) -> bool {
    let epoch = pop.epoch(0);
    let covered = match payload {
        ReportPayload::Window(w) => w.covers(epoch),
        ReportPayload::At(report) => report.covers(epoch),
        ReportPayload::BitSeq(bs) => bs.select(epoch) != BsSelect::DropAll,
        ReportPayload::Sig(sig, _) => epoch_sigs == Some(&*sig.combined),
    };
    covered
        && pop.is_vouchable(i)
        && pop.tlb(i) == epoch
        && pop.retry_deadline(i).is_none_or(|d| at.as_secs() < d)
        && plan.marked().all(|item| !pop.cache(i).is_resident(item))
}

/// A quiet client: vouchable, no retry armed and an empty cache, so no
/// report of any kind can change it beyond its `Tlb` (and, under `SIG`,
/// its baseline).
fn quiet(pop: &ClientPop, i: usize) -> bool {
    pop.is_vouchable(i) && pop.retry_deadline(i).is_none() && pop.cache(i).is_empty()
}

/// Everything observable of client `i`, with the population's counters
/// (a population keeps one set, the sum over its clients).
#[derive(Debug, PartialEq)]
struct Observed {
    tlb: SimTime,
    connected: bool,
    pending_query: bool,
    open_gap: bool,
    vouchable: bool,
    pending: Vec<PendingItem>,
    counters: ClientCounters,
    cache: Vec<(ItemId, CacheEntry)>,
    baseline: Option<Vec<u64>>,
}

fn observe(pop: &ClientPop, i: usize) -> Observed {
    // Effective entries, read through the stamp.
    let mut entries: Vec<(ItemId, CacheEntry)> = pop.entries(i).collect();
    entries.sort_unstable_by_key(|&(item, _)| item);
    Observed {
        tlb: pop.tlb(i),
        connected: pop.is_connected(i),
        pending_query: pop.has_pending_query(i),
        open_gap: pop.has_open_gap(i),
        vouchable: pop.is_vouchable(i),
        pending: pop.pending_items(i).to_vec(),
        counters: pop.counters(),
        cache: entries,
        baseline: pop.sig_baseline(i).map(|b| b.to_vec()),
    }
}

/// Client `i`'s retry deadline re-derived from its pending items: under
/// a retry policy, the earliest `requested_at + timeout · PERIOD` of its
/// data and validity requests in flight.
fn deadline_from_pending(pop: &ClientPop, i: usize) -> Option<f64> {
    let policy = pop.config().retry?;
    pop.pending_items(i)
        .iter()
        .filter(|p| matches!(p.state, PendingState::WaitData | PendingState::WaitValidity))
        .filter_map(|p| {
            let wait = f64::from(policy.timeout_intervals_for(p.retries)) * PERIOD;
            p.requested_at.map(|at| at.as_secs() + wait)
        })
        .reduce(f64::min)
}

fn flags_exact(pop: &ClientPop) -> Result<(), TestCaseError> {
    for i in 0..pop.len() {
        prop_assert_eq!(
            pop.is_vouchable(i),
            pop.vouchable_from_columns(i),
            "client {}",
            i
        );
        prop_assert_eq!(
            pop.retry_deadline(i),
            deadline_from_pending(pop, i),
            "client {}",
            i
        );
    }
    Ok(())
}

/// The holders index names exactly the clients whose cache holds each
/// item, once each.
fn holders_exact(pop: &ClientPop) -> Result<(), TestCaseError> {
    for item in (0..DB).map(ItemId) {
        let mut indexed = pop.holders_of(item);
        indexed.sort_unstable();
        let holding: Vec<usize> = (0..pop.len())
            .filter(|&i| pop.cache(i).is_resident(item))
            .collect();
        prop_assert_eq!(indexed, holding, "holders of {:?}", item);
    }
    Ok(())
}

/// The report kinds a quiet client is probed with, by what they do to
/// a client that last heard a report at `tlb`.
#[derive(Clone, Copy, Debug)]
enum Probe {
    WindowCovered,
    WindowUncovered,
    EnlargedCovered,
    EnlargedUncovered,
    BsClean,
    BsPrefix,
    BsDropAll,
    AtCovered,
    AtUncovered,
    SigUnchanged,
    SigChanged,
}

const PROBES: [Probe; 11] = [
    Probe::WindowCovered,
    Probe::WindowUncovered,
    Probe::EnlargedCovered,
    Probe::EnlargedUncovered,
    Probe::BsClean,
    Probe::BsPrefix,
    Probe::BsDropAll,
    Probe::AtCovered,
    Probe::AtUncovered,
    Probe::SigUnchanged,
    Probe::SigChanged,
];

/// `k` items updated strictly between `from` and `to`, newest first.
fn updates_between(k: u32, from: f64, to: f64) -> Vec<(ItemId, SimTime)> {
    (0..k)
        .map(|j| {
            let ts = to - (to - from) * f64::from(j + 1) / f64::from(k + 2);
            (ItemId(j), t(ts))
        })
        .collect()
}

/// The probe report broadcast at `at` for a client whose `Tlb` is
/// `tlb < at` and whose `SIG` baseline is `baseline`.
fn probe_report(
    probe: Probe,
    tlb: f64,
    at: f64,
    baseline: Option<&Arc<[u64]>>,
    signer: &Signer,
) -> ReportPayload {
    let mid = (tlb + at) / 2.0;
    let window = |start: f64, dummy: Option<f64>| {
        let mut records = updates_between(3, tlb, at);
        records.sort_unstable();
        ReportPayload::Window(WindowReport {
            broadcast_at: t(at),
            window_start: t(start),
            records,
            dummy: dummy.map(t),
        })
    };
    let bs = |recency: Vec<(ItemId, SimTime)>| {
        ReportPayload::BitSeq(BitSequences::from_recency(t(at), DB, recency))
    };
    let sig = |flip: u64| {
        let mut combined = baseline
            .expect("a quiet SIG client has a baseline")
            .to_vec();
        combined[0] ^= flip;
        ReportPayload::Sig(
            SigReport {
                broadcast_at: t(at),
                combined: combined.into(),
            },
            signer.clone(),
        )
    };
    let at_report = |prev: f64| {
        ReportPayload::At(AtReport {
            broadcast_at: t(at),
            prev_broadcast: t(prev),
            items: vec![ItemId(1), ItemId(DB - 1)],
        })
    };
    match probe {
        Probe::WindowCovered => window(tlb, None),
        Probe::WindowUncovered => window(mid, None),
        Probe::EnlargedCovered => window(mid, Some(tlb)),
        Probe::EnlargedUncovered => window(mid, Some((tlb + mid) / 2.0)),
        Probe::BsClean => bs(if tlb > 0.0 {
            updates_between(3, 0.0, tlb)
        } else {
            Vec::new()
        }),
        Probe::BsPrefix => bs(updates_between(5, tlb, at)),
        Probe::BsDropAll => bs(updates_between(DB / 2 + 3, tlb, at)),
        Probe::AtCovered => at_report(tlb),
        Probe::AtUncovered => at_report(mid),
        Probe::SigUnchanged => sig(0),
        Probe::SigChanged => sig(1),
    }
}

fn applies_to(probe: Probe, scheme: Scheme) -> bool {
    match probe {
        Probe::WindowCovered
        | Probe::WindowUncovered
        | Probe::EnlargedCovered
        | Probe::EnlargedUncovered => hears_windows(scheme),
        Probe::SigUnchanged | Probe::SigChanged => scheme == Scheme::Sig,
        _ => scheme != Scheme::Sig,
    }
}

/// A `[0, 1)` coin for client `i` drawn from `seed` (splitmix64).
fn coin(seed: f64, i: usize) -> f64 {
    let mut z = seed.to_bits() ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / u64::MAX as f64
}

/// How often a report's stamp met a retry-armed listener: stamped it
/// (its deadline still ahead), or left it to the walk with a request due.
#[derive(Clone, Copy, Default)]
struct RetryArm {
    stamped: u64,
    walked_due: u64,
}

/// A multi-cell population whose fan-out stamps vouched clients (their
/// `Tlb` and cache vouch time then live in the cell's epoch until
/// materialized), next to an eager twin whose fan-out walks every
/// listener through `client_mut` and never stamps, and the `Tlb` each
/// client must hold: the broadcast time of the last report it heard.
/// Every view the stamped side builds must already read that `Tlb`.
struct Lockstep {
    /// The database, the clock and the stamped population.
    h: Harness,
    eager: ClientPop,
    tlb: Vec<SimTime>,
    plans: Vec<PlanCache>,
    /// The most entries the stamped side's caches have held at once.
    peak_entries: usize,
    /// Which clients have held an item at some check so far.
    ever_cached: Vec<bool>,
    /// The stamp's retry-armed listeners so far.
    arm: RetryArm,
}

impl Lockstep {
    fn new(cfg: ClientConfig, n: usize, cells: u32) -> Self {
        Lockstep {
            h: Harness::with_cells(cfg, n, cells),
            eager: ClientPop::with_cells(cfg, n, cells),
            tlb: vec![SimTime::ZERO; n],
            plans: (0..cells).map(|_| PlanCache::new()).collect(),
            peak_entries: 0,
            ever_cached: vec![false; n],
            arm: RetryArm::default(),
        }
    }

    /// Bit `i` of `words`.
    fn has(words: &[u64], i: usize) -> bool {
        words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The connected members of `cell`, as `stamp` takes them.
    fn listeners(&self, cell: u32) -> Vec<u64> {
        let pop = &self.h.pop;
        pop.connected_words()
            .iter()
            .zip(pop.cell_words(cell))
            .map(|(&c, &m)| c & m)
            .collect()
    }

    /// One step on both populations. Returns the actions each emitted,
    /// stamped side first, as `(client, actions)` in client order.
    fn step(&mut self, &(c, op, a, b): &Step) -> Result<(Emitted, Emitted), TestCaseError> {
        let n = self.tlb.len();
        let c = c % n;
        let cells = self.h.pop.cells();
        self.h.sub += 1;
        let now = self.h.now();
        let connected = self.h.pop.is_connected(c);
        let pending = self.h.pop.has_pending_query(c);
        let (mut stamped, mut eager) = (Vec::new(), Vec::new());
        let mut view_tlb_ok = true;
        match op {
            0 => {
                for item in [id(a), id(b)] {
                    self.h.last[item.0 as usize] = Some(now);
                }
            }
            // A report from client `c`'s cell, lost by each listener
            // with probability `b / 2`.
            1 => {
                let cell = self.h.pop.cell_of(c);
                let at = self.h.next_broadcast();
                let payload = self.h.scheme_report(at, a, b);
                self.h.tick += 1;
                self.h.sub = 0;
                let at = t(at);
                let mut heard = self.listeners(cell);
                for i in 0..n {
                    if Self::has(&heard, i) && coin(a + b, i) < b / 2.0 {
                        heard[i / 64] &= !(1 << (i % 64));
                    }
                }
                let plan = &mut self.plans[cell as usize];
                plan.decode_for_tick(&payload, self.h.pop.epoch(cell), DB);
                let plan = &*plan;
                let armed: Vec<Option<f64>> =
                    (0..n).map(|i| self.h.pop.retry_deadline(i)).collect();
                let mut walk = heard.clone();
                self.h.pop.stamp(cell, &mut walk, &payload, plan, at);
                for i in (0..n).filter(|&i| Self::has(&heard, i)) {
                    match armed[i] {
                        Some(_) if !Self::has(&walk, i) => self.arm.stamped += 1,
                        Some(deadline) if at.as_secs() >= deadline => self.arm.walked_due += 1,
                        _ => {}
                    }
                }
                let tlb = &self.tlb;
                let mut apply = |i: usize, mut client: ClientMut<'_>, out: &mut Vec<_>| {
                    view_tlb_ok &= client.tlb() == tlb[i];
                    let mut actions = Vec::new();
                    client.on_report_planned(
                        at,
                        &payload,
                        plan,
                        &mut actions,
                        &mut PlanStats::default(),
                    );
                    if !actions.is_empty() {
                        out.push((i, actions));
                    }
                };
                for i in (0..n).filter(|&i| Self::has(&walk, i)) {
                    apply(i, self.h.pop.client_mut(i), &mut stamped);
                }
                for i in (0..n).filter(|&i| Self::has(&heard, i)) {
                    apply(i, self.eager.client_mut(i), &mut eager);
                }
                for i in (0..n).filter(|&i| Self::has(&heard, i)) {
                    self.tlb[i] = at;
                }
            }
            // A query for one item: half the time one the client caches
            // (so limbo entries get checked), else any item.
            2 if connected && !pending => {
                let cached: Vec<ItemId> = self.eager.cache(c).items_iter().map(|e| e.0).collect();
                let items = match cached.len() {
                    k if k > 0 && b < 0.5 => [cached[((b * 2.0 * k as f64) as usize).min(k - 1)]],
                    _ => [id(a)],
                };
                self.h.pop.start_query(c, now, &items);
                self.eager.start_query(c, now, &items);
                self.h.asked[c] = items.to_vec();
            }
            3 if connected && pending => {
                let item = self.h.asked[c][0];
                let version = self.h.version(item);
                for (pop, out) in [
                    (&mut self.h.pop, &mut stamped),
                    (&mut self.eager, &mut eager),
                ] {
                    let mut client = pop.client_mut(c);
                    view_tlb_ok &= client.tlb() == self.tlb[c];
                    let mut actions = Vec::new();
                    client.on_data_into(now, item, version, &mut actions);
                    out.push((c, actions));
                }
            }
            // Client `c`'s cell overhears an item addressed to `c`.
            4 if connected => {
                let item = id(a);
                let version = self.h.version(item);
                let mut mask = self.listeners(self.h.pop.cell_of(c));
                mask[c / 64] &= !(1 << (c % 64));
                for i in (0..n).filter(|&i| Self::has(&mask, i)) {
                    let mut client = self.h.pop.client_mut(i);
                    view_tlb_ok &= client.tlb() == self.tlb[i];
                    client.on_snooped_data(now, item, version);
                    self.eager.client_mut(i).on_snooped_data(now, item, version);
                }
            }
            5 if connected && !pending => {
                self.h.pop.disconnect(c);
                self.eager.disconnect(c);
            }
            6 if !connected => {
                self.h.pop.reconnect(c);
                self.eager.reconnect(c);
            }
            // A handoff to another cell, listening or not.
            7 if cells > 1 => {
                let hop = 1 + (a * f64::from(cells - 1)) as u32 % (cells - 1);
                let dest = (self.h.pop.cell_of(c) + hop) % cells;
                self.h.pop.handoff(c, dest);
                self.eager.handoff(c, dest);
            }
            // A validity verdict on client `c`'s cache (checking
            // schemes): salvages or drops its limbo entries.
            8 if connected => {
                let scheme = self.h.pop.config().scheme;
                let cache: Vec<(ItemId, SimTime)> = self.eager.cache(c).items_iter().collect();
                let last = &self.h.last;
                let current =
                    |&(i, v): &(ItemId, SimTime)| v >= last[i.0 as usize].unwrap_or(SimTime::ZERO);
                let mut valid: Vec<ItemId> =
                    cache.iter().filter(|e| current(e)).map(|e| e.0).collect();
                // The server lists the valid items in ascending order.
                valid.sort_unstable();
                let stale: Vec<ItemId> =
                    cache.iter().filter(|e| !current(e)).map(|e| e.0).collect();
                for (pop, out) in [
                    (&mut self.h.pop, &mut stamped),
                    (&mut self.eager, &mut eager),
                ] {
                    let mut client = pop.client_mut(c);
                    view_tlb_ok &= client.tlb() == self.tlb[c];
                    let mut actions = Vec::new();
                    match scheme {
                        Scheme::SimpleChecking => {
                            client.on_validity_into(now, now, &valid, &mut actions);
                        }
                        Scheme::Gcore => {
                            client.on_group_validity_into(now, now, b < 0.8, &stale, &mut actions);
                        }
                        _ => {}
                    }
                    out.push((c, actions));
                }
            }
            _ => {}
        }
        prop_assert!(view_tlb_ok, "a view read a stale Tlb at op {}", op);
        Ok((stamped, eager))
    }

    /// Every client reads the same `Tlb`, flags and effective cache on
    /// both sides and the model's `Tlb`; the stamped side's flags and
    /// holders index are exact, its index arena stays within the peak
    /// number of cached entries, and both sides hold one cache body per
    /// client that ever cached an item, besides the shared empty one.
    /// (A step that inserts into a cache leaves it non-empty, so a check
    /// after every step sees every such client.)
    fn check(&mut self) -> Result<(), TestCaseError> {
        let (pop, eager) = (&self.h.pop, &self.eager);
        for i in 0..self.tlb.len() {
            prop_assert_eq!(pop.tlb(i), self.tlb[i], "client {}", i);
            prop_assert_eq!(eager.tlb(i), self.tlb[i], "client {}", i);
            prop_assert_eq!(pop.cell_of(i), eager.cell_of(i), "client {}", i);
            prop_assert_eq!(observe(pop, i), observe(eager, i), "client {}", i);
        }
        let entries: usize = (0..pop.len()).map(|i| pop.cache(i).len()).sum();
        self.peak_entries = self.peak_entries.max(entries);
        for (i, ever) in self.ever_cached.iter_mut().enumerate() {
            *ever |= !pop.cache(i).is_empty();
        }
        let cachers = self.ever_cached.iter().filter(|&&e| e).count();
        prop_assert_eq!(pop.cache_bodies(), 1 + cachers);
        prop_assert_eq!(eager.cache_bodies(), 1 + cachers);
        prop_assert!(
            pop.holders_arena_len() <= self.peak_entries,
            "holders arena {} past the peak of {} entries",
            pop.holders_arena_len(),
            self.peak_entries
        );
        for i in 0..self.tlb.len() {
            let shared = match (pop.sig_baseline(i), eager.sig_baseline(i)) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => a.is_none() && b.is_none(),
            };
            prop_assert!(shared, "client {}'s baseline is not its last report's", i);
        }
        holders_exact(pop)?;
        flags_exact(pop)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every point of a history where the client is quiet, every
    /// report kind applied through the handler leaves it exactly as a
    /// `Tlb` stamp does — then it and a copy whose fan-out stamps replay
    /// the rest of the history in lockstep.
    #[test]
    fn a_quiet_client_takes_any_report_as_a_stamp(
        scheme in 0usize..8,
        retry in any::<bool>(),
        full_cache in any::<bool>(),
        ops in prop::collection::vec((0u32..8, 0.0..1.0f64, 0.0..1.0f64), 0..28),
    ) {
        let cfg = cfg(SCHEMES[scheme], retry, full_cache);
        let steps: Vec<Step> = ops.iter().map(|&(op, a, b)| (0, op, a, b)).collect();
        let mut h = Harness::new(cfg, 1);
        let mut quiet_at = Vec::new();
        for k in 0..=steps.len() {
            flags_exact(&h.pop)?;
            if h.pop.is_connected(0) && quiet(&h.pop, 0) {
                quiet_at.push(k);
            }
            if let Some(s) = steps.get(k) {
                h.step(s, Fanout::WalkAll);
            }
        }
        for k in quiet_at {
            for probe in PROBES.into_iter().filter(|&p| applies_to(p, cfg.scheme)) {
                let mut stamped = Harness::replay(cfg, &steps[..k]);
                let mut handled = Harness::replay(cfg, &steps[..k]);
                let at = handled.next_broadcast();
                let tlb = handled.pop.tlb(0);
                let baseline = handled.pop.sig_baseline(0);
                let payload = probe_report(probe, tlb.as_secs(), at, baseline, &handled.signer);
                if let ReportPayload::BitSeq(bs) = &payload {
                    let sel = bs.select(tlb);
                    prop_assert!(
                        matches!(
                            (probe, sel),
                            (Probe::BsClean, BsSelect::Clean)
                                | (Probe::BsPrefix, BsSelect::Prefix(_))
                                | (Probe::BsDropAll, BsSelect::DropAll)
                        ),
                        "{:?} selected {:?}",
                        probe,
                        sel
                    );
                }
                let before = observe(&handled.pop, 0);
                prop_assert!(stamped.broadcast(&payload, Fanout::Stamp).is_empty());
                let actions = handled.broadcast(&payload, Fanout::WalkAll);
                prop_assert!(actions.is_empty(), "{:?} on a quiet client: {:?}", probe, actions);
                let after = observe(&handled.pop, 0);
                let baseline = match &payload {
                    ReportPayload::Sig(sig, _) => Some(sig.combined.to_vec()),
                    _ => before.baseline.clone(),
                };
                prop_assert_eq!(&after, &Observed { tlb: t(at), baseline, ..before });
                prop_assert_eq!(observe(&stamped.pop, 0), after);
                flags_exact(&handled.pop)?;
                for s in &steps[k..] {
                    let x = stamped.step(s, Fanout::Stamp);
                    let y = handled.step(s, Fanout::WalkAll);
                    prop_assert_eq!(x, y, "{:?} at step {}", probe, k);
                    prop_assert_eq!(observe(&stamped.pop, 0), observe(&handled.pop, 0));
                    flags_exact(&stamped.pop)?;
                }
            }
        }
    }

    /// A whole population, stamping its vouched clients and walking the
    /// rest, emits the same actions and ends every step in the same
    /// state as one walking every delivered client, at population sizes
    /// that leave a partial last bitmap word.
    #[test]
    fn stamp_plus_walk_equals_walking_everyone(
        scheme in 0usize..8,
        retry in any::<bool>(),
        full_cache in any::<bool>(),
        n in 1usize..140,
        steps in prop::collection::vec((0usize..140, 0u32..8, 0.0..1.0f64, 0.0..1.0f64), 0..500),
    ) {
        let n = n + usize::from(n % 64 == 0);
        let cfg = cfg(SCHEMES[scheme], retry, full_cache);
        let mut stamped = Harness::new(cfg, n);
        let mut walked = Harness::new(cfg, n);
        for s in &steps {
            let x = stamped.step(s, Fanout::Stamp);
            let y = walked.step(s, Fanout::WalkAll);
            prop_assert_eq!(x, y);
            for i in 0..n {
                prop_assert_eq!(observe(&stamped.pop, i), observe(&walked.pop, i), "client {}", i);
            }
            flags_exact(&stamped.pop)?;
            flags_exact(&walked.pop)?;
        }
    }
}

/// Runs 64 histories of [`Lockstep`] drawn from `strategy`, with the
/// stream `proptest!` draws for the test `name` in this module, and
/// returns how often their stamps met a retry-armed listener.
fn lockstep_cases<S: Strategy>(
    name: &str,
    strategy: S,
    run: impl Fn(S::Value) -> Result<RetryArm, TestCaseError>,
) -> RetryArm {
    let mut rng = TestRng::deterministic(&format!("{}::{name}", module_path!()));
    let mut total = RetryArm::default();
    for case in 0..64 {
        match run(strategy.sample(&mut rng)) {
            Ok(arm) => {
                total.stamped += arm.stamped;
                total.walked_due += arm.walked_due;
            }
            Err(e) => panic!("property failed at case {case}: {e}"),
        }
    }
    total
}

/// Both lockstep cases reach the stamp's retry arm: some retry-armed
/// client is stamped before its deadline and some due one is walked.
fn assert_retry_arm_reached(arm: RetryArm) {
    assert!(arm.stamped > 0, "no retry-armed client was stamped");
    assert!(arm.walked_due > 0, "no due client was walked");
}

/// The lazy `Tlb` of stamped clients matches an eager per-client
/// stamp after every step, over two or three cells: lossy reports
/// (a stamped client that loses one keeps the previous epoch),
/// handoffs, dozes, query starts and snoops each materialize it in
/// time, and both populations emit the same actions.
#[test]
fn stamped_tlb_matches_an_eager_stamp() {
    let strategy = (
        (0usize..8, any::<bool>(), any::<bool>()),
        (
            2u32..4,
            1usize..140,
            prop::collection::vec((0usize..140, 0u32..8, 0.0..1.0f64, 0.0..1.0f64), 0..400),
        ),
    );
    let arm = lockstep_cases(
        "stamped_tlb_matches_an_eager_stamp",
        strategy,
        |((scheme, retry, full_cache), (cells, n, steps))| {
            let cfg = cfg(SCHEMES[scheme], retry, full_cache);
            let mut l = Lockstep::new(cfg, n, cells);
            l.check()?;
            for s in &steps {
                let (stamped, eager) = l.step(s)?;
                prop_assert_eq!(stamped, eager);
                l.check()?;
            }
            Ok(l.arm)
        },
    );
    assert_retry_arm_reached(arm);
}

/// The vouched stamp against an eager twin that walks every
/// listener: over two or three cells, clients with caches of four
/// items over a 32-item database (so caches fill and evict), and
/// window, BS, AT and SIG reports — covering some listeners and not
/// others, lost by some — interleaved with updates, queries, data,
/// snoops, dozes, reconnections, handoffs and validity verdicts.
/// After every step both sides hold the same `Tlb`, effective cache
/// entries (version, vouch time, state), counters, flags and retry
/// deadlines, and emitted the same actions; the holders index is exact
/// and its arena bounded by the peak number of cached entries.
#[test]
fn vouched_stamp_matches_an_eager_walk() {
    // Few clients, so each lives through long histories (dozes, limbo,
    // verdicts).
    let strategy = (
        (0usize..8, any::<bool>(), any::<bool>()),
        (
            2u32..4,
            1usize..24,
            prop::collection::vec((0usize..24, 0u32..9, 0.0..1.0f64, 0.0..1.0f64), 0..500),
        ),
    );
    let arm = lockstep_cases(
        "vouched_stamp_matches_an_eager_walk",
        strategy,
        |((scheme, retry, full_cache), (cells, n, steps))| {
            let mut l = Lockstep::new(cfg(SCHEMES[scheme], retry, full_cache), n, cells);
            l.check()?;
            for s in &steps {
                let (stamped, eager) = l.step(s)?;
                prop_assert_eq!(stamped, eager);
                l.check()?;
            }
            Ok(l.arm)
        },
    );
    assert_retry_arm_reached(arm);
}

/// The start state: every client of a non-SIG population is vouchable,
/// a query with an item waiting on the next report makes its client
/// unvouchable, and the stamp serves exactly the vouchable ones. A SIG
/// client becomes vouchable once a report gives it a baseline, and a
/// report with the same signatures then stamps it.
#[test]
fn fresh_clients_are_quiet_until_they_wait_on_a_report() {
    let mut pop = ClientPop::new(cfg(Scheme::Aaw, false, true), 70);
    assert!((0..70).all(|i| pop.is_vouchable(i)));
    pop.start_query(3, t(1.0), &[ItemId(5)]);
    pop.start_query(66, t(1.0), &[ItemId(5)]);
    assert!(!pop.is_vouchable(3) && !pop.is_vouchable(66));
    assert!(!pop.vouchable_from_columns(3));
    let report = ReportPayload::Window(WindowReport {
        broadcast_at: t(20.0),
        window_start: t(-180.0),
        records: Vec::new(),
        dummy: None,
    });
    let mut plan = PlanCache::new();
    plan.decode_for_tick(&report, pop.epoch(0), DB);
    let mut walk = pop.connected_words().to_vec();
    assert_eq!(pop.stamp(0, &mut walk, &report, &plan, t(20.0)), 68);
    assert_eq!(walk, vec![1 << 3, 1 << 2]);
    assert_eq!((pop.tlb(0), pop.tlb(3)), (t(20.0), SimTime::ZERO));

    let mut sig = ClientPop::new(cfg(Scheme::Sig, false, true), 3);
    assert!((0..3).all(|i| !sig.is_vouchable(i) && !sig.vouchable_from_columns(i)));
    let signer = Signer::new(8, 16, 7, DB);
    let combined = signer.combine(&[SimTime::ZERO; DB as usize]);
    for (at, stamped) in [(20.0, 0), (40.0, 3)] {
        let report = ReportPayload::Sig(
            SigReport {
                broadcast_at: t(at),
                combined: Arc::clone(&combined),
            },
            signer.clone(),
        );
        plan.decode_for_tick(&report, sig.epoch(0), DB);
        let mut walk = sig.connected_words().to_vec();
        assert_eq!(sig.stamp(0, &mut walk, &report, &plan, t(at)), stamped);
        for i in (0..3).filter(|&i| walk[0] & (1 << i) != 0) {
            sig.client_mut(i).on_report_planned(
                t(at),
                &report,
                &plan,
                &mut Vec::new(),
                &mut PlanStats::default(),
            );
        }
        assert!((0..3).all(|i| sig.is_vouchable(i) && sig.tlb(i) == t(at)));
        assert!((0..3).all(|i| sig.sig_baseline(i) == Some(&combined)));
    }
}
