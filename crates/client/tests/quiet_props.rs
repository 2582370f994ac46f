//! The quiet rule of the report fan-out, checked against the handler it
//! short-cuts. A client whose quiet flag is set — empty cache, no open
//! gap, no pending reconnection, and no query a report could move — must
//! come out of *any* report exactly as a `Tlb` stamp leaves it: no
//! actions, every other column unchanged, and the same behaviour from
//! then on. Random client histories drive all eight schemes, with and
//! without a retry policy, under both checking modes; after every step
//! the stored flag must equal the predicate re-derived from the columns.
//! A population-level case runs the stamp-plus-walk fan-out against
//! walking every delivered client, and the sharded walk against a serial
//! `client_mut` loop over the same mask.

use mobicache_cache::CacheEntry;
use mobicache_client::{
    ClientAction, ClientConfig, ClientCounters, ClientMut, ClientPop, PendingItem,
};
use mobicache_model::{CheckingMode, ItemId, RetryPolicy, Scheme};
use mobicache_reports::{
    AtReport, BitSequences, BsSelect, PlanCache, PlanStats, ReportPayload, SigReport, Signer,
    WindowReport,
};
use mobicache_sim::pool::WorkerPool;
use mobicache_sim::SimTime;
use proptest::prelude::*;

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

/// Whether the fan-out stamps a quiet client or walks it like the rest,
/// and whether the walk is sharded or a serial `client_mut` loop.
#[derive(Clone, Copy)]
enum Fanout {
    Stamp,
    StampSerial,
    WalkAll,
}

/// One step of a history: `(client, op, a, b)`, with `a` and `b` the
/// op's parameters as fractions. Op 1 is a population-wide broadcast;
/// the others act on one client and are skipped where the engine would
/// never produce them (a query while one is in flight, data to a dozing
/// client, ...).
type Step = (usize, u32, f64, f64);

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
    /// The last broadcast's `(client, actions)` record of every walked
    /// client, in index order.
    walked: Vec<(usize, Vec<ClientAction>)>,
}

impl Harness {
    fn new(cfg: ClientConfig, n: usize) -> Self {
        Harness {
            pop: ClientPop::new(cfg, n),
            tick: 0,
            sub: 0,
            last: vec![None; DB as usize],
            asked: vec![Vec::new(); n],
            signer: Signer::new(8, 16, 7),
            plan: PlanCache::new(),
            prev_at: SimTime::ZERO,
            walked: Vec::new(),
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
                    self.signer,
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

    /// Delivers `payload` to every connected client, stamping the quiet
    /// ones unless under [`Fanout::WalkAll`], and returns the non-empty
    /// action lists in client order.
    fn broadcast(
        &mut self,
        payload: &ReportPayload,
        fanout: Fanout,
        pool: &WorkerPool,
    ) -> Vec<(usize, Vec<ClientAction>)> {
        let at = payload.broadcast_at();
        self.tick += 1;
        self.sub = 0;
        self.plan.decode_for_tick(payload, self.prev_at, DB);
        self.prev_at = at;
        let mut walk = self.pop.connected_words().to_vec();
        if let Fanout::Stamp | Fanout::StampSerial = fanout {
            let quiet = (0..self.pop.len())
                .filter(|&i| self.pop.is_connected(i) && self.pop.is_quiet(i))
                .count();
            assert_eq!(self.pop.stamp_quiet(&mut walk, at), quiet as u64);
        }
        let plan = &self.plan;
        let apply = |mut client: ClientMut<'_>| {
            let mut actions = Vec::new();
            client.on_report_planned(at, payload, plan, &mut actions, &mut PlanStats::default());
            actions
        };
        self.walked = if let Fanout::StampSerial = fanout {
            (0..self.pop.len())
                .filter(|&i| walk[i / 64] & (1 << (i % 64)) != 0)
                .map(|i| (i, apply(self.pop.client_mut(i))))
                .collect()
        } else {
            let mut slots: Vec<Vec<(usize, Vec<ClientAction>)>> = vec![Vec::new(); pool.threads()];
            self.pop
                .for_each_delivered(pool, &walk, &mut slots, |i, client, slot| {
                    slot.push((i, apply(client)));
                });
            slots.concat()
        };
        let mut out = self.walked.clone();
        out.retain(|(_, a)| !a.is_empty());
        out
    }

    /// Applies one history step and returns the actions it emitted.
    fn step(
        &mut self,
        &(c, op, a, b): &Step,
        fanout: Fanout,
        pool: &WorkerPool,
    ) -> Vec<(usize, Vec<ClientAction>)> {
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
                return self.broadcast(&payload, fanout, pool);
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
            5 if connected && !pending => self.pop.disconnect(c, now),
            6 if !connected => {
                self.pop.reconnect(c, now);
            }
            7 if connected && scheme == Scheme::SimpleChecking => {
                let valid: Vec<ItemId> = self
                    .pop
                    .cache(c)
                    .items_iter()
                    .filter(|&(i, v)| v >= self.version(i))
                    .map(|(i, _)| i)
                    .collect();
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

    fn replay(cfg: ClientConfig, steps: &[Step], pool: &WorkerPool) -> Self {
        let mut h = Harness::new(cfg, 1);
        for s in steps {
            h.step(s, Fanout::WalkAll, pool);
        }
        h
    }
}

/// Everything observable of client `i`.
#[derive(Debug, PartialEq)]
struct Observed {
    tlb: SimTime,
    connected: bool,
    pending_query: bool,
    open_gap: bool,
    quiet: bool,
    pending: Vec<PendingItem>,
    counters: ClientCounters,
    evictions: u64,
    cache: Vec<(ItemId, CacheEntry)>,
}

fn observe(pop: &ClientPop, i: usize) -> Observed {
    let cache = pop.cache(i);
    let mut entries: Vec<(ItemId, CacheEntry)> = cache
        .items_iter()
        .map(|(item, _)| (item, *cache.peek(item).expect("resident")))
        .collect();
    entries.sort_unstable_by_key(|&(item, _)| item);
    Observed {
        tlb: pop.tlb(i),
        connected: pop.is_connected(i),
        pending_query: pop.has_pending_query(i),
        open_gap: pop.has_open_gap(i),
        quiet: pop.is_quiet(i),
        pending: pop.pending_items(i).to_vec(),
        counters: pop.counters(i),
        evictions: cache.evictions(),
        cache: entries,
    }
}

fn flags_exact(pop: &ClientPop) -> Result<(), TestCaseError> {
    for i in 0..pop.len() {
        prop_assert_eq!(pop.is_quiet(i), pop.quiet_from_columns(i), "client {}", i);
        if pop.config().scheme == Scheme::Sig {
            prop_assert!(!pop.is_quiet(i), "a SIG client is never quiet");
        }
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
}

const PROBES: [Probe; 9] = [
    Probe::WindowCovered,
    Probe::WindowUncovered,
    Probe::EnlargedCovered,
    Probe::EnlargedUncovered,
    Probe::BsClean,
    Probe::BsPrefix,
    Probe::BsDropAll,
    Probe::AtCovered,
    Probe::AtUncovered,
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
/// `tlb < at`.
fn probe_report(probe: Probe, tlb: f64, at: f64) -> ReportPayload {
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
    }
}

fn applies_to(probe: Probe, scheme: Scheme) -> bool {
    match probe {
        Probe::WindowCovered
        | Probe::WindowUncovered
        | Probe::EnlargedCovered
        | Probe::EnlargedUncovered => hears_windows(scheme),
        _ => scheme != Scheme::Sig,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At every point of a history where the client reads quiet, every
    /// report kind applied through the handler leaves it exactly as the
    /// fan-out's stamp does — then both copies replay the rest of the
    /// history in lockstep.
    #[test]
    fn a_quiet_client_takes_any_report_as_a_stamp(
        scheme in 0usize..8,
        retry in any::<bool>(),
        full_cache in any::<bool>(),
        ops in prop::collection::vec((0u32..8, 0.0..1.0f64, 0.0..1.0f64), 0..28),
    ) {
        let cfg = cfg(SCHEMES[scheme], retry, full_cache);
        let pool = WorkerPool::new(1);
        let steps: Vec<Step> = ops.iter().map(|&(op, a, b)| (0, op, a, b)).collect();
        let mut h = Harness::new(cfg, 1);
        let mut quiet_at = Vec::new();
        for k in 0..=steps.len() {
            flags_exact(&h.pop)?;
            if h.pop.is_connected(0) && h.pop.is_quiet(0) {
                quiet_at.push(k);
            }
            if let Some(s) = steps.get(k) {
                h.step(s, Fanout::WalkAll, &pool);
            }
        }
        for k in quiet_at {
            for probe in PROBES.into_iter().filter(|&p| applies_to(p, cfg.scheme)) {
                let mut stamped = Harness::replay(cfg, &steps[..k], &pool);
                let mut handled = Harness::replay(cfg, &steps[..k], &pool);
                let at = handled.next_broadcast();
                let tlb = handled.pop.tlb(0);
                let payload = probe_report(probe, tlb.as_secs(), at);
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
                prop_assert!(stamped.broadcast(&payload, Fanout::Stamp, &pool).is_empty());
                let actions = handled.broadcast(&payload, Fanout::WalkAll, &pool);
                prop_assert!(actions.is_empty(), "{:?} on a quiet client: {:?}", probe, actions);
                let after = observe(&handled.pop, 0);
                prop_assert_eq!(&after, &Observed { tlb: t(at), ..before });
                prop_assert_eq!(observe(&stamped.pop, 0), after);
                flags_exact(&handled.pop)?;
                for s in &steps[k..] {
                    let x = stamped.step(s, Fanout::Stamp, &pool);
                    let y = handled.step(s, Fanout::WalkAll, &pool);
                    prop_assert_eq!(x, y, "{:?} at step {}", probe, k);
                    prop_assert_eq!(observe(&stamped.pop, 0), observe(&handled.pop, 0));
                    flags_exact(&stamped.pop)?;
                }
            }
        }
    }

    /// A whole population, stamping its quiet clients and walking the
    /// rest, emits the same actions and ends every step in the same
    /// state as one walking every delivered client — serial and sharded.
    /// The sharded walk, which hands each chunk its own column slices,
    /// also matches a serial `client_mut` loop over the same mask, record
    /// for record and column for column, at population sizes that leave
    /// a partial last bitmap word.
    #[test]
    fn stamp_plus_walk_equals_walking_everyone(
        scheme in 0usize..8,
        retry in any::<bool>(),
        full_cache in any::<bool>(),
        n in 1usize..140,
        threads in 1usize..4,
        steps in prop::collection::vec((0usize..140, 0u32..8, 0.0..1.0f64, 0.0..1.0f64), 0..500),
    ) {
        let n = n + usize::from(n % 64 == 0);
        let cfg = cfg(SCHEMES[scheme], retry, full_cache);
        let pool = WorkerPool::new(threads);
        let mut stamped = Harness::new(cfg, n);
        let mut serial = Harness::new(cfg, n);
        let mut walked = Harness::new(cfg, n);
        for s in &steps {
            let x = stamped.step(s, Fanout::Stamp, &pool);
            let z = serial.step(s, Fanout::StampSerial, &pool);
            let y = walked.step(s, Fanout::WalkAll, &pool);
            prop_assert_eq!(&stamped.walked, &serial.walked);
            prop_assert_eq!(&x, &z);
            prop_assert_eq!(x, y);
            for i in 0..n {
                let o = observe(&stamped.pop, i);
                prop_assert_eq!(&o, &observe(&serial.pop, i), "client {}", i);
                prop_assert_eq!(o, observe(&walked.pop, i), "client {}", i);
            }
            flags_exact(&stamped.pop)?;
            flags_exact(&serial.pop)?;
            flags_exact(&walked.pop)?;
        }
    }
}

/// The start state: every client of a non-SIG population is quiet, a
/// query with an item waiting on the next report makes its client
/// loud, and the stamp serves exactly the quiet ones.
#[test]
fn fresh_clients_are_quiet_until_they_wait_on_a_report() {
    let mut pop = ClientPop::new(cfg(Scheme::Aaw, false, true), 70);
    assert!((0..70).all(|i| pop.is_quiet(i)));
    pop.start_query(3, t(1.0), &[ItemId(5)]);
    pop.start_query(66, t(1.0), &[ItemId(5)]);
    assert!(!pop.is_quiet(3) && !pop.is_quiet(66));
    assert!(!pop.quiet_from_columns(3));
    let mut walk = pop.connected_words().to_vec();
    assert_eq!(pop.stamp_quiet(&mut walk, t(20.0)), 68);
    assert_eq!(walk, vec![1 << 3, 1 << 2]);
    assert_eq!((pop.tlb(0), pop.tlb(3)), (t(20.0), SimTime::ZERO));

    let sig = ClientPop::new(cfg(Scheme::Sig, false, true), 3);
    assert!((0..3).all(|i| !sig.is_quiet(i) && !sig.quiet_from_columns(i)));
}
