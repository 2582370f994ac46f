//! The mobility layer: each client's cell-residency clock and roam coin.
//! The engine holds one only in a multi-cell topology.

use crate::metrics::MobilityMetrics;
use mobicache_model::{CellTopology, SimConfig};
use mobicache_sim::{Exp, SimRng, StreamId};

pub(crate) struct Mobility {
    topo: CellTopology,
    /// Per-client mobility streams (cell residency, roam choice), so
    /// enabling more cells (or more clients) never perturbs the
    /// workload or fault streams.
    rng: Vec<SimRng>,
    residency: Exp,
    /// Clients whose think-scheduled query arrival landed inside their
    /// own handoff blackout; the query is re-issued at handoff arrival.
    query_after_handoff: Vec<bool>,
    pub(crate) metrics: MobilityMetrics,
}

impl Mobility {
    pub(crate) fn new(cfg: &SimConfig) -> Option<Self> {
        cfg.cells.is_multi().then(|| Mobility {
            topo: cfg.cells,
            rng: (0..cfg.num_clients)
                .map(|c| SimRng::for_stream(cfg.seed, StreamId::Mobility(c)))
                .collect(),
            residency: Exp::with_mean(cfg.cells.mean_residency_secs),
            query_after_handoff: vec![false; cfg.num_clients as usize],
            metrics: MobilityMetrics::default(),
        })
    }

    /// Each client's first residency, in client-index order.
    pub(crate) fn first_expiries(&mut self) -> impl Iterator<Item = f64> + '_ {
        let residency = self.residency;
        self.rng.iter_mut().map(move |rng| residency.sample(rng))
    }

    /// Client `i`'s residency in `from_cell` expired: returns the
    /// handoff destination (`None` to defer) and the next residency, in
    /// seconds. A `busy` client —
    /// resolving a query, dozing, or holding an unresolved reconnection
    /// gap — defers by a fresh residency period, so no in-flight traffic
    /// or salvage state crosses a cell boundary. Otherwise the roam coin
    /// picks a destination (possibly the same cell: a stay is a
    /// zero-distance handoff). Both arms of the coin draw and disconnect
    /// identically, which is what lets the equivalence battery compare
    /// `p_roam = 1` against `p_roam = 0` runs bit-for-bit.
    pub(crate) fn on_expiry(&mut self, i: usize, from_cell: u32, busy: bool) -> (Option<u32>, f64) {
        let rng = &mut self.rng[i];
        if busy {
            self.metrics.handoffs_deferred += 1;
            return (None, self.residency.sample(rng));
        }
        let dest = if !rng.coin(self.topo.p_roam) {
            from_cell
        } else if self.topo.cells == 2 {
            1 - from_cell
        } else {
            // Uniform over the other cells: draw in [0, cells-1) and
            // skip past the current cell.
            let r = rng.next_below(u64::from(self.topo.cells) - 1) as u32;
            r + u32::from(r >= from_cell)
        };
        (Some(dest), self.residency.sample(rng))
    }

    pub(crate) fn park_query(&mut self, i: usize) {
        self.query_after_handoff[i] = true;
    }

    /// Client `i` completed a handoff; `true` if a query was parked.
    pub(crate) fn arrive(&mut self, i: usize) -> bool {
        self.metrics.handoffs += 1;
        std::mem::take(&mut self.query_after_handoff[i])
    }
}
