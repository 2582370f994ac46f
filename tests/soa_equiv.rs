//! Struct-of-arrays equivalence: the columnar `ClientPop` engine must be
//! observationally identical to the per-client-struct engine it
//! replaced. The fixed-config half of that claim is pinned by
//! `tests/determinism.rs` — its GOLDEN digests were captured on the old
//! `Vec<Client>` engine and still hold. This suite pins the rest of the
//! space: over *randomized* configurations (population size, database
//! size, seed, horizon) and every scheme, the metrics must not depend on
//! how the columns are cut into shards — serial or any worker count —
//! and must reproduce run-to-run.

use mobicache::{run, RunOptions, Scheme, SimConfig};
use proptest::prelude::*;

fn metrics_repr(cfg: &SimConfig) -> String {
    let result = run(cfg, RunOptions::default()).expect("valid config");
    format!("{:?}", result.metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every scheme, random config: threads=1 ≡ threads=k ≡ auto, and a
    /// repeat run reproduces the serial metrics byte for byte.
    #[test]
    fn columnar_metrics_are_shard_invariant_for_every_scheme(
        num_clients in 1u32..200,
        db_size in 50u32..400,
        seed in any::<u64>(),
        threads in 2u32..6,
    ) {
        for scheme in Scheme::ALL {
            let mut cfg = SimConfig::paper_default().with_scheme(scheme);
            cfg.sim_time_secs = 800.0;
            cfg.db_size = db_size;
            cfg.num_clients = num_clients;
            cfg.seed = seed;
            let serial = metrics_repr(&cfg.clone().with_threads(1));
            prop_assert_eq!(
                &serial,
                &metrics_repr(&cfg.clone().with_threads(1)),
                "{:?}: run-to-run nondeterminism", scheme
            );
            prop_assert_eq!(
                &serial,
                &metrics_repr(&cfg.clone().with_threads(threads)),
                "{:?}: serial vs threads={}", scheme, threads
            );
            prop_assert_eq!(
                &serial,
                &metrics_repr(&cfg.clone().with_threads(0)),
                "{:?}: serial vs auto threads", scheme
            );
        }
    }
}
