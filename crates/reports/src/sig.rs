//! The `SIG` (signatures) invalidation scheme of Barbara & Imielinski.
//!
//! Instead of an update list, the server periodically broadcasts `m`
//! **combined signatures**. Each combined signature is the XOR of the
//! per-item signatures of a pseudo-random half of the database, where an
//! item's signature is a `k`-bit hash of `(item, version)`. A client keeps
//! the combined signatures from the last report it heard; on the next
//! report it compares: a combined signature that differs proves that some
//! member item changed. Group-testing decoding then flags a cached item as
//! stale when **every** combined signature containing it differs.
//!
//! Properties (verified by the tests below):
//!
//! * *No false negatives* w.h.p.: a genuinely updated item flips each of
//!   its ≈ m/2 containing signatures (two simultaneous changes cancelling
//!   a k-bit XOR has probability 2⁻ᵏ per signature).
//! * *False positives grow with the number of updates*: with `c` changed
//!   items, an unchanged item's containing signature also differs with
//!   probability `1 − 2⁻ᶜ`, so precision degrades as `c` grows — exactly
//!   the known limitation that makes `SIG` suitable only for low update
//!   rates, and why the paper's adaptive schemes build on `TS`/`BS`
//!   instead. The report size, in exchange, is a constant `m·k` bits
//!   independent of the update rate and disconnection time.
//!
//! The membership relation and per-item signatures are derived
//! deterministically from a shared seed (in a real system: a protocol
//! constant), so server and clients agree without communication.
//!
//! **The mask decode.** A [`Signer`] hashes each item's membership once,
//! into a table of `num_sigs`-bit masks (bit `j` set iff the item joins
//! signature `j`) that the server and every client share. A client's
//! decode ([`SigReport::stale_into`]) is then one word, `differs` (bit
//! `j` set iff signature `j` differs from the client's stored one), and
//! one AND per cached item: the item is stale iff its mask is non-zero
//! and `mask & !differs == 0`. A report whose signatures all match
//! tests no item. [`SigReport::decide`], which hashes every membership
//! per cached item, is the decode's reference.

use mobicache_model::msg::SizeParams;
use mobicache_model::units::Bits;
use mobicache_model::ItemId;
use mobicache_sim::SimTime;
use std::fmt;
use std::sync::Arc;

/// Deterministic signature/membership oracle shared by server and
/// clients, with each item's membership mask hashed once. The fields
/// are private: the masks are a function of the others.
#[derive(Clone, PartialEq, Eq)]
pub struct Signer {
    /// Number of combined signatures per report (≤ 64, the mask width).
    num_sigs: u32,
    /// Width of each signature in bits (≤ 64).
    sig_bits: u32,
    /// Protocol constant seeding membership and hashing.
    seed: u64,
    /// Item `i`'s membership mask ([`Signer::mask`]), shared by every
    /// clone.
    masks: Arc<[u64]>,
}

impl Signer {
    /// A signer with `num_sigs` combined signatures of `sig_bits` bits
    /// over the items `0..items`, whose membership masks it hashes here,
    /// once.
    ///
    /// # Panics
    /// Panics if `sig_bits` is 0 or exceeds 64, or `num_sigs` is 0 or
    /// exceeds 64.
    pub fn new(num_sigs: u32, sig_bits: u32, seed: u64, items: u32) -> Self {
        assert!(
            (1..=64).contains(&num_sigs),
            "num_sigs must be in 1..=64, the mask width, got {num_sigs}"
        );
        assert!(
            (1..=64).contains(&sig_bits),
            "sig_bits must be in 1..=64, got {sig_bits}"
        );
        let mut signer = Signer {
            num_sigs,
            sig_bits,
            seed,
            masks: Arc::from([]),
        };
        let member = |j: u32, i: u32| u64::from(signer.is_member(j, ItemId(i))) << j;
        signer.masks = (0..items)
            .map(|i| (0..num_sigs).fold(0, |m, j| m | member(j, i)))
            .collect();
        signer
    }

    #[inline]
    fn mix(&self, a: u64, b: u64) -> u64 {
        // SplitMix64-style finalizer over the pair.
        let mut z = a
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(b)
            .wrapping_add(self.seed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` when `item` participates in combined signature `sig_index`
    /// (each item joins each signature independently with probability ½).
    #[inline]
    pub fn is_member(&self, sig_index: u32, item: ItemId) -> bool {
        self.mix(sig_index as u64 ^ 0xA5A5_A5A5, item.0 as u64) & 1 == 1
    }

    /// `true` when `other` reads the same mask table as this signer (one
    /// is a clone of the other), not a copy hashed again.
    pub fn shares_masks(&self, other: &Signer) -> bool {
        Arc::ptr_eq(&self.masks, &other.masks)
    }

    /// The signatures `item` joins, from the table: bit `j` set iff
    /// [`Signer::is_member`]`(j, item)`.
    ///
    /// # Panics
    /// Panics if `item` is outside the items the signer was built for.
    #[inline]
    pub fn mask(&self, item: ItemId) -> u64 {
        self.masks[item.0 as usize]
    }

    /// The `sig_bits`-bit signature of `(item, version)`.
    #[inline]
    pub fn item_signature(&self, item: ItemId, version: SimTime) -> u64 {
        let v = self.mix(item.0 as u64, version.as_secs().to_bits());
        if self.sig_bits == 64 {
            v
        } else {
            v & ((1u64 << self.sig_bits) - 1)
        }
    }

    /// XORs `delta` into every combined signature of `sigs` that `item`
    /// joins, branch-free: one update's incremental maintenance, and one
    /// item's term of [`Signer::combine`].
    #[inline]
    pub fn xor_member(&self, sigs: &mut [u64], item: ItemId, delta: u64) {
        let m = self.mask(item);
        for (j, sig) in sigs.iter_mut().enumerate() {
            *sig ^= delta & 0u64.wrapping_sub((m >> j) & 1);
        }
    }

    /// Builds the combined signatures over the whole database given each
    /// item's current version (indexed by item id).
    pub fn combine(&self, versions: &[SimTime]) -> Arc<[u64]> {
        let mut sigs = vec![0u64; self.num_sigs as usize];
        for (idx, &version) in versions.iter().enumerate() {
            let item = ItemId(idx as u32);
            self.xor_member(&mut sigs, item, self.item_signature(item, version));
        }
        sigs.into()
    }
}

/// The mask table prints as its length.
impl fmt::Debug for Signer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signer")
            .field("num_sigs", &self.num_sigs)
            .field("sig_bits", &self.sig_bits)
            .field("seed", &self.seed)
            .field("items", &self.masks.len())
            .finish()
    }
}

/// A signatures report: the current combined signatures.
#[derive(Clone, Debug, PartialEq)]
pub struct SigReport {
    /// Broadcast timestamp `T_i`.
    pub broadcast_at: SimTime,
    /// The `m` combined signatures, shared: reports of an unchanged
    /// database share one buffer, and a client stores the buffer of the
    /// last report it heard as its baseline.
    pub combined: Arc<[u64]>,
}

/// Outcome of comparing a new report with the client's stored one.
#[derive(Clone, Debug, PartialEq)]
pub enum SigDecision {
    /// The client has no stored signatures to compare against (first
    /// report it ever hears); it must treat its cache as unverifiable.
    NoBaseline,
    /// Drop the listed cached items (those whose containing signatures
    /// all differ).
    Invalidate(Vec<ItemId>),
}

impl SigReport {
    /// The mask decode: appends to `out` the items of `cached` that every
    /// signature they join flags, against the client's stored
    /// `baseline`. An item in no signature is never flagged, and a
    /// report equal to the baseline tests no item. Flags exactly what
    /// [`SigReport::decide`] flags, in `cached` order.
    pub fn stale_into<I>(&self, signer: &Signer, baseline: &[u64], cached: I, out: &mut Vec<ItemId>)
    where
        I: IntoIterator<Item = ItemId>,
    {
        debug_assert_eq!(
            baseline.len(),
            self.combined.len(),
            "baseline/report signature count mismatch"
        );
        // Bit `j` set iff signature `j` differs from the baseline's.
        let differs = baseline
            .iter()
            .zip(self.combined.iter())
            .enumerate()
            .fold(0, |d, (j, (a, b))| d | (u64::from(a != b) << j));
        if differs == 0 {
            return;
        }
        out.extend(cached.into_iter().filter(|&item| {
            let m = signer.mask(item);
            m != 0 && m & !differs == 0
        }));
    }

    /// Group-testing decode by hashing: given the client's stored combined
    /// signatures (from time `Tlb`) and its cached items, flags the items
    /// to invalidate. The reference [`SigReport::stale_into`] is tested
    /// against; the simulator never calls it.
    pub fn decide<I>(&self, signer: &Signer, baseline: Option<&[u64]>, cached: I) -> SigDecision
    where
        I: IntoIterator<Item = ItemId>,
    {
        let Some(baseline) = baseline else {
            return SigDecision::NoBaseline;
        };
        assert_eq!(
            baseline.len(),
            self.combined.len(),
            "baseline/report signature count mismatch"
        );
        let differs: Vec<bool> = baseline
            .iter()
            .zip(self.combined.iter())
            .map(|(a, b)| a != b)
            .collect();
        let stale = cached
            .into_iter()
            .filter(|&item| {
                let mut in_any = false;
                for (j, &diff) in differs.iter().enumerate() {
                    if signer.is_member(j as u32, item) {
                        in_any = true;
                        if !diff {
                            return false; // a clean containing signature vouches for it
                        }
                    }
                }
                in_any // an item in no signature at all cannot be vouched for
            })
            .collect();
        SigDecision::Invalidate(stale)
    }

    /// Report body size: `m · k` bits plus the timestamp — constant in the
    /// update rate and the disconnection time.
    pub fn size_bits(&self, signer: &Signer, p: &SizeParams) -> Bits {
        p.timestamp_bits + (signer.num_sigs as f64) * (signer.sig_bits as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn signer() -> Signer {
        Signer::new(32, 32, 0x516, 1000)
    }

    fn versions(n: usize) -> Vec<SimTime> {
        vec![SimTime::ZERO; n]
    }

    #[test]
    fn membership_is_roughly_half() {
        let s = signer();
        let members = (0..1000).filter(|&i| s.is_member(0, ItemId(i))).count();
        assert!((400..600).contains(&members), "members {members}");
    }

    #[test]
    fn masks_hold_the_hashed_membership() {
        let s = signer();
        for i in [0, 1, 17, 999].map(ItemId) {
            let hashed = (0..32)
                .filter(|&j| s.is_member(j, i))
                .fold(0, |m, j| m | 1 << j);
            assert_eq!(s.mask(i), hashed, "{i:?}");
        }
    }

    #[test]
    #[should_panic(expected = "num_sigs must be in 1..=64")]
    fn more_signatures_than_the_mask_width_are_rejected() {
        Signer::new(65, 32, 0x516, 10);
    }

    #[test]
    fn sixty_four_signatures_fill_the_mask() {
        let s = Signer::new(64, 16, 0x516, 100);
        let all = (0..100).fold(0, |m, i| m | s.mask(ItemId(i)));
        assert_eq!(all, u64::MAX, "every signature has a member");
    }

    #[test]
    fn unchanged_database_invalidates_nothing() {
        let s = signer();
        let v = versions(100);
        let base = s.combine(&v);
        let report = SigReport {
            broadcast_at: t(10.0),
            combined: s.combine(&v),
        };
        match report.decide(&s, Some(&base), (0..100).map(ItemId)) {
            SigDecision::Invalidate(stale) => assert!(stale.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_update_is_always_caught() {
        let s = signer();
        let mut v = versions(200);
        let base = s.combine(&v);
        v[17] = t(5.0);
        let report = SigReport {
            broadcast_at: t(10.0),
            combined: s.combine(&v),
        };
        match report.decide(&s, Some(&base), (0..200).map(ItemId)) {
            SigDecision::Invalidate(stale) => {
                assert!(stale.contains(&ItemId(17)), "no false negative");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn few_updates_have_few_false_positives() {
        let s = signer();
        let n = 500usize;
        let mut v = versions(n);
        let base = s.combine(&v);
        for &i in &[3usize, 99, 250] {
            v[i] = t(7.0);
        }
        let report = SigReport {
            broadcast_at: t(10.0),
            combined: s.combine(&v),
        };
        match report.decide(&s, Some(&base), (0..n as u32).map(ItemId)) {
            SigDecision::Invalidate(stale) => {
                for &i in &[3u32, 99, 250] {
                    assert!(stale.contains(&ItemId(i)));
                }
                // With c=3 changes and m=32 sigs, an unchanged item's ~16
                // containing sigs must all differ: P ≈ (1-2^-3)^16 ≈ 0.12.
                // Bound loosely to keep the test robust.
                assert!(
                    stale.len() < 3 + n / 4,
                    "false positives {} out of {}",
                    stale.len() - 3,
                    n
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn many_updates_degrade_precision() {
        // The documented SIG failure mode: lots of updates make most
        // signatures differ, flagging much of the cache.
        let s = signer();
        let n = 400usize;
        let mut v = versions(n);
        let base = s.combine(&v);
        for item in v.iter_mut().take(n / 2) {
            *item = t(9.0);
        }
        let report = SigReport {
            broadcast_at: t(10.0),
            combined: s.combine(&v),
        };
        match report.decide(&s, Some(&base), (0..n as u32).map(ItemId)) {
            SigDecision::Invalidate(stale) => {
                assert!(stale.len() > n / 2, "most of the cache is flagged");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_baseline_means_no_verdict() {
        let s = signer();
        let report = SigReport {
            broadcast_at: t(10.0),
            combined: s.combine(&versions(10)),
        };
        assert_eq!(
            report.decide(&s, None, vec![ItemId(1)]),
            SigDecision::NoBaseline
        );
    }

    #[test]
    fn size_is_constant() {
        let s = signer();
        let p = SizeParams {
            db_size: 80_000,
            group_count: 64,
            timestamp_bits: 48.0,
            header_bits: 64.0,
            control_bytes: 512,
            item_bytes: 8192,
        };
        let report = SigReport {
            broadcast_at: t(10.0),
            combined: vec![0; 32].into(),
        };
        assert_eq!(report.size_bits(&s, &p), 48.0 + 32.0 * 32.0);
    }
}
