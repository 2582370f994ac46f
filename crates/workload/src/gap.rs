//! The client's between-queries process: think or disconnect.
//!
//! §4 of the paper: *"The arrival of a new query is separated from the
//! completion of the previous query by either an exponentially distributed
//! think time or an exponentially distributed disconnection time. Our
//! model assumes that each client may enter into a disconnection mode with
//! a probability p."* After each query completes, a coin with probability
//! `p` decides between a disconnection gap (the client powers down, missing
//! every broadcast) and a think gap (the client stays connected and keeps
//! listening to invalidation reports).

use mobicache_sim::{Exp, SimRng};

/// What the client does between queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapKind {
    /// Connected, listening to reports.
    Think,
    /// Powered down; every report during the gap is missed.
    Disconnect,
}

/// One sampled gap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gap {
    /// Think or disconnect.
    pub kind: GapKind,
    /// Duration in seconds.
    pub duration_secs: f64,
}

/// The gap sampler for one client.
#[derive(Clone, Debug)]
pub struct GapProcess {
    p_disconnect: f64,
    think: Exp,
    disconnect: Exp,
}

impl GapProcess {
    /// A process with the given disconnection probability and means.
    ///
    /// # Panics
    /// Panics if `p_disconnect` is outside `[0, 1]` (means are validated
    /// by [`Exp::with_mean`]).
    pub fn new(p_disconnect: f64, mean_think_secs: f64, mean_disconnect_secs: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_disconnect),
            "p_disconnect out of range: {p_disconnect}"
        );
        GapProcess {
            p_disconnect,
            think: Exp::with_mean(mean_think_secs),
            disconnect: Exp::with_mean(mean_disconnect_secs),
        }
    }

    /// Samples the gap following a query completion.
    pub fn sample(&self, rng: &mut SimRng) -> Gap {
        if rng.coin(self.p_disconnect) {
            Gap {
                kind: GapKind::Disconnect,
                duration_secs: self.disconnect.sample(rng),
            }
        } else {
            Gap {
                kind: GapKind::Think,
                duration_secs: self.think.sample(rng),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_disconnect_probability() {
        let g = GapProcess::new(0.3, 100.0, 400.0);
        let mut r = SimRng::new(77);
        let n = 100_000;
        let disc = (0..n)
            .filter(|_| g.sample(&mut r).kind == GapKind::Disconnect)
            .count() as f64
            / n as f64;
        assert!((disc - 0.3).abs() < 0.01, "disc fraction {disc}");
    }

    #[test]
    fn durations_match_their_means() {
        let g = GapProcess::new(0.5, 100.0, 400.0);
        let mut r = SimRng::new(78);
        let mut think_sum = 0.0;
        let mut think_n = 0u32;
        let mut disc_sum = 0.0;
        let mut disc_n = 0u32;
        for _ in 0..100_000 {
            let gap = g.sample(&mut r);
            match gap.kind {
                GapKind::Think => {
                    think_sum += gap.duration_secs;
                    think_n += 1;
                }
                GapKind::Disconnect => {
                    disc_sum += gap.duration_secs;
                    disc_n += 1;
                }
            }
        }
        assert!((think_sum / think_n as f64 - 100.0).abs() < 3.0);
        assert!((disc_sum / disc_n as f64 - 400.0).abs() < 10.0);
    }

    #[test]
    fn p_zero_never_disconnects() {
        let g = GapProcess::new(0.0, 100.0, 400.0);
        let mut r = SimRng::new(79);
        assert!((0..1000).all(|_| g.sample(&mut r).kind == GapKind::Think));
    }

    #[test]
    fn p_one_always_disconnects() {
        let g = GapProcess::new(1.0, 100.0, 400.0);
        let mut r = SimRng::new(80);
        assert!((0..1000).all(|_| g.sample(&mut r).kind == GapKind::Disconnect));
    }
}
