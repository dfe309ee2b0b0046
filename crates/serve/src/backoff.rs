//! Deterministic capped exponential backoff with PRNG jitter.
//!
//! The client-side half of the service's overload story: when the daemon
//! sheds load (`busy` + `retry-after-ms`) or a connection dies mid-frame,
//! the client must wait *without* either spinning (the old connect loop
//! burned a core polling `Instant::now`) or synchronizing with every
//! other client (naked exponential backoff makes retries arrive in
//! lockstep waves). The standard answer is exponential growth with
//! random jitter; here the jitter comes from `uu-check`'s seeded PRNG,
//! so a retry schedule is a pure function of its seed — reproducible in
//! tests, byte-identical across runs, yet decorrelated across clients
//! seeded differently.

use std::time::Duration;

use uu_check::Rng;

/// A deterministic backoff schedule: delay `n` is drawn uniformly from
/// `[base·2ⁿ / 2, base·2ⁿ]`, capped at `cap` — "equal jitter", which
/// keeps at least half of each exponential step (so retries genuinely
/// spread out) while bounding the worst-case wait.
#[derive(Debug)]
pub(crate) struct Backoff {
    rng: Rng,
    base_ms: u64,
    cap_ms: u64,
    attempt: u32,
}

impl Backoff {
    /// Default first-step delay (milliseconds).
    pub const DEFAULT_BASE_MS: u64 = 5;
    /// Default per-step cap (milliseconds).
    pub const DEFAULT_CAP_MS: u64 = 500;

    /// A schedule with the default base/cap, jittered from `seed`.
    pub fn new(seed: u64) -> Backoff {
        Backoff::with_limits(seed, Self::DEFAULT_BASE_MS, Self::DEFAULT_CAP_MS)
    }

    /// A schedule with explicit base and cap (milliseconds). A zero base
    /// is promoted to 1 ms so the schedule actually grows.
    pub fn with_limits(seed: u64, base_ms: u64, cap_ms: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            rng: Rng::seed_from_u64(seed),
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            attempt: 0,
        }
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let lo = (exp / 2).max(1);
        let ms = self.rng.gen_range_u64(lo, exp.saturating_add(1).max(lo + 1));
        Duration::from_millis(ms)
    }

    /// The delay to honor when the server supplied a `retry-after-ms`
    /// hint: at least the hint, jittered upward by up to the schedule's
    /// current exponential step (so hinted clients neither stampede back
    /// in unison nor keep hammering a daemon that stays saturated — the
    /// jitter window widens toward the cap on every bounce). Advances the
    /// attempt counter like any other draw.
    pub fn next_delay_hinted(&mut self, hint_ms: u64) -> Duration {
        let hint = hint_ms.min(self.cap_ms).max(1);
        let exp = self
            .base_ms
            .saturating_mul(1u64.checked_shl(self.attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms);
        self.attempt = self.attempt.saturating_add(1);
        let ms = self.rng.gen_range_u64(hint, hint.saturating_add(exp).saturating_add(1));
        Duration::from_millis(ms)
    }

    /// Sleep for [`next_delay`](Self::next_delay) (or the hinted variant
    /// when `hint_ms` is present).
    pub fn sleep(&mut self, hint_ms: Option<u64>) {
        let d = match hint_ms {
            Some(h) => self.next_delay_hinted(h),
            None => self.next_delay(),
        };
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut b = Backoff::new(seed);
            (0..8).map(|_| b.next_delay().as_millis()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds must decorrelate");
    }

    #[test]
    fn delays_grow_exponentially_within_bounds_then_cap() {
        let mut b = Backoff::with_limits(1, 10, 160);
        for n in 0..12 {
            let exp = (10u64 << n.min(10)).min(160);
            let d = b.next_delay().as_millis() as u64;
            assert!(
                d >= (exp / 2).max(1) && d <= exp,
                "attempt {n}: {d}ms outside [{}..{exp}]",
                exp / 2
            );
        }
        assert_eq!(b.attempt, 12);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let mut b = Backoff::with_limits(3, 100, 400);
        for _ in 0..80 {
            let d = b.next_delay().as_millis() as u64;
            assert!(d <= 400);
        }
    }

    #[test]
    fn retry_after_hint_is_honored_with_escalating_jitter() {
        let mut b = Backoff::new(5);
        for n in 0..16u32 {
            let exp = (Backoff::DEFAULT_BASE_MS << n.min(10)).min(Backoff::DEFAULT_CAP_MS);
            let d = b.next_delay_hinted(100).as_millis() as u64;
            assert!(
                (100..=100 + exp).contains(&d),
                "attempt {n}: {d}ms outside [100..{}]",
                100 + exp
            );
        }
        // A hint above the cap is clamped to the cap.
        let d = b.next_delay_hinted(10_000).as_millis() as u64;
        assert!(d <= 2 * Backoff::DEFAULT_CAP_MS);
    }

    #[test]
    fn zero_base_still_produces_positive_delays() {
        let mut b = Backoff::with_limits(9, 0, 0);
        assert!(b.next_delay().as_millis() >= 1);
    }
}
