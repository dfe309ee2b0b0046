//! Deterministic service-level fault injection ([`ServeOptions::fault`](crate::ServeOptions::fault)).
//!
//! PR 4's `UU_FAULT` grammar exercises every *pipeline* recovery path;
//! this module extends the same discipline one layer up, to the service
//! boundary. A plan is a comma-separated list of specs, each mirroring
//! the `UU_FAULT` shape:
//!
//! ```text
//! plan  := <kind>@<index>[:<seed>][,<kind>@<index>[:<seed>]...]
//! kind  := torn | disconnect | slow | panic | disk-full
//! index := zero-based compile-request index at which the fault fires
//!          (compile requests are counted in admission order, across all
//!          connections; control and run verbs don't advance it)
//! seed  := u64 (decimal or 0x-hex); for `slow` it is the injected stall
//!          in milliseconds (default 100)
//! ```
//!
//! The index counts *admitted compile requests* in admission order — a
//! global counter the service increments under its in-flight gauge — so
//! a plan fires at a deterministic point of the request stream
//! regardless of how many workers race on connections. Each spec fires
//! exactly once (its index is consumed as the counter passes it).
//!
//! What each kind injects (and which recovery path it exercises):
//!
//! * `torn` — the response frame is truncated mid-payload and the
//!   connection closed (client-side retry of transient I/O);
//! * `disconnect` — the connection is dropped without any response
//!   (client-side retry of unexpected EOF);
//! * `slow` — the handler stalls for `seed` ms while holding its
//!   in-flight slot (admission control / `busy` shedding under load);
//! * `panic` — the handler panics mid-request (containment +
//!   `handler_panics` accounting + the crash-loop circuit breaker);
//! * `disk-full` — every cache store during the request fails as if the
//!   disk were full (best-effort store + `store_errors` accounting).

use uu_core::split_fault_spec;

/// Which service-level fault a spec injects. See the module docs for the
/// recovery path each kind exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFaultKind {
    /// Truncate the response frame and close the connection.
    Torn,
    /// Drop the connection without responding.
    Disconnect,
    /// Stall the handler for `seed` milliseconds.
    Slow,
    /// Panic inside the request handler.
    Panic,
    /// Fail every cache store during the request (synthetic ENOSPC).
    DiskFull,
}

/// One `<kind>@<index>[:<seed>]` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFault {
    /// What to inject.
    pub kind: ServeFaultKind,
    /// Zero-based admitted-request index at which the fault fires.
    pub at: u64,
    /// Seed (stall milliseconds for `slow`; reserved otherwise).
    pub seed: u64,
}

/// A deterministic service fault plan: a list of specs, each firing at
/// its admitted-request index. Tests and benchmarks set it in
/// [`ServeOptions::fault`](crate::ServeOptions::fault); `uu-harness
/// serve` injects none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    /// The individual fault specs, in spec order.
    pub faults: Vec<ServeFault>,
}

impl ServeFaultPlan {
    /// Parse a comma-separated spec list (see the module-level grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed spec.
    pub fn parse(spec: &str) -> Result<ServeFaultPlan, String> {
        let mut faults = Vec::new();
        for part in spec.split(',') {
            let s = part.trim();
            if s.is_empty() {
                continue;
            }
            let (kind_s, at, seed) = split_fault_spec(s)?;
            let kind = match kind_s {
                "torn" => ServeFaultKind::Torn,
                "disconnect" => ServeFaultKind::Disconnect,
                "slow" => ServeFaultKind::Slow,
                "panic" => ServeFaultKind::Panic,
                "disk-full" => ServeFaultKind::DiskFull,
                other => {
                    return Err(format!(
                        "unknown serve fault kind `{other}` \
                         (expected torn|disconnect|slow|panic|disk-full)"
                    ))
                }
            };
            faults.push(ServeFault { kind, at, seed });
        }
        Ok(ServeFaultPlan { faults })
    }

    /// The fault armed for admitted-request index `idx`, if any. When two
    /// specs name the same index the first one in spec order wins.
    pub fn at(&self, idx: u64) -> Option<ServeFault> {
        self.faults.iter().copied().find(|f| f.at == idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_specs_round_trip() {
        use ServeFaultKind::*;
        for (s, kind, at, seed) in [
            ("torn@0", Torn, 0, 0),
            ("disconnect@3", Disconnect, 3, 0),
            ("slow@1:250", Slow, 1, 250),
            ("panic@7", Panic, 7, 0),
            ("disk-full@2:0x10", DiskFull, 2, 16),
        ] {
            let p = ServeFaultPlan::parse(s).unwrap();
            assert_eq!(p.faults, [ServeFault { kind, at, seed }], "{s}");
        }
    }

    #[test]
    fn comma_lists_parse_in_order() {
        let p = ServeFaultPlan::parse("slow@0:1500, disconnect@2, panic@3").unwrap();
        assert_eq!(p.faults.len(), 3);
        assert_eq!(p.at(0).unwrap().kind, ServeFaultKind::Slow);
        assert_eq!(p.at(0).unwrap().seed, 1500);
        assert_eq!(p.at(2).unwrap().kind, ServeFaultKind::Disconnect);
        assert_eq!(p.at(3).unwrap().kind, ServeFaultKind::Panic);
        assert_eq!(p.at(1), None);
        let indexes: Vec<u64> = p.faults.iter().map(|f| f.at).collect();
        assert_eq!(indexes, [0, 2, 3]);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for s in ["torn", "torn@", "torn@x", "frobnicate@3", "slow@1:zz", "panic@-1"] {
            assert!(ServeFaultPlan::parse(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn first_spec_wins_on_index_collision() {
        let p = ServeFaultPlan::parse("panic@1,slow@1:9").unwrap();
        assert_eq!(p.at(1).unwrap().kind, ServeFaultKind::Panic);
    }
}
