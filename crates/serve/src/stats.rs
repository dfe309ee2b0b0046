//! Typed, versioned cache/service statistics — the observability surface
//! of the compile service, following the workspace's versioned-stats
//! idiom (schema version field + stable JSON rendering).

use uu_core::Rung;

/// Stats schema version; bump on any field change so dashboards detect
/// skew instead of misreading counters. Version 2 added the service
/// counters (admission, deadlines, panics, quarantine, frame defects,
/// accept/connection/store errors).
pub const STATS_VERSION: u32 = 2;

/// Counters for one cache (and the service wrapped around it).
///
/// All counts are cumulative since cache creation. "Memory" and "disk"
/// hits are disjoint: a request served from memory never touches disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Compile requests served from the in-memory layer.
    pub compile_mem_hits: u64,
    /// Compile requests served from the on-disk layer.
    pub compile_disk_hits: u64,
    /// Compile requests that ran the pipeline.
    pub compile_misses: u64,
    /// Measure requests served from the in-memory layer.
    pub run_mem_hits: u64,
    /// Measure requests served from the on-disk layer.
    pub run_disk_hits: u64,
    /// Measure requests that ran the simulator.
    pub run_misses: u64,
    /// Modeled compile work saved by hits (deterministic clock units).
    pub work_saved: u64,
    /// Wall time spent in cache lookups (µs).
    pub lookup_micros: u64,
    /// Wall time spent running actual compiles on misses (µs).
    pub compile_micros: u64,
    /// Per-rung compile outcomes, indexed by [`Rung::index`] (hits count
    /// the rung recorded in the artifact).
    pub rung_counts: [u64; 4],
    /// Requests admitted past admission control (all verbs).
    pub requests: u64,
    /// Requests shed with a `busy` response because the in-flight gauge
    /// was at its cap.
    pub busy_shed: u64,
    /// Compiles that hit their per-request deadline on the deterministic
    /// work clock (answered, degraded, `timed-out: true`).
    pub deadline_hits: u64,
    /// Handler panics contained by the per-request guard.
    pub handler_panics: u64,
    /// Module hashes currently quarantined by the crash-loop breaker.
    pub quarantined_modules: u64,
    /// Requests rejected because their module hash was quarantined.
    pub quarantined_rejects: u64,
    /// Damaged frames answered with a structured error (oversized,
    /// non-UTF-8, malformed).
    pub frame_defects: u64,
    /// Failed `accept` calls on the listening socket.
    pub accept_errors: u64,
    /// Connections that died with an I/O error mid-conversation.
    pub conn_errors: u64,
    /// Cache artifact writes that failed (disk full, permissions) and
    /// degraded to "not cached".
    pub store_errors: u64,
}

impl CacheStats {
    /// Total compile+run hits across both layers.
    pub fn hits(&self) -> u64 {
        self.compile_mem_hits + self.compile_disk_hits + self.run_mem_hits + self.run_disk_hits
    }

    /// Total compile+run misses.
    pub fn misses(&self) -> u64 {
        self.compile_misses + self.run_misses
    }

    /// Hit fraction in `[0, 1]`; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Record a compile outcome rung.
    pub fn count_rung(&mut self, rung: Rung) {
        self.rung_counts[rung.index()] += 1;
    }

    /// Render as stable JSON (object key order is fixed; validates under
    /// `uu_check::json::validate`).
    pub fn to_json(&self) -> String {
        let fields = [
            ("stats_version", STATS_VERSION.to_string()),
            ("compile_mem_hits", self.compile_mem_hits.to_string()),
            ("compile_disk_hits", self.compile_disk_hits.to_string()),
            ("compile_misses", self.compile_misses.to_string()),
            ("run_mem_hits", self.run_mem_hits.to_string()),
            ("run_disk_hits", self.run_disk_hits.to_string()),
            ("run_misses", self.run_misses.to_string()),
            ("hit_rate", format!("{:.4}", self.hit_rate())),
            ("work_saved", self.work_saved.to_string()),
            ("lookup_micros", self.lookup_micros.to_string()),
            ("compile_micros", self.compile_micros.to_string()),
            ("requests", self.requests.to_string()),
            ("busy_shed", self.busy_shed.to_string()),
            ("deadline_hits", self.deadline_hits.to_string()),
            ("handler_panics", self.handler_panics.to_string()),
            ("quarantined_modules", self.quarantined_modules.to_string()),
            ("quarantined_rejects", self.quarantined_rejects.to_string()),
            ("frame_defects", self.frame_defects.to_string()),
            ("accept_errors", self.accept_errors.to_string()),
            ("conn_errors", self.conn_errors.to_string()),
            ("store_errors", self.store_errors.to_string()),
        ];
        let rungs = Rung::ALL
            .iter()
            .map(|r| format!("    \"{}\": {}", r.as_str(), self.rung_counts[r.index()]))
            .collect::<Vec<_>>()
            .join(",\n");
        let mut s = String::from("{\n");
        for (key, value) in fields {
            s.push_str(&format!("  \"{key}\": {value},\n"));
        }
        s + &format!("  \"rung_counts\": {{\n{rungs}\n  }}\n}}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_well_defined() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.compile_mem_hits = 3;
        s.compile_misses = 1;
        assert_eq!(s.hit_rate(), 0.75);
        s.run_disk_hits = 4;
        assert_eq!(s.hit_rate(), 0.875);
    }

    #[test]
    fn json_is_valid_and_versioned() {
        let mut s = CacheStats::default();
        s.compile_misses = 2;
        s.count_rung(Rung::Full);
        s.count_rung(Rung::DroppedPass);
        s.busy_shed = 3;
        s.handler_panics = 1;
        s.quarantined_modules = 1;
        let j = s.to_json();
        uu_check::json::validate(&j).expect("stats JSON must parse");
        assert!(j.contains("\"stats_version\": 2"));
        assert!(j.contains("\"dropped-pass\": 1"));
        assert!(j.contains("\"hit_rate\": 0.0000"));
        assert!(j.contains("\"busy_shed\": 3"));
        assert!(j.contains("\"handler_panics\": 1"));
        assert!(j.contains("\"quarantined_modules\": 1"));
    }

    #[test]
    fn json_bytes_are_pinned() {
        let s = CacheStats {
            compile_mem_hits: 1,
            compile_disk_hits: 2,
            compile_misses: 3,
            run_mem_hits: 4,
            run_disk_hits: 5,
            run_misses: 6,
            work_saved: 7,
            lookup_micros: 8,
            compile_micros: 9,
            rung_counts: [10, 11, 12, 13],
            requests: 14,
            busy_shed: 15,
            deadline_hits: 16,
            handler_panics: 17,
            quarantined_modules: 18,
            quarantined_rejects: 19,
            frame_defects: 20,
            accept_errors: 21,
            conn_errors: 22,
            store_errors: 23,
        };
        let want = "{\n  \"stats_version\": 2,\n  \"compile_mem_hits\": 1,\n  \
            \"compile_disk_hits\": 2,\n  \"compile_misses\": 3,\n  \"run_mem_hits\": 4,\n  \
            \"run_disk_hits\": 5,\n  \"run_misses\": 6,\n  \"hit_rate\": 0.5714,\n  \
            \"work_saved\": 7,\n  \"lookup_micros\": 8,\n  \"compile_micros\": 9,\n  \
            \"requests\": 14,\n  \"busy_shed\": 15,\n  \"deadline_hits\": 16,\n  \
            \"handler_panics\": 17,\n  \"quarantined_modules\": 18,\n  \
            \"quarantined_rejects\": 19,\n  \"frame_defects\": 20,\n  \
            \"accept_errors\": 21,\n  \"conn_errors\": 22,\n  \"store_errors\": 23,\n  \
            \"rung_counts\": {\n    \"full\": 10,\n    \"dropped-pass\": 11,\n    \
            \"no-transform\": 12,\n    \"unoptimized\": 13\n  }\n}\n";
        assert_eq!(s.to_json(), want);
    }
}
