//! On-disk artifact serialization: a small line-oriented text format,
//! versioned and strictly parsed.
//!
//! Every field a cached compile must reproduce byte-identically is stored
//! losslessly: integers in decimal, floats as their IEEE-754 bit patterns
//! in hex (a `f64 → text → f64` round trip through decimal formatting
//! would not be exact), strings with `\n`/`\\` escaping. Parsing is
//! `Option`-based and total — a truncated, corrupted or version-skewed
//! artifact loads as `None` and the cache treats it as a miss.

use uu_core::Rung;
use uu_simt::Metrics;

/// Artifact format version; bump on any layout change.
pub const ARTIFACT_VERSION: u32 = 1;

/// The compile-side metadata every cached artifact carries — exactly the
/// fields the harness derives a [`Measurement`]'s compile half from.
///
/// [`Measurement`]: https://docs.rs/uu-harness
#[derive(Debug, Clone, PartialEq)]
pub struct CompileMeta {
    /// Modeled compile work (deterministic clock units).
    pub work: u64,
    /// Whether the compile hit its work-budget timeout.
    pub timed_out: bool,
    /// Degradation-ladder rung the compile landed on.
    pub rung: Rung,
    /// Contained-failure summary (empty when clean).
    pub diag: String,
    /// Lowered code size of the optimized module.
    pub code_size: u64,
}

impl CompileMeta {
    /// The metadata of a finished compile: `outcome` as returned by
    /// [`uu_core::compile`], `optimized` the module it left behind.
    pub fn of(outcome: &uu_core::CompileOutcome, optimized: &uu_ir::Module) -> CompileMeta {
        CompileMeta {
            work: outcome.work,
            timed_out: outcome.timed_out,
            rung: outcome.rung,
            diag: outcome.failure_summary(),
            code_size: uu_analysis::cost::module_size(optimized),
        }
    }
}

/// The run-side record of a measured execution (hot sweep points): the
/// simulator outputs a warm cache can serve without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Total kernel time (simulated ms, already repeat-scaled).
    pub time_ms: f64,
    /// Output checksum (the miscompile oracle).
    pub checksum: f64,
    /// Host↔device transfer time.
    pub transfer_ms: f64,
    /// Aggregated hardware counters.
    pub metrics: Metrics,
}

/// A cache artifact: compile metadata plus either the optimized module
/// text (compile artifacts) or a measured run record (measure artifacts).
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// An optimized module: metadata + printed IR.
    Compile {
        /// Compile metadata.
        meta: CompileMeta,
        /// The optimized module, printed.
        ir: String,
    },
    /// A measured execution: metadata + run outputs (no IR needed — the
    /// sweep only consumes the numbers).
    Run {
        /// Compile metadata.
        meta: CompileMeta,
        /// Simulator outputs.
        run: RunRecord,
    },
}

impl Artifact {
    /// The compile metadata of either artifact kind.
    pub fn meta(&self) -> &CompileMeta {
        match self {
            Artifact::Compile { meta, .. } | Artifact::Run { meta, .. } => meta,
        }
    }

    /// Serialize to the on-disk text format.
    pub fn encode(&self) -> String {
        let mut s = format!("uu-artifact v{ARTIFACT_VERSION}\n");
        let meta = self.meta();
        s.push_str(&format!(
            "kind {}\n",
            match self {
                Artifact::Compile { .. } => "compile",
                Artifact::Run { .. } => "run",
            }
        ));
        s.push_str(&format!("work {}\n", meta.work));
        s.push_str(&format!("timed-out {}\n", u8::from(meta.timed_out)));
        s.push_str(&format!("rung {}\n", meta.rung.as_str()));
        s.push_str(&format!("code-size {}\n", meta.code_size));
        s.push_str(&format!("diag {}\n", escape(&meta.diag)));
        match self {
            Artifact::Compile { ir, .. } => {
                s.push_str(&format!("ir-fnv {:016x}\n", uu_ir::fnv1a(ir.as_bytes())));
                s.push_str("---\n");
                s.push_str(ir);
            }
            Artifact::Run { run, .. } => {
                s.push_str(&format!("time-ms {:016x}\n", run.time_ms.to_bits()));
                s.push_str(&format!("checksum {:016x}\n", run.checksum.to_bits()));
                s.push_str(&format!("transfer-ms {:016x}\n", run.transfer_ms.to_bits()));
                s.push_str(&format!("metrics {}\n", encode_metrics(&run.metrics)));
            }
        }
        s
    }

    /// Parse the on-disk format; `None` on any anomaly (wrong version,
    /// missing field, bad integer, IR hash mismatch).
    pub fn decode(text: &str) -> Option<Artifact> {
        let (head, ir) = match text.split_once("---\n") {
            Some((h, ir)) => (h, Some(ir)),
            None => (text, None),
        };
        let mut lines = head.lines();
        if lines.next()? != format!("uu-artifact v{ARTIFACT_VERSION}") {
            return None;
        }
        let mut field = |name: &str| -> Option<String> {
            let l = lines.next()?;
            Some(l.strip_prefix(name)?.strip_prefix(' ').unwrap_or("").to_string())
        };
        let kind = field("kind")?;
        let work: u64 = field("work")?.parse().ok()?;
        let timed_out = match field("timed-out")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let rung = Rung::from_str(&field("rung")?)?;
        let code_size: u64 = field("code-size")?.parse().ok()?;
        let diag = unescape(&field("diag")?)?;
        let meta = CompileMeta {
            work,
            timed_out,
            rung,
            diag,
            code_size,
        };
        match kind.as_str() {
            "compile" => {
                let stored_fnv = u64::from_str_radix(&field("ir-fnv")?, 16).ok()?;
                let ir = ir?.to_string();
                if uu_ir::fnv1a(ir.as_bytes()) != stored_fnv {
                    return None; // truncated or corrupted artifact body
                }
                Some(Artifact::Compile { meta, ir })
            }
            "run" => {
                let bits = |s: String| u64::from_str_radix(&s, 16).ok().map(f64::from_bits);
                let time_ms = bits(field("time-ms")?)?;
                let checksum = bits(field("checksum")?)?;
                let transfer_ms = bits(field("transfer-ms")?)?;
                let metrics = decode_metrics(&field("metrics")?)?;
                Some(Artifact::Run {
                    meta,
                    run: RunRecord {
                        time_ms,
                        checksum,
                        transfer_ms,
                        metrics,
                    },
                })
            }
            _ => None,
        }
    }
}

/// Escape a string to a single line (`\n`/`\\`), losslessly. Shared by
/// the artifact format and the wire protocol's `diag` header — both are
/// line-oriented, and both must round-trip multi-line diagnostics
/// byte-identically.
pub(crate) fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Invert [`escape`]; `None` on a dangling or unknown escape.
pub(crate) fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push('\n'),
                '\\' => out.push('\\'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Exhaustive field destructuring: adding a counter to [`Metrics`]
/// without updating this serialization is a compile error, not a silent
/// cache corruption.
fn encode_metrics(m: &Metrics) -> String {
    let Metrics {
        thread_arith,
        thread_control,
        thread_load,
        thread_store,
        thread_misc,
        thread_sync,
        warp_insts,
        active_lane_sum,
        mem_transactions,
        dram_sectors,
        gld_bytes,
        gst_bytes,
        fetch_stall_cycles,
        mem_stall_cycles,
        issue_cycles,
        kernel_cycles,
        warps,
    } = *m;
    [
        thread_arith,
        thread_control,
        thread_load,
        thread_store,
        thread_misc,
        thread_sync,
        warp_insts,
        active_lane_sum,
        mem_transactions,
        dram_sectors,
        gld_bytes,
        gst_bytes,
        fetch_stall_cycles,
        mem_stall_cycles,
        issue_cycles,
        kernel_cycles,
        warps,
    ]
    .map(|v| v.to_string())
    .join(" ")
}

fn decode_metrics(s: &str) -> Option<Metrics> {
    let vals: Vec<u64> = s
        .split(' ')
        .map(|t| t.parse::<u64>().ok())
        .collect::<Option<Vec<_>>>()?;
    let [thread_arith, thread_control, thread_load, thread_store, thread_misc, thread_sync, warp_insts, active_lane_sum, mem_transactions, dram_sectors, gld_bytes, gst_bytes, fetch_stall_cycles, mem_stall_cycles, issue_cycles, kernel_cycles, warps] =
        vals.as_slice()
    else {
        return None;
    };
    Some(Metrics {
        thread_arith: *thread_arith,
        thread_control: *thread_control,
        thread_load: *thread_load,
        thread_store: *thread_store,
        thread_misc: *thread_misc,
        thread_sync: *thread_sync,
        warp_insts: *warp_insts,
        active_lane_sum: *active_lane_sum,
        mem_transactions: *mem_transactions,
        dram_sectors: *dram_sectors,
        gld_bytes: *gld_bytes,
        gst_bytes: *gst_bytes,
        fetch_stall_cycles: *fetch_stall_cycles,
        mem_stall_cycles: *mem_stall_cycles,
        issue_cycles: *issue_cycles,
        kernel_cycles: *kernel_cycles,
        warps: *warps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> CompileMeta {
        CompileMeta {
            work: 4321,
            timed_out: false,
            rung: Rung::NoTransform,
            diag: "uu#0@k: panic: boom\nsecond \\ line".to_string(),
            code_size: 99,
        }
    }

    #[test]
    fn compile_artifact_round_trips() {
        let a = Artifact::Compile {
            meta: meta(),
            ir: "; module t\nfn @k() -> void {\nbb0:\n  ret void\n}\n".to_string(),
        };
        assert_eq!(Artifact::decode(&a.encode()), Some(a));
    }

    #[test]
    fn run_artifact_round_trips_floats_exactly() {
        let mut metrics = Metrics::default();
        metrics.thread_arith = 7;
        metrics.kernel_cycles = u64::MAX;
        let a = Artifact::Run {
            meta: meta(),
            run: RunRecord {
                time_ms: 0.1 + 0.2, // a value decimal text would mangle
                checksum: -0.0,
                transfer_ms: f64::MIN_POSITIVE,
                metrics,
            },
        };
        let b = Artifact::decode(&a.encode()).unwrap();
        let (Artifact::Run { run: ra, .. }, Artifact::Run { run: rb, .. }) = (&a, &b) else {
            panic!("kind changed in round trip");
        };
        assert_eq!(ra.time_ms.to_bits(), rb.time_ms.to_bits());
        assert_eq!(ra.checksum.to_bits(), rb.checksum.to_bits());
        assert_eq!(ra.transfer_ms.to_bits(), rb.transfer_ms.to_bits());
        assert_eq!(ra.metrics, rb.metrics);
    }

    #[test]
    fn corrupted_artifacts_decode_to_none() {
        let a = Artifact::Compile {
            meta: meta(),
            ir: "fn @k() -> void {\nbb0:\n  ret void\n}\n".to_string(),
        };
        let good = a.encode();
        // Truncation, body corruption, version skew, field damage: all miss.
        assert_eq!(Artifact::decode(&good[..good.len() / 2]), None);
        assert_eq!(Artifact::decode(&good.replace("ret void", "ret vold")), None);
        assert_eq!(Artifact::decode(&good.replace("uu-artifact v1", "uu-artifact v0")), None);
        assert_eq!(Artifact::decode(&good.replace("work 4321", "work lots")), None);
        assert_eq!(Artifact::decode(&good.replace("rung no-transform", "rung r5")), None);
        assert_eq!(Artifact::decode(""), None);
    }
}
