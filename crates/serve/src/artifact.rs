//! The one text shape of a compile result: [`CompileMeta`] and
//! [`RunRecord`] as protocol [`Message`] headers, and [`Artifact`], the
//! stored form, as a sealed message.
//!
//! Their `to_headers` / `from_headers` are the only code that spells a
//! field's header or escapes `diag`: the daemon's `ok` reply, the client
//! and every disk artifact share them. Fields round-trip losslessly:
//! integers in decimal, floats as IEEE-754 bits in hex, `diag` escaped
//! onto one line. An artifact is a seal line, then the message — the kind
//! (`compile` or `run`) as its verb, the meta headers, the run headers of
//! a `run`, and the optimized IR as the body of a `compile`:
//!
//! ```text
//! uu-artifact v2 <FNV-1a 64 of every byte after this line, 16 hex>
//! uu-serve/1 compile
//! work: 4321
//! ...
//! ```
//!
//! Decoding is total: a version skew, a seal that does not match, or a
//! missing or malformed header loads as `None`, which the cache treats as
//! a miss.

use crate::proto::Message;
use uu_core::Rung;
use uu_simt::Metrics;

/// Artifact format version; bump on any layout change.
pub const ARTIFACT_VERSION: u32 = 2;

/// The compile-side metadata every cached artifact and compile reply
/// carries — exactly the fields the harness derives a [`Measurement`]'s
/// compile half from.
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

    /// Optimise `m` in place under `opts` on the local pipeline and return
    /// the compile's metadata: what a store does when it has nothing stored.
    pub fn local(m: &mut uu_ir::Module, opts: &uu_core::PipelineOptions) -> CompileMeta {
        let outcome = uu_core::compile(m, opts);
        debug_assert!(outcome.verify_error.is_none(), "guarded compile must emit valid IR");
        CompileMeta::of(&outcome, m)
    }

    /// Append the metadata to `msg` as headers; `diag` only when non-empty.
    pub(crate) fn to_headers(&self, msg: Message) -> Message {
        let msg = msg
            .header("work", self.work)
            .header("timed-out", u8::from(self.timed_out))
            .header("rung", self.rung.as_str())
            .header("code-size", self.code_size);
        if self.diag.is_empty() {
            msg
        } else {
            msg.header("diag", escape(&self.diag))
        }
    }

    /// Read [`to_headers`](Self::to_headers)' headers back; `None` when one
    /// is missing or malformed. A missing `diag` is an empty one.
    pub(crate) fn from_headers(msg: &Message) -> Option<CompileMeta> {
        Some(CompileMeta {
            work: msg.get("work")?.parse().ok()?,
            timed_out: match msg.get("timed-out")? {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            rung: Rung::from_str(msg.get("rung")?)?,
            diag: msg.get("diag").map_or(Some(String::new()), unescape)?,
            code_size: msg.get("code-size")?.parse().ok()?,
        })
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

impl RunRecord {
    /// Append the record to `msg` as headers.
    pub(crate) fn to_headers(&self, msg: Message) -> Message {
        msg.header("time-ms", format_args!("{:016x}", self.time_ms.to_bits()))
            .header("checksum", format_args!("{:016x}", self.checksum.to_bits()))
            .header("transfer-ms", format_args!("{:016x}", self.transfer_ms.to_bits()))
            .header("metrics", encode_metrics(&self.metrics))
    }

    /// Read [`to_headers`](Self::to_headers)' headers back; `None` when one
    /// is missing or malformed.
    pub(crate) fn from_headers(msg: &Message) -> Option<RunRecord> {
        let float = |name| u64::from_str_radix(msg.get(name)?, 16).ok().map(f64::from_bits);
        Some(RunRecord {
            time_ms: float("time-ms")?,
            checksum: float("checksum")?,
            transfer_ms: float("transfer-ms")?,
            metrics: decode_metrics(msg.get("metrics")?)?,
        })
    }
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
    /// Serialize to the sealed on-disk text.
    pub fn encode(&self) -> String {
        let (msg, body) = match self {
            Artifact::Compile { meta, ir } => {
                (meta.to_headers(Message::new("compile")), ir.as_str())
            }
            Artifact::Run { meta, run } => {
                (run.to_headers(meta.to_headers(Message::new("run"))), "")
            }
        };
        // The body is appended here rather than copied into the message.
        let head = msg.encode();
        let seal = uu_ir::fnv1a_continue(uu_ir::fnv1a(head.as_bytes()), body.as_bytes());
        format!("uu-artifact v{ARTIFACT_VERSION} {seal:016x}\n{head}{body}")
    }

    /// Parse the sealed on-disk text; `None` on any anomaly.
    pub fn decode(text: &str) -> Option<Artifact> {
        let (seal, text) = text.split_once('\n')?;
        let fnv = uu_ir::fnv1a(text.as_bytes());
        if seal != format!("uu-artifact v{ARTIFACT_VERSION} {fnv:016x}") {
            return None;
        }
        let msg = Message::decode(text)?;
        let meta = CompileMeta::from_headers(&msg)?;
        match msg.verb.as_str() {
            "compile" => Some(Artifact::Compile { meta, ir: msg.body }),
            "run" if msg.body.is_empty() => {
                Some(Artifact::Run { run: RunRecord::from_headers(&msg)?, meta })
            }
            _ => None,
        }
    }
}

/// Escape a string to a single line (`\n`/`\\`), losslessly.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Invert [`escape`]; `None` on a dangling or unknown escape.
fn unescape(s: &str) -> Option<String> {
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
            // Multi-line, a backslash, and a `\r` that must survive being
            // the last byte of its header line.
            diag: "uu#0@k: panic: boom\nsecond \\ line\r".to_string(),
            code_size: 99,
        }
    }

    fn run() -> RunRecord {
        let metrics = Metrics {
            thread_arith: 7,
            warp_insts: 12,
            kernel_cycles: u64::MAX,
            ..Default::default()
        };
        RunRecord {
            time_ms: 0.1 + 0.2, // a value decimal text would mangle
            checksum: -0.0,
            transfer_ms: f64::MIN_POSITIVE,
            metrics,
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
        let a = Artifact::Run { meta: meta(), run: run() };
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
        assert_eq!(Artifact::decode(&good.replace("uu-artifact v2", "uu-artifact v1")), None);
        assert_eq!(Artifact::decode(&good.replace("work: 4321", "work: lots")), None);
        assert_eq!(Artifact::decode(&good.replace("rung: no-transform", "rung: r5")), None);
        assert_eq!(Artifact::decode(""), None);
    }

    /// The seal covers every byte: no single-byte substitution and no
    /// truncation of a compile or a run artifact decodes.
    #[test]
    fn every_byte_flip_and_truncation_decodes_to_none() {
        let artifacts = [
            Artifact::Compile {
                meta: meta(),
                ir: "fn @k() -> void {\nbb0:\n  ret void\n}\n".into(),
            },
            Artifact::Run { meta: meta(), run: run() },
        ];
        for a in artifacts {
            let good = a.encode();
            assert_eq!(Artifact::decode(&good).as_ref(), Some(&a));
            for i in 0..good.len() {
                let mut bytes = good.clone().into_bytes();
                bytes[i] ^= 1;
                if let Ok(flipped) = String::from_utf8(bytes) {
                    assert_eq!(Artifact::decode(&flipped), None, "byte {i} flipped:\n{flipped}");
                }
                if let Some(prefix) = good.get(..i) {
                    assert_eq!(Artifact::decode(prefix), None, "truncated to {i} bytes");
                }
            }
        }
    }

    /// Unsealed, as on the wire, the codec itself rejects a damaged field.
    #[test]
    fn codec_round_trips_headers_and_rejects_damaged_fields() {
        let msg = run().to_headers(meta().to_headers(Message::new("ok")));
        assert_eq!(CompileMeta::from_headers(&msg), Some(meta()));
        assert_eq!(RunRecord::from_headers(&msg), Some(run()));
        let clean = CompileMeta { diag: String::new(), ..meta() };
        let no_diag = clean.to_headers(Message::new("ok"));
        assert_eq!(no_diag.get("diag"), None);
        assert_eq!(CompileMeta::from_headers(&no_diag), Some(clean));
        let wire = msg.encode();
        for (from, to) in [
            ("work: 4321", "work: lots"),
            ("timed-out: 0", "timed-out: no"),
            ("rung: no-transform", "rung: r5"),
            ("code-size: 99", "code-size: -1"),
            ("diag: uu#0", "diag: \\q"),
            ("metrics: 7 ", "metrics: 7 x"),
            ("time-ms: ", "time-ms: z"),
            ("work: 4321\n", ""),
        ] {
            let damaged = Message::decode(&wire.replacen(from, to, 1)).unwrap();
            let decoded = (CompileMeta::from_headers(&damaged), RunRecord::from_headers(&damaged));
            assert!(decoded.0.is_none() || decoded.1.is_none(), "{from:?} -> {to:?}");
        }
    }
}
