//! Content-addressed compile/measure cache.
//!
//! The key is the triple `(module hash, canonical config, pipeline
//! fingerprint)` — see the crate docs. Two layers:
//!
//! * **memory**: what the disk holds — metadata plus the optimized
//!   module's printed text, shared as an `Arc<str>` — so a hit is a
//!   refcount, and a [`Module`] is materialised (parsed) only for a caller
//!   that asked for one. The compile daemon never does: it forwards the
//!   stored text as the reply body;
//! * **disk** (optional): [`crate::artifact`]s — a protocol message
//!   behind a seal line hashing all of it — content-addressed under
//!   `<dir>/<kk>/<32-hex-key>.uuart` and written atomically (tmp +
//!   rename). A file whose seal does not match (any damaged byte, a
//!   truncation) or whose version is not the current one is a miss, never
//!   a wrong answer. The stored IR is the printer's output and the parser
//!   reconstructs it exactly (`parse(ir).to_string() == ir`, pinned by
//!   `wire_fidelity.rs`), so a module loaded from disk is the module that
//!   was stored, ids included.
//!
//! Measured runs are cached too (`run` artifacts): simulation dominates
//! wall time for hot sweep points, so a warm sweep skips both halves.
//! The run key extends the compile key with a workload tag supplied by
//! the caller (bench identity, workload version, launch repeats,
//! memory-fault plan) and the simulator's model fingerprint — everything
//! outside the module/config that can change simulator output.

use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::artifact::{Artifact, CompileMeta, RunRecord};
use crate::stats::CacheStats;
use uu_core::{FaultKind, PipelineOptions};
use uu_ir::Module;

thread_local! {
    // Armed by the service's `disk-full` fault (`ServeFaultPlan`) for the
    // duration of one request. Thread-local because each request is
    // handled entirely on one worker thread: arming it cannot leak into
    // a concurrent request on another worker.
    static STORE_FAULT: Cell<bool> = const { Cell::new(false) };
}

/// Arm (or disarm) the synthetic disk-full fault for cache stores on
/// *this thread*: while armed, every artifact write fails as a full disk
/// would — counted in [`CacheStats::store_errors`], degraded to "not
/// cached", never a broken artifact.
pub fn inject_store_fault(on: bool) {
    STORE_FAULT.with(|f| f.set(on));
}

/// A 128-bit content-address (two FNV-1a lanes over the same key
/// material with distinct domain prefixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// First hash lane.
    pub hi: u64,
    /// Second hash lane (independent seed).
    pub lo: u64,
}

impl Key {
    /// 32-hex-digit rendering — the on-disk file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Read [`hex`](Self::hex)'s rendering back; `None` unless 32 hex digits.
    pub fn parse(hex: &str) -> Option<Key> {
        let digits = hex.len() == 32 && hex.bytes().all(|b| b.is_ascii_hexdigit());
        let v = u128::from_str_radix(hex, 16).ok().filter(|_| digits)?;
        Some(Key { hi: (v >> 64) as u64, lo: v as u64 })
    }
}

/// The three calls a batch driver makes of a store: [`CompileCache`]
/// answers from memory and its directory, [`Remote`](crate::Remote) from
/// a daemon's cache. Either changes wall time, never a result.
pub trait Artifacts {
    /// Optimise `m` in place under `opts` and return the compile's
    /// metadata; with `want_module` unset a hit may leave `m` as it was.
    fn compile(&self, m: &mut Module, opts: &PipelineOptions, want_module: bool) -> CompileMeta;
    /// The run stored under the run key `key`, with its compile's metadata.
    fn lookup_run(&self, key: Key) -> Option<(CompileMeta, RunRecord)>;
    /// Store a measured run under `key`; a failed store is not an error.
    fn store_run(&self, key: Key, meta: &CompileMeta, run: &RunRecord);
}

impl Artifacts for CompileCache {
    fn compile(&self, m: &mut Module, opts: &PipelineOptions, want_module: bool) -> CompileMeta {
        CompileCache::compile(self, m, opts, want_module).meta
    }

    fn lookup_run(&self, key: Key) -> Option<(CompileMeta, RunRecord)> {
        CompileCache::lookup_run(self, key)
    }

    /// Store a measured run in every layer.
    fn store_run(&self, key: Key, meta: &CompileMeta, run: &RunRecord) {
        self.mem_run.lock().unwrap().insert(key, (meta.clone(), run.clone()));
        self.store(key, &Artifact::Run { meta: meta.clone(), run: run.clone() });
    }
}

/// Result of a cache-mediated compile: the metadata the harness needs,
/// the key it was stored under, and whether it was served from cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCompile {
    /// The compile key ([`CompileCache::compile_key`] of the input).
    pub key: Key,
    /// Compile metadata (work, rung, diag, code size).
    pub meta: CompileMeta,
    /// `true` when served from memory or disk without running the
    /// pipeline.
    pub hit: bool,
}

/// A compile artifact in memory: the metadata, plus the optimised text
/// once a caller has parsed it (a metadata-only hit keeps no text).
type MemCompile = (CompileMeta, Option<Arc<str>>);

/// The two-layer content-addressed cache. All methods take `&self`; the
/// cache is shared across worker threads by reference.
pub struct CompileCache {
    dir: Option<PathBuf>,
    mem_compile: Mutex<HashMap<Key, MemCompile>>,
    mem_run: Mutex<HashMap<Key, (CompileMeta, RunRecord)>>,
    stats: Mutex<CacheStats>,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl CompileCache {
    /// Memory-only cache (lives and dies with the process).
    pub fn new_mem() -> CompileCache {
        CompileCache {
            dir: None,
            mem_compile: Mutex::new(HashMap::new()),
            mem_run: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Memory + disk cache rooted at `dir` (created if missing).
    pub fn at_dir(dir: &Path) -> io::Result<CompileCache> {
        std::fs::create_dir_all(dir)?;
        let mut c = CompileCache::new_mem();
        c.dir = Some(dir.to_path_buf());
        Ok(c)
    }

    /// The compile-side cache key for `(module, options)` under the
    /// current pipeline fingerprint.
    ///
    /// [`FaultKind::Mem`] plans are stripped before keying: they target
    /// the simulator, not the pipeline, so two compiles differing only in
    /// a mem-fault plan share an artifact (the fault belongs in the *run*
    /// key's workload tag instead).
    pub fn compile_key(m: &Module, opts: &PipelineOptions) -> Key {
        CompileCache::key_for_hash(uu_ir::module_hash(m), opts)
    }

    /// [`compile_key`](Self::compile_key) from the module's hash alone.
    /// `module_hash(m)` is `fnv1a` of `m`'s printed text, so a holder of
    /// that text (the daemon, reading a request body) keys it without
    /// parsing or printing anything.
    pub fn key_for_hash(module_h: u64, opts: &PipelineOptions) -> Key {
        let mut opts = opts.clone();
        if opts.fault.as_ref().is_some_and(|p| p.kind == FaultKind::Mem) {
            opts.fault = None;
        }
        let cfg = format!("{opts:?}");
        let fp = uu_core::pipeline_fingerprint();
        let lane = |seed: &[u8]| {
            let mut h = uu_ir::fnv1a(seed);
            h = uu_ir::fnv1a_continue(h, &module_h.to_le_bytes());
            h = uu_ir::fnv1a_continue(h, cfg.as_bytes());
            h = uu_ir::fnv1a_continue(h, &fp.to_le_bytes());
            h
        };
        Key {
            hi: lane(b"uu-key-hi"),
            lo: lane(b"uu-key-lo"),
        }
    }

    /// Extend a compile key into a run key with a workload tag (bench
    /// identity + workload version + launch repeats + mem-fault spec) and
    /// the simulator every measured point runs on: the
    /// [`uu_simt::model_fingerprint`] of the default [`GpuParams`], so a
    /// `SIMT_MODEL_VERSION` bump or a parameter change misses every stored
    /// run instead of serving it.
    ///
    /// [`GpuParams`]: uu_simt::GpuParams
    pub fn run_key(compile: Key, workload: &str) -> Key {
        let model = uu_simt::model_fingerprint(&uu_simt::GpuParams::default());
        CompileCache::run_key_under(compile, workload, model)
    }

    fn run_key_under(compile: Key, workload: &str, model: u64) -> Key {
        let lane = |seed: &[u8], base: u64| {
            let mut h = uu_ir::fnv1a(seed);
            h = uu_ir::fnv1a_continue(h, &base.to_le_bytes());
            h = uu_ir::fnv1a_continue(h, &model.to_le_bytes());
            h = uu_ir::fnv1a_continue(h, workload.as_bytes());
            h
        };
        Key {
            hi: lane(b"uu-run-hi", compile.hi),
            lo: lane(b"uu-run-lo", compile.lo),
        }
    }

    /// Compile `m` under `opts` through the cache. On a hit, `m` is
    /// replaced with the cached optimized module when `want_module` is
    /// set (skip-run callers that only consume the metadata pass `false`,
    /// keep their input module untouched and pay for no parse). On a
    /// miss, the pipeline runs and the result is stored on disk; memory
    /// keeps its text only when `want_module` is set, so a memory-only
    /// cache recompiles a later module request for a metadata-only key.
    pub fn compile(&self, m: &mut Module, opts: &PipelineOptions, want_module: bool) -> CachedCompile {
        let t0 = Instant::now();
        let key = CompileCache::compile_key(m, opts);

        // Stored text that does not parse (possible only for a disk
        // artifact written with a matching seal) is a miss.
        if let Some((meta, ir, mem)) = self.stored_compile(key, want_module) {
            let parsed = |ir: &str| uu_ir::parse_module(ir).map(|module| *m = module).is_ok();
            if ir.as_deref().is_none_or(parsed) {
                self.note_compile_hit(key, &meta, ir, mem, t0);
                return CachedCompile { key, meta, hit: true };
            }
        }

        // Miss: run the real pipeline and populate both layers.
        let lookup = t0.elapsed();
        let t1 = Instant::now();
        let meta = CompileMeta::local(m, opts);
        let ir = m.to_string();
        self.mem_compile
            .lock()
            .unwrap()
            .insert(key, (meta.clone(), want_module.then(|| Arc::from(ir.as_str()))));
        self.store(
            key,
            &Artifact::Compile {
                meta: meta.clone(),
                ir,
            },
        );
        {
            let mut st = self.stats.lock().unwrap();
            st.compile_misses += 1;
            st.count_rung(meta.rung);
            st.lookup_micros += lookup.as_micros() as u64;
            st.compile_micros += t1.elapsed().as_micros() as u64;
        }
        CachedCompile { key, meta, hit: false }
    }

    /// Probe with the module's printed text in hand instead of the
    /// module: key it as `fnv1a(text)` ([`key_for_hash`](Self::key_for_hash))
    /// and return that key with the stored metadata and, when
    /// `want_module`, the optimized IR text, counted as a hit
    /// (`compile_mem_hits`/`compile_disk_hits`, `work_saved`,
    /// `lookup_micros` — keying included). `None` counts nothing. This is
    /// the daemon's hit path: nothing is parsed or printed, the stored text
    /// goes out as the reply body untouched. A disk artifact's text is
    /// parsed once, when it is promoted to memory, so text served from
    /// memory always parses; a metadata-only probe reads and promotes no
    /// text.
    pub fn lookup_compile(
        &self,
        module_text: &str,
        opts: &PipelineOptions,
        want_module: bool,
    ) -> Option<(Key, CompileMeta, Option<Arc<str>>)> {
        let t0 = Instant::now();
        let key = CompileCache::key_for_hash(uu_ir::fnv1a(module_text.as_bytes()), opts);
        let (meta, ir, mem) = self.stored_compile(key, want_module)?;
        if let Some(ir) = ir.as_deref().filter(|_| !mem) {
            uu_ir::parse_module(ir).ok()?;
        }
        self.note_compile_hit(key, &meta, ir.clone(), mem, t0);
        Some((key, meta, ir))
    }

    /// The compile artifact stored under `key`, with its text when
    /// `want_text`, and whether it came from memory (else from disk,
    /// decoded and seal-checked). A memory entry without text serves only
    /// a caller that does not want it. Counts and promotes nothing: the
    /// caller decides whether it is a hit.
    fn stored_compile(
        &self,
        key: Key,
        want_text: bool,
    ) -> Option<(CompileMeta, Option<Arc<str>>, bool)> {
        if let Some((meta, ir)) = self.mem_compile.lock().unwrap().get(&key) {
            if ir.is_some() || !want_text {
                return Some((meta.clone(), ir.clone().filter(|_| want_text), true));
            }
        }
        match self.load(key)? {
            Artifact::Compile { meta, ir } => Some((meta, want_text.then(|| ir.into()), false)),
            Artifact::Run { .. } => None,
        }
    }

    /// Look up a cached measured run. `None` counts as a run miss — the
    /// caller is expected to measure and [`store_run`](Artifacts::store_run).
    pub fn lookup_run(&self, key: Key) -> Option<(CompileMeta, RunRecord)> {
        let t0 = Instant::now();
        let mem = self.mem_run.lock().unwrap().get(&key).cloned();
        let from_mem = mem.is_some();
        let hit = mem.or_else(|| match self.load(key)? {
            Artifact::Run { meta, run } => {
                self.mem_run.lock().unwrap().insert(key, (meta.clone(), run.clone()));
                Some((meta, run))
            }
            Artifact::Compile { .. } => None,
        });
        let mut st = self.stats.lock().unwrap();
        match &hit {
            Some((meta, _)) => {
                if from_mem {
                    st.run_mem_hits += 1;
                } else {
                    st.run_disk_hits += 1;
                }
                st.work_saved += meta.work;
                st.count_rung(meta.rung);
            }
            None => st.run_misses += 1,
        }
        st.lookup_micros += t0.elapsed().as_micros() as u64;
        hit
    }

    /// Snapshot of the cumulative stats.
    pub fn stats(&self) -> CacheStats {
        self.stats.lock().unwrap().clone()
    }

    /// Mutate the stats under the lock — the hook the service layer uses
    /// to account admission, deadline, panic, quarantine and connection
    /// events in the same versioned structure as the cache counters.
    pub fn stats_mut<R>(&self, f: impl FnOnce(&mut CacheStats) -> R) -> R {
        f(&mut self.stats.lock().unwrap())
    }

    /// Account a compile hit, promoting a disk artifact to memory: its
    /// metadata, and its text `ir` when the caller parsed it. A
    /// metadata-only caller reads no text, and text in memory must parse.
    fn note_compile_hit(
        &self,
        key: Key,
        meta: &CompileMeta,
        ir: Option<Arc<str>>,
        mem: bool,
        t0: Instant,
    ) {
        if !mem {
            self.mem_compile
                .lock()
                .unwrap()
                .insert(key, (meta.clone(), ir));
        }
        let mut st = self.stats.lock().unwrap();
        if mem {
            st.compile_mem_hits += 1;
        } else {
            st.compile_disk_hits += 1;
        }
        st.work_saved += meta.work;
        st.count_rung(meta.rung);
        st.lookup_micros += t0.elapsed().as_micros() as u64;
    }

    pub(crate) fn path_of(&self, key: Key) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let hex = key.hex();
        Some(dir.join(&hex[..2]).join(format!("{hex}.uuart")))
    }

    fn load(&self, key: Key) -> Option<Artifact> {
        let path = self.path_of(key)?;
        let text = std::fs::read_to_string(path).ok()?;
        Artifact::decode(&text)
    }

    /// Best-effort atomic write; a full disk or permission error degrades
    /// to "not cached", never to a broken artifact (readers validate) —
    /// but every such degradation is now counted in
    /// [`CacheStats::store_errors`] instead of vanishing silently.
    fn store(&self, key: Key, artifact: &Artifact) {
        let Some(path) = self.path_of(key) else {
            return;
        };
        if STORE_FAULT.with(|f| f.get()) {
            self.note_store_error();
            return;
        }
        let Some(parent) = path.parent() else {
            return;
        };
        if std::fs::create_dir_all(parent).is_err() {
            self.note_store_error();
            return;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if std::fs::write(&tmp, artifact.encode()).is_ok() {
            if std::fs::rename(&tmp, &path).is_err() {
                self.note_store_error();
            }
        } else {
            let _ = std::fs::remove_file(&tmp);
            self.note_store_error();
        }
    }

    fn note_store_error(&self) {
        self.stats.lock().unwrap().store_errors += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_core::Transform;

    fn module() -> Module {
        // A counted loop with a diamond in the body — enough structure for
        // every transform family to have real work to do.
        let text = "\
; module t
fn @k(i64 %n) -> i64 {
bb0:
  br bb1
bb1:
  %1 = phi i64 [0, bb0], [%6, bb5]
  %2 = phi i64 [0, bb0], [%5, bb5]
  %3 = icmp slt i64 %1, %n
  br i1 %3, bb2, bb6
bb2:
  %4 = icmp slt i64 %2, 50
  br i1 %4, bb3, bb4
bb3:
  %7 = add i64 %2, 1
  br bb5
bb4:
  %8 = add i64 %2, 2
  br bb5
bb5:
  %5 = phi i64 [%7, bb3], [%8, bb4]
  %6 = add i64 %1, 1
  br bb1
bb6:
  ret i64 %2
}
";
        uu_ir::parse_module(text).expect("test module parses")
    }

    fn opts() -> PipelineOptions {
        PipelineOptions {
            transform: Transform::Uu {
                factor: 2,
                unmerge: Default::default(),
            },
            ..Default::default()
        }
    }

    #[test]
    fn memory_hit_returns_identical_module_and_meta() {
        let cache = CompileCache::new_mem();
        let mut a = module();
        let first = cache.compile(&mut a, &opts(), true);
        assert!(!first.hit);
        let mut b = module();
        let second = cache.compile(&mut b, &opts(), true);
        assert!(second.hit);
        assert_eq!(first.meta, second.meta);
        assert_eq!(a.to_string(), b.to_string());
        let st = cache.stats();
        assert_eq!(st.compile_mem_hits, 1);
        assert_eq!(st.compile_misses, 1);
        assert_eq!(st.work_saved, first.meta.work);
    }

    #[test]
    fn disk_artifacts_survive_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("uu-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (first, stored);
        {
            let cache = CompileCache::at_dir(&dir).unwrap();
            let mut m = module();
            first = cache.compile(&mut m, &opts(), true);
            assert!(!first.hit);
            stored = m.to_string();
        }
        // New cache object, empty memory: must hit via disk, with the
        // metadata of the original compile and the very module it stored
        // (the parser reconstructs the printed text byte for byte).
        let cache = CompileCache::at_dir(&dir).unwrap();
        let mut warm = module();
        let r = cache.compile(&mut warm, &opts(), true);
        assert!(r.hit);
        assert_eq!(r.meta, first.meta);
        assert_eq!(cache.stats().compile_disk_hits, 1);
        assert_eq!(warm.to_string(), stored);
        assert_eq!(uu_analysis::cost::module_size(&warm), r.meta.code_size);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_artifact_degrades_to_miss() {
        let dir = std::env::temp_dir().join(format!("uu-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CompileCache::at_dir(&dir).unwrap();
        let mut m = module();
        cache.compile(&mut m, &opts(), true);
        // Flip bytes in the stored artifact body.
        let key = CompileCache::compile_key(&module(), &opts());
        let path = cache.path_of(key).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("ret", "rot")).unwrap();
        // Fresh cache (empty memory): the damaged artifact must be a miss
        // that recompiles, not a wrong answer.
        let cache2 = CompileCache::at_dir(&dir).unwrap();
        let mut w = module();
        let r = cache2.compile(&mut w, &opts(), true);
        assert!(!r.hit);
        assert_eq!(w.to_string(), m.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Last re-pinned when `PipelineOptions` lost its `max_rounds` and
    /// `baseline_unroll` fields: cache directories written since keep
    /// hitting. It moves only with the printed text, `PipelineOptions`'
    /// `Debug` form or a `PASS_VERSIONS` bump (`pipeline_fingerprint`) —
    /// re-pin it together with that.
    #[test]
    fn compile_key_of_a_fixed_pair_is_pinned() {
        let key = CompileCache::compile_key(&module(), &opts());
        assert_eq!(key.hex(), "a2ff1acf1d66ea08220c0b73c4fb7a26");
        assert_eq!(Key::parse(&key.hex()), Some(key));
        let text = module().to_string();
        assert_eq!(key, CompileCache::key_for_hash(uu_ir::fnv1a(text.as_bytes()), &opts()));
    }

    #[test]
    fn metadata_only_hits_never_parse_and_text_probes_share_the_entry() {
        let dir = std::env::temp_dir().join(format!("uu-cache-nomodule-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = CompileCache::at_dir(&dir).unwrap().compile(&mut module(), &opts(), true);
        // Damage the stored IR *consistently* (re-encoded under a matching
        // seal), so only a parse can notice: a metadata-only caller is
        // served, a caller that wants the module misses and recompiles
        // over it.
        let key = CompileCache::compile_key(&module(), &opts());
        let cache = CompileCache::at_dir(&dir).unwrap();
        let path = cache.path_of(key).unwrap();
        let Some(Artifact::Compile { meta, ir }) =
            Artifact::decode(&std::fs::read_to_string(&path).unwrap())
        else {
            panic!("a compile artifact was stored");
        };
        let damaged = Artifact::Compile { meta, ir: ir.replace("ret", "rot") };
        std::fs::write(&path, damaged.encode()).unwrap();
        let mut input = module();
        let r = cache.compile(&mut input, &opts(), false);
        assert!(r.hit);
        assert_eq!(r.meta, first.meta);
        assert_eq!(input.to_string(), module().to_string(), "the input module is left alone");
        let text = module().to_string();
        assert!(
            CompileCache::at_dir(&dir).unwrap().lookup_compile(&text, &opts(), true).is_none(),
            "a text probe validates what it promotes from disk"
        );
        let mut m = module();
        let r = cache.compile(&mut m, &opts(), true);
        assert!(!r.hit, "unparsable stored text is a miss for a module caller");
        // ... and the recompile replaced it, in memory and on disk.
        let (probe_key, meta, ir) = cache.lookup_compile(&text, &opts(), true).unwrap();
        assert_eq!((probe_key, &meta), (key, &first.meta));
        assert_eq!(ir.as_deref(), Some(m.to_string().as_str()));
        let st = cache.stats();
        assert_eq!((st.compile_disk_hits, st.compile_mem_hits, st.compile_misses), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metadata_only_disk_hits_promote_no_text() {
        let dir = std::env::temp_dir().join(format!("uu-cache-metaonly-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = CompileCache::at_dir(&dir).unwrap().compile(&mut module(), &opts(), true);
        let key = CompileCache::compile_key(&module(), &opts());
        let cache = CompileCache::at_dir(&dir).unwrap();
        let text_in_memory = || cache.mem_compile.lock().unwrap()[&key].1.clone();
        // The first metadata-only hit comes from disk, the second from
        // memory, and neither leaves the text there.
        for _ in 0..2 {
            let r = cache.compile(&mut module(), &opts(), false);
            assert!(r.hit && r.meta == first.meta);
            assert_eq!(text_in_memory(), None, "no text was promoted");
        }
        // A module caller reads the text from disk and parses it, so it is
        // promoted, and a daemon probe is then served from memory.
        let mut m = module();
        assert!(cache.compile(&mut m, &opts(), true).hit);
        assert_eq!(text_in_memory().as_deref(), Some(m.to_string().as_str()));
        assert!(cache.lookup_compile(&module().to_string(), &opts(), true).is_some());
        let st = cache.stats();
        assert_eq!((st.compile_disk_hits, st.compile_mem_hits), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_metadata_only_miss_keeps_no_text_and_a_module_caller_reads_the_disk() {
        let dir = std::env::temp_dir().join(format!("uu-cache-metamiss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CompileCache::compile_key(&module(), &opts());
        let cache = CompileCache::at_dir(&dir).unwrap();
        let text_in_memory = || cache.mem_compile.lock().unwrap()[&key].1.clone();
        let first = cache.compile(&mut module(), &opts(), false);
        assert!(!first.hit);
        assert_eq!(text_in_memory(), None, "a metadata-only miss keeps no text");
        // A module caller is served from disk, parsing the stored text.
        let mut m = module();
        let r = cache.compile(&mut m, &opts(), true);
        assert!(r.hit && r.meta == first.meta);
        let mut fresh = module();
        CompileCache::new_mem().compile(&mut fresh, &opts(), true);
        assert_eq!(m.to_string(), fresh.to_string());
        assert_eq!(text_in_memory().as_deref(), Some(fresh.to_string().as_str()));
        let st = cache.stats();
        assert_eq!((st.compile_misses, st.compile_disk_hits, st.compile_mem_hits), (1, 1, 0));
        // Without a disk to fall back on, that module request recompiles.
        let mem = CompileCache::new_mem();
        assert!(!mem.compile(&mut module(), &opts(), false).hit);
        assert!(!mem.compile(&mut module(), &opts(), true).hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_metadata_only_probe_of_a_disk_artifact_promotes_no_text() {
        let dir = std::env::temp_dir().join(format!("uu-cache-metaprobe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = CompileCache::at_dir(&dir).unwrap().compile(&mut module(), &opts(), true);
        let key = CompileCache::compile_key(&module(), &opts());
        let cache = CompileCache::at_dir(&dir).unwrap();
        let text_in_memory = || cache.mem_compile.lock().unwrap()[&key].1.clone();
        let text = module().to_string();
        // From disk, then from memory: metadata only, and no text kept.
        for _ in 0..2 {
            let (k, meta, ir) = cache.lookup_compile(&text, &opts(), false).unwrap();
            assert_eq!((k, &meta, ir), (key, &first.meta, None));
            assert_eq!(text_in_memory(), None, "no text was promoted");
        }
        // A module probe reads the text from disk and promotes it.
        let (_, _, ir) = cache.lookup_compile(&text, &opts(), true).unwrap();
        assert!(ir.is_some());
        assert_eq!(text_in_memory(), ir);
        let st = cache.stats();
        assert_eq!((st.compile_disk_hits, st.compile_mem_hits), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_module_config_and_workload() {
        let base = CompileCache::compile_key(&module(), &opts());
        assert_eq!(base, CompileCache::compile_key(&module(), &opts()));
        let other_opts = PipelineOptions {
            transform: Transform::Baseline,
            ..Default::default()
        };
        assert_ne!(base, CompileCache::compile_key(&module(), &other_opts));
        let run_a = CompileCache::run_key(base, "bench-a");
        let run_b = CompileCache::run_key(base, "bench-b");
        assert_ne!(run_a, run_b);
        assert_ne!(run_a, base);
    }

    #[test]
    fn mem_fault_plans_do_not_split_compile_keys() {
        let with_mem = PipelineOptions {
            fault: uu_core::FaultPlan::parse("mem@3").ok(),
            ..opts()
        };
        let with_panic = PipelineOptions {
            fault: uu_core::FaultPlan::parse("panic@3").ok(),
            ..opts()
        };
        let base = CompileCache::compile_key(&module(), &opts());
        assert_eq!(base, CompileCache::compile_key(&module(), &with_mem));
        assert_ne!(base, CompileCache::compile_key(&module(), &with_panic));
    }

    /// Every `PipelineOptions` field reaches the compile key through its
    /// `Debug` form (a `mem` fault plan excepted, above). The struct
    /// pattern makes a new field a compile error here until it is listed.
    #[test]
    fn every_pipeline_option_moves_the_compile_key() {
        let PipelineOptions {
            transform: _,
            filter: _,
            position: _,
            timeout: _,
            fault: _,
            bisect_limit: _,
        } = opts();
        let variants = [
            PipelineOptions { transform: Transform::Unmerge, ..opts() },
            PipelineOptions::for_loop(opts().transform, "k", 0),
            PipelineOptions { position: uu_core::PassPosition::Late, ..opts() },
            PipelineOptions { timeout: Some(std::time::Duration::from_secs(1)), ..opts() },
            PipelineOptions { fault: uu_core::FaultPlan::parse("panic@3").ok(), ..opts() },
            PipelineOptions { bisect_limit: Some(3), ..opts() },
        ];
        let key = |o: &PipelineOptions| CompileCache::compile_key(&module(), o);
        let mut keys: Vec<Key> = variants.iter().map(key).collect();
        keys.push(key(&opts()));
        let n = keys.len();
        keys.sort_by_key(Key::hex);
        keys.dedup();
        assert_eq!(keys.len(), n, "two option sets share a compile key");
    }

    /// The run key covers the simulator: every `GpuParams` field moves it
    /// through `model_fingerprint`, as does any other fingerprint (which is
    /// what a `SIMT_MODEL_VERSION` bump gives, checked in `uu-simt`), and
    /// the tag bytes still do.
    #[test]
    fn run_key_moves_with_every_simulator_input() {
        use uu_simt::{ExecEngine, GpuParams};
        let compile = CompileCache::compile_key(&module(), &opts());
        let p = GpuParams::default();
        let run = CompileCache::run_key(compile, "w");
        let model = uu_simt::model_fingerprint(&p);
        assert_eq!(run, CompileCache::run_key_under(compile, "w", model));
        let mut keys = vec![run];
        keys.extend(
            [
                GpuParams { warp_size: 64, ..p },
                GpuParams { num_sms: 81, ..p },
                GpuParams { warps_per_sm: 9, ..p },
                GpuParams { clock_ghz: 1.5, ..p },
                GpuParams { sector_bytes: 64, ..p },
                GpuParams { mem_tx_cycles: 3, ..p },
                GpuParams { mem_latency: 401, ..p },
                GpuParams { l1_latency: 13, ..p },
                GpuParams { icache_capacity: 3073, ..p },
                GpuParams { fetch_penalty_max: 2.5, ..p },
                GpuParams { launch_overhead: 301, ..p },
                GpuParams { max_warp_insts: 1, ..p },
                GpuParams { engine: ExecEngine::Reference, ..p },
            ]
            .iter()
            .map(|q| CompileCache::run_key_under(compile, "w", uu_simt::model_fingerprint(q))),
        );
        keys.push(CompileCache::run_key_under(compile, "w", model.wrapping_add(1)));
        keys.push(CompileCache::run_key(compile, "w2"));
        let n = keys.len();
        keys.sort_by_key(Key::hex);
        keys.dedup();
        assert_eq!(keys.len(), n, "two simulator inputs share a run key");
    }

    #[test]
    fn injected_store_fault_degrades_to_uncached_and_is_counted() {
        let dir = std::env::temp_dir().join(format!("uu-cache-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = CompileCache::at_dir(&dir).unwrap();
            inject_store_fault(true);
            let mut m = module();
            let r = cache.compile(&mut m, &opts(), true);
            inject_store_fault(false);
            assert!(!r.hit);
            assert_eq!(cache.stats().store_errors, 1, "failed store must be counted");
        }
        // Nothing reached disk: a fresh cache instance misses and
        // recompiles (counting a fresh miss, not serving a torn artifact).
        let cache = CompileCache::at_dir(&dir).unwrap();
        let mut m = module();
        let r = cache.compile(&mut m, &opts(), true);
        assert!(!r.hit, "a faulted store must not leave an artifact behind");
        assert_eq!(cache.stats().store_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_records_round_trip_through_the_cache() {
        let cache = CompileCache::new_mem();
        let key = CompileCache::run_key(CompileCache::compile_key(&module(), &opts()), "w");
        assert!(cache.lookup_run(key).is_none());
        let meta = CompileMeta {
            work: 10,
            timed_out: false,
            rung: uu_core::Rung::Full,
            diag: String::new(),
            code_size: 5,
        };
        let run = RunRecord {
            time_ms: 1.5,
            checksum: 2.5,
            transfer_ms: 0.25,
            metrics: Default::default(),
        };
        cache.store_run(key, &meta, &run);
        assert_eq!(cache.lookup_run(key), Some((meta, run)));
        let st = cache.stats();
        assert_eq!(st.run_misses, 1);
        assert_eq!(st.run_mem_hits, 1);
    }
}
