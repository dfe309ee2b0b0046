//! The compile-service daemon: a bounded worker pool accepting framed
//! requests concurrently, compiling through the guarded pipeline via the
//! cache, answering with optimized IR + rung + metrics. No command runs
//! it: it is the fixture of e2ebench's `served-warm` workload.
//!
//! A connection carries one request, as every client sends
//! ([`crate::client::Remote`]): one frame in, one response out, closed.
//!
//! Request verbs:
//!
//! * `compile` — headers `config: <name>` (required, see
//!   [`crate::config`]), `fault: <spec>` (optional [`FaultPlan`] for
//!   drills), `want-module: 0|1` (default 1), `filter-func` +
//!   `filter-loop` (optional loop selection, both or neither); body =
//!   module text, compiled under [`COMPILE_TIMEOUT`]. Response `ok`
//!   carries `cached: hit|miss`, `key` and the [`CompileMeta`] headers of
//!   the [`crate::artifact`] codec, and the optimized module as the body.
//! * `lookup-run` — header `key` (a run key, 32 hex). Response `ok` with
//!   the stored [`CompileMeta`] and [`RunRecord`] headers, or `miss`.
//! * `store-run` — `key` plus those headers, stored in the cache. With the
//!   two run verbs the daemon serves what its directory would
//!   ([`Artifacts`]); a client that reaches the socket can write a run
//!   record, the trust a shared `UU_CACHE_DIR` already asks for.
//! * `ping` — liveness probe.
//! * `shutdown` — acknowledge, stop accepting, finish in-flight
//!   requests, then exit (graceful drain).
//!
//! At most [`ServeOptions::inflight`] compile requests run at once; an
//! excess one is answered `busy` at once and counted in `busy_shed`.
//! Control and run verbs are never shed. Every request runs under
//! `catch_unwind` *in addition to* the pipeline's own pass guards: a panic
//! that escapes request handling is answered with an `error`, counted in
//! `handler_panics`, and the daemon keeps serving. A damaged frame
//! (oversized, non-UTF-8, malformed) is counted in `frame_defects` and
//! answered with an `error` carrying the reason; then the connection
//! closes like any other.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use crate::artifact::{CompileMeta, RunRecord};
use crate::cache::{Artifacts, CompileCache, Key};
use crate::config::{config_names, parse_config};
use crate::proto::{read_frame, write_frame, Message};
use uu_core::{FaultPlan, LoopFilter, PipelineOptions, COMPILE_TIMEOUT};
use uu_par::{run_crew, TaskQueue};

/// Consecutive accept failures tolerated before the daemon gives up with a
/// clean nonzero exit.
const ACCEPT_RETRIES: u32 = 8;

/// Tunables for the concurrent service, set by the tests and by
/// e2ebench's `served-warm` workload.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Maximum concurrently-running compile requests before admission
    /// control sheds load with `busy`.
    pub inflight: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { workers: 4, inflight: 4 }
    }
}

/// The shared state of one daemon: cache, tunables, admission gauge and
/// drain flag. All methods take `&self`; one `Service` is shared by every
/// worker thread.
pub(crate) struct Service<'a> {
    cache: &'a CompileCache,
    opts: ServeOptions,
    /// Compile requests currently being handled (the admission gauge).
    inflight: AtomicUsize,
    draining: AtomicBool,
}

impl<'a> Service<'a> {
    /// A service over `cache` with the given tunables.
    pub(crate) fn new(cache: &'a CompileCache, opts: ServeOptions) -> Service<'a> {
        Service {
            cache,
            opts,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// Whether a `shutdown` has been requested (the accept loop stops
    /// admitting new connections once this is set; in-flight work still
    /// completes — drain, not abort).
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Answer the one request a connection carries: read a frame, write
    /// its response. A connection that closes before a frame is answered
    /// by nothing; a bad frame (`InvalidData`) is counted in
    /// `frame_defects` and answered with an `error`. Any other I/O error
    /// is counted in `conn_errors`: a dropped client must not kill the
    /// daemon, but it must be visible in the stats.
    pub(crate) fn serve_conn(&self, r: &mut impl Read, w: &mut impl Write) -> io::Result<()> {
        let done = match read_frame(r) {
            Ok(Some(req)) => write_frame(w, &self.respond(&req)),
            Ok(None) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                self.cache.stats_mut(|s| s.frame_defects += 1);
                write_frame(w, &error(&e.to_string()))
            }
            Err(e) => Err(e),
        };
        if done.is_err() {
            self.cache.stats_mut(|s| s.conn_errors += 1);
        }
        done
    }

    /// The response to one request, with any panic that escapes its
    /// handling contained and counted.
    fn respond(&self, req: &Message) -> Message {
        // Admission control: shed immediately when the in-flight gauge is
        // at its cap — a saturated pool answering `busy` in microseconds
        // beats a client waiting unboundedly for a worker.
        let _gauge = if req.verb == "compile" {
            match Gauge::acquire(&self.inflight, self.opts.inflight.max(1)) {
                Some(g) => Some(g),
                None => {
                    self.cache.stats_mut(|s| s.busy_shed += 1);
                    return Message::new("busy");
                }
            }
        } else {
            None
        };
        self.cache.stats_mut(|s| s.requests += 1);
        catch_unwind(AssertUnwindSafe(|| self.handle(req))).unwrap_or_else(|_| {
            self.cache.stats_mut(|s| s.handler_panics += 1);
            error("internal panic while handling request (contained)")
        })
    }

    fn handle(&self, req: &Message) -> Message {
        match req.verb.as_str() {
            "compile" => self.compile(req),
            "ping" => Message::new("ok").header("service", "uu-serve"),
            "lookup-run" => match req.get("key").and_then(Key::parse) {
                None => error("missing or malformed `key` header"),
                Some(key) => match self.cache.lookup_run(key) {
                    Some((meta, run)) => run.to_headers(meta.to_headers(Message::new("ok"))),
                    None => Message::new("miss"),
                },
            },
            "store-run" => {
                let key = req.get("key").and_then(Key::parse);
                match (key, CompileMeta::from_headers(req), RunRecord::from_headers(req)) {
                    (Some(key), Some(meta), Some(run)) => {
                        self.cache.store_run(key, &meta, &run);
                        Message::new("ok")
                    }
                    _ => error("missing or malformed `key` or run-record header"),
                }
            }
            "shutdown" => {
                self.draining.store(true, Ordering::SeqCst);
                Message::new("ok").header("service", "uu-serve").header("draining", 1)
            }
            other => error(&format!("unknown verb `{other}`")),
        }
    }

    fn compile(&self, req: &Message) -> Message {
        let Some(config) = req.get("config") else {
            return error("missing `config` header");
        };
        let Some(transform) = parse_config(config) else {
            return error(&format!(
                "unknown config `{config}`; expected {}",
                config_names()
            ));
        };
        let fault = match req.get("fault") {
            None | Some("") => None,
            Some(spec) => match FaultPlan::parse(spec) {
                Ok(p) => Some(p),
                Err(e) => return error(&format!("malformed fault spec: {e}")),
            },
        };
        let filter = match (req.get("filter-func"), req.get("filter-loop")) {
            (None, None) => LoopFilter::All,
            (Some(func), Some(l)) => match l.parse::<usize>() {
                Ok(loop_id) => LoopFilter::Only {
                    func: func.to_string(),
                    loop_id,
                },
                Err(_) => return error(&format!("`filter-loop` is not a usize: {l:?}")),
            },
            _ => return error("`filter-func` and `filter-loop` must be given together"),
        };
        let want_module = req.get("want-module") != Some("0");
        let opts = PipelineOptions {
            transform,
            filter,
            timeout: Some(COMPILE_TIMEOUT),
            fault,
            ..Default::default()
        };
        // Hit path: key the request from the bytes on the wire and forward
        // the stored text — no parse, no print. `module_hash` is `fnv1a` of
        // the printed module and print → parse → print is a fixpoint, so
        // for a printer-produced body this *is* the canonical key. Any
        // other body (hand-written, reformatted) misses here and is keyed
        // again below from its parse: slower, never wrong.
        if let Some((key, meta, ir)) = self.cache.lookup_compile(&req.body, &opts, want_module) {
            return compile_ok(key, &meta, true, ir.map(|ir| ir.to_string()));
        }
        let mut module = match uu_ir::parse_module(&req.body) {
            Ok(m) => m,
            Err(e) => return error(&format!("module does not parse: {e}")),
        };
        let out = self.cache.compile(&mut module, &opts, want_module);
        if out.meta.timed_out && !out.hit {
            self.cache.stats_mut(|s| s.deadline_hits += 1);
        }
        compile_ok(out.key, &out.meta, out.hit, want_module.then(|| module.to_string()))
    }
}

/// The `ok` reply to a compile request: the codec's meta headers after
/// `cached` and `key`, the optimized module (when wanted) as the body.
fn compile_ok(key: Key, meta: &CompileMeta, hit: bool, body: Option<String>) -> Message {
    let resp = Message::new("ok")
        .header("cached", if hit { "hit" } else { "miss" })
        .header("key", key.hex());
    meta.to_headers(resp).with_body(body.unwrap_or_default())
}

/// RAII admission slot: acquired when the gauge is under `cap`,
/// released on drop (including drop by panic unwind — a panicking
/// handler must not leak its slot and strangle admission).
struct Gauge<'a>(&'a AtomicUsize);

impl<'a> Gauge<'a> {
    fn acquire(gauge: &'a AtomicUsize, cap: usize) -> Option<Gauge<'a>> {
        if gauge.fetch_add(1, Ordering::SeqCst) >= cap {
            gauge.fetch_sub(1, Ordering::SeqCst);
            None
        } else {
            Some(Gauge(gauge))
        }
    }
}

impl Drop for Gauge<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn error(reason: &str) -> Message {
    Message::new("error").header("reason", reason.replace('\n', " "))
}

/// Serve on a Unix socket at `path` until a client sends `shutdown` — the
/// daemon's one entry point. A socket at `path` that answers a connect
/// belongs to a live daemon: that is an [`io::ErrorKind::AddrInUse`]
/// error and the file is left alone; one nobody answers is stale and
/// replaced. Once the socket is bound, `uu-serve: serving on <path>` goes
/// to stderr. A crew of
/// [`ServeOptions::workers`] threads handles connections concurrently
/// off a shared queue while the calling thread blocks in `accept`.
///
/// Shutdown is a graceful drain: the `shutdown` verb flips the drain
/// flag, and the worker that finishes a connection on a draining service
/// wakes the blocked `accept` with one connection to `path` of its own.
/// The accept loop re-checks the flag after every `accept`, drops that
/// connection (or a client that raced the drain) unqueued and closes the
/// listener — later clients get a connection error, not a hang — while
/// queued and in-flight connections finish; then the crew retires and
/// the socket file is removed. A socket file unlinked under a live
/// daemon cannot be woken this way (nor reached by any client): the
/// failed wake is logged and counted in `accept_errors`.
///
/// Accept errors are counted in [`CacheStats::accept_errors`] and
/// retried with a short growing pause; eight (`ACCEPT_RETRIES`)
/// *consecutive* failures mean the listener is wedged, and the daemon
/// exits with the error (a clean nonzero exit) instead of spinning on a
/// dead socket forever.
///
/// [`CacheStats::accept_errors`]: crate::stats::CacheStats::accept_errors
pub fn serve_unix_with(path: &Path, cache: &CompileCache, opts: ServeOptions) -> io::Result<()> {
    if UnixStream::connect(path).is_ok() {
        return Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("{}: a daemon is already serving on this socket", path.display()),
        ));
    }
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    eprintln!("uu-serve: serving on {}", path.display());
    let service = &Service::new(cache, opts);
    let queue: &TaskQueue<UnixStream> = &TaskQueue::new();
    let woken = AtomicBool::new(false);
    let result = run_crew(
        service.opts.workers,
        queue,
        |conn: UnixStream| {
            if let Err(e) = service.serve_conn(&mut &conn, &mut &conn) {
                eprintln!("uu-serve: connection error (continuing): {e}");
            }
            // First connection to end on a draining service (the one that
            // answered `shutdown`, even if the ack could not be written):
            // wake the accept loop, once.
            if service.is_draining() && !woken.swap(true, Ordering::SeqCst) {
                if let Err(e) = UnixStream::connect(path) {
                    service.cache.stats_mut(|s| s.accept_errors += 1);
                    eprintln!("uu-serve: cannot wake the accept loop to drain: {e}");
                }
            }
        },
        // Owns the listener: it closes when the loop ends, so a client
        // (or the wake) still in the backlog is refused, never stranded.
        move || {
            let mut consecutive: u32 = 0;
            loop {
                match listener.accept() {
                    Ok((conn, _)) => {
                        if service.is_draining() {
                            return Ok(());
                        }
                        consecutive = 0;
                        if queue.push(conn).is_err() {
                            return Ok(()); // queue closed: drain underway
                        }
                    }
                    Err(e) => {
                        consecutive += 1;
                        service.cache.stats_mut(|s| s.accept_errors += 1);
                        eprintln!(
                            "uu-serve: accept error ({consecutive} consecutive): {e}"
                        );
                        if consecutive >= ACCEPT_RETRIES {
                            return Err(io::Error::new(
                                e.kind(),
                                format!(
                                    "{consecutive} consecutive accept failures; giving up: {e}"
                                ),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(2u64 << consecutive.min(6)));
                    }
                }
            }
        },
    );
    let _ = std::fs::remove_file(path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODULE: &str = "\
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

    fn service(cache: &CompileCache) -> Service<'_> {
        Service::new(cache, ServeOptions::default())
    }

    #[test]
    fn compile_twice_hits_the_cache_with_identical_output() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let req = Message::new("compile").header("config", "uu4").with_body(MODULE);
        let a = svc.respond(&req);
        let b = svc.respond(&req);
        assert_eq!(a.verb, "ok");
        assert_eq!(a.get("cached"), Some("miss"));
        assert_eq!(b.get("cached"), Some("hit"));
        assert_eq!(a.get("rung"), Some("full"));
        assert_eq!(a.body, b.body);
        assert_eq!(a.get("key"), b.get("key"));
        assert_ne!(a.body, MODULE); // uu4 actually transformed the kernel
        assert_eq!(cache.stats().requests, 2);
    }

    /// `MODULE` as the printer writes it — what a harness client sends.
    fn canonical() -> String {
        uu_ir::parse_module(MODULE).unwrap().to_string()
    }

    fn compile_req(body: &str) -> Message {
        Message::new("compile").header("config", "uu4").with_body(body)
    }

    /// The options `Service::compile` builds for [`compile_req`].
    fn uu4_opts() -> PipelineOptions {
        PipelineOptions {
            transform: parse_config("uu4").unwrap(),
            timeout: Some(COMPILE_TIMEOUT),
            ..Default::default()
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uu-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn reformatted_body_is_the_same_hit_through_the_parse_path() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let canonical = canonical();
        let first = svc.respond(&compile_req(&canonical));
        assert_eq!(first.get("cached"), Some("miss"));
        // Same module, not the printer's bytes: blank lines, a comment,
        // trailing spaces. The wire-bytes probe misses, the parse finds
        // the canonical key.
        let reformatted = canonical
            .replace("bb1:\n", "\n; the loop header\nbb1:   \n")
            .replace("  br bb1\n", "  br bb1  \n\n");
        assert_ne!(reformatted, canonical);
        let forwarded = svc.respond(&compile_req(&canonical));
        let reparsed = svc.respond(&compile_req(&reformatted));
        for hit in [&forwarded, &reparsed] {
            assert_eq!(hit.get("cached"), Some("hit"));
            assert_eq!(hit.get("key"), first.get("key"));
            assert_eq!(CompileMeta::from_headers(hit), CompileMeta::from_headers(&first));
            assert_eq!(hit.body, first.body);
        }
        let st = cache.stats();
        assert_eq!((st.compile_misses, st.compile_mem_hits), (1, 2));
    }

    #[test]
    fn unparsable_body_is_an_error_on_an_empty_and_on_a_primed_cache() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let broken = "fn @broken(i64 %n) -> i64 {\nbb0:\n  frobnicate\n}\n";
        for primed in [false, true] {
            if primed {
                assert_eq!(svc.respond(&compile_req(&canonical())).verb, "ok");
            }
            let r = svc.respond(&compile_req(broken));
            assert_eq!(r.verb, "error", "primed: {primed}");
            assert!(r.get("reason").unwrap().starts_with("module does not parse"), "{r:?}");
        }
    }

    #[test]
    fn a_hit_forwards_the_stored_bytes_without_parsing_or_printing() {
        let dir = scratch_dir("forward");
        let cache = CompileCache::at_dir(&dir).unwrap();
        let svc = service(&cache);
        // Plant, under the key of a request, an artifact holding a
        // *different* valid module, laid out as the printer never would
        // (comment, indentation). The request body is not even IR: a hit
        // must not parse it, and must not re-print what it forwards.
        let body = "not IR at all";
        let planted = "; module planted\n; by hand\nfn @other() -> void {\nbb0:\n      ret void\n}\n";
        let key = CompileCache::key_for_hash(uu_ir::fnv1a(body.as_bytes()), &uu4_opts());
        let meta = CompileMeta {
            work: 77,
            timed_out: false,
            rung: uu_core::Rung::Full,
            diag: String::new(),
            code_size: 3,
        };
        let path = cache.path_of(key).unwrap();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let artifact = crate::artifact::Artifact::Compile { meta, ir: planted.to_string() };
        std::fs::write(&path, artifact.encode()).unwrap();
        for layer in ["disk", "memory"] {
            let r = svc.respond(&compile_req(body));
            assert_eq!(r.verb, "ok", "{layer}: {r:?}");
            assert_eq!(r.get("cached"), Some("hit"));
            assert_eq!(r.get("key"), Some(key.hex().as_str()));
            assert_eq!(r.get("work"), Some("77"));
            assert_eq!(r.body, planted, "{layer}: forwarded byte for byte");
        }
        let st = cache.stats();
        assert_eq!((st.compile_disk_hits, st.compile_mem_hits, st.compile_misses), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_ir_fnv_is_a_miss_that_recompiles() {
        let dir = scratch_dir("stale");
        let canonical = canonical();
        let (good, path) = {
            let cache = CompileCache::at_dir(&dir).unwrap();
            let r = service(&cache).respond(&compile_req(&canonical));
            let key = CompileCache::key_for_hash(uu_ir::fnv1a(canonical.as_bytes()), &uu4_opts());
            (r.body, cache.path_of(key).unwrap())
        };
        // Flip one IR byte and leave the seal alone.
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("  ret i64", "  ret i32", 1);
        assert_ne!(flipped, text);
        std::fs::write(&path, flipped).unwrap();
        let cache = CompileCache::at_dir(&dir).unwrap();
        let r = service(&cache).respond(&compile_req(&canonical));
        assert_eq!(r.get("cached"), Some("miss"));
        assert_eq!(r.body, good);
        assert_eq!(cache.stats().compile_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forwarded_hits_feed_the_hit_counters_and_lookup_time() {
        // A body big enough that keying it cannot round to 0 µs.
        let mut big = String::from("; module big\n");
        let func = canonical().replacen("; module t\n", "", 1);
        for i in 0..400 {
            big.push_str(&func.replace("@k(", &format!("@k{i}(")));
        }
        let big = uu_ir::parse_module(&big).unwrap().to_string();
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let req = Message::new("compile")
            .header("config", "baseline")
            .header("want-module", 0)
            .with_body(big);
        let miss = svc.respond(&req);
        assert_eq!(miss.get("cached"), Some("miss"));
        let before = cache.stats();
        for _ in 0..3 {
            let hit = svc.respond(&req);
            assert_eq!(hit.get("cached"), Some("hit"));
            assert_eq!(hit.body, "", "want-module: 0 forwards the metadata only");
        }
        let after = cache.stats();
        let work: u64 = miss.get("work").unwrap().parse().unwrap();
        assert_eq!(after.compile_mem_hits, before.compile_mem_hits + 3);
        assert_eq!(after.work_saved, before.work_saved + 3 * work);
        assert_eq!(after.requests, before.requests + 3);
        assert!(after.lookup_micros > before.lookup_micros, "{before:?} -> {after:?}");
        assert_eq!(after.compile_micros, before.compile_micros);
    }

    #[test]
    fn faulted_request_reports_degraded_rung_and_service_survives() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let req = Message::new("compile")
            .header("config", "uu4")
            .header("fault", "panic@1")
            .with_body(MODULE);
        let a = svc.respond(&req);
        assert_eq!(a.verb, "ok", "faulted compile must be contained");
        assert_ne!(a.get("rung"), Some("full"));
        assert!(a.get("diag").is_some());
        // A pipeline-contained fault is not a handler panic.
        assert_eq!(cache.stats().handler_panics, 0);
        // Service still answers afterwards.
        let ping = svc.respond(&Message::new("ping"));
        assert_eq!(ping.verb, "ok");
        // And the faulted artifact is keyed separately from the clean one.
        let clean = svc.respond(&compile_req(MODULE));
        assert_eq!(clean.get("cached"), Some("miss"));
        assert_eq!(clean.get("rung"), Some("full"));
    }

    #[test]
    fn a_request_deadline_times_the_compile_out_and_counts_once() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        // `exhaust` spends the compile's whole work budget: the service
        // deadline fires on the first pass.
        let req = compile_req(MODULE).header("fault", "exhaust@0");
        let miss = svc.respond(&req);
        let meta = CompileMeta::from_headers(&miss).unwrap();
        assert!(meta.timed_out, "{miss:?}");
        let hit = svc.respond(&req);
        assert_eq!(hit.get("cached"), Some("hit"));
        assert_eq!(CompileMeta::from_headers(&hit), Some(meta));
        assert_eq!(cache.stats().deadline_hits, 1, "a served hit is not a deadline hit");
    }

    #[test]
    fn rung_counts_bucket_every_compile_by_its_rung() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let faulted = compile_req(MODULE).header("fault", "panic@1");
        let rung = CompileMeta::from_headers(&svc.respond(&faulted)).unwrap().rung;
        assert_ne!(rung, uu_core::Rung::Full);
        let mut want = [0u64; 4];
        want[rung.index()] = 1;
        assert_eq!(cache.stats().rung_counts, want);
        // A hit counts the rung recorded with it; a clean compile counts full.
        svc.respond(&faulted);
        svc.respond(&compile_req(MODULE));
        want[rung.index()] = 2;
        want[uu_core::Rung::Full.index()] = 1;
        assert_eq!(cache.stats().rung_counts, want);
    }

    #[test]
    fn a_connection_whose_writes_fail_is_counted_and_ends() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cache = CompileCache::new_mem();
        let mut frames = Vec::new();
        for _ in 0..2 {
            crate::proto::write_frame(&mut frames, &Message::new("ping")).unwrap();
        }
        let e = service(&cache).serve_conn(&mut &frames[..], &mut Broken).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::BrokenPipe);
        let st = cache.stats();
        assert_eq!((st.conn_errors, st.requests), (1, 1), "the second ping is never read");
    }

    #[test]
    fn bad_requests_get_error_responses_not_crashes() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let no_config = svc.respond(&Message::new("compile").with_body(MODULE));
        assert_eq!(no_config.verb, "error");
        let bad_config =
            svc.respond(&Message::new("compile").header("config", "warp9").with_body(MODULE));
        assert_eq!(bad_config.verb, "error");
        let bad_module = svc.respond(
            &Message::new("compile")
                .header("config", "uu4")
                .with_body("fn @broken(i64 %n) -> i64 {\nbb0:\n  frobnicate\n}\n"),
        );
        assert_eq!(bad_module.verb, "error");
        let bad_fault = svc.respond(
            &Message::new("compile")
                .header("config", "uu4")
                .header("fault", "gremlin@?")
                .with_body(MODULE),
        );
        assert_eq!(bad_fault.verb, "error");
        let half_filter = svc.respond(
            &Message::new("compile")
                .header("config", "uu4")
                .header("filter-func", "k")
                .with_body(MODULE),
        );
        assert_eq!(half_filter.verb, "error");
        // `stats` is retired: the cache's counters are read in process.
        for verb in ["frobnicate", "stats"] {
            assert_eq!(svc.respond(&Message::new(verb)).verb, "error", "{verb}");
        }
    }

    #[test]
    fn stored_runs_are_served_bit_exactly_and_bad_ones_store_nothing() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let key = CompileCache::run_key(CompileCache::key_for_hash(7, &uu4_opts()), "w");
        let lookup = |key: &str| Message::new("lookup-run").header("key", key);
        assert_eq!(svc.respond(&lookup(&key.hex())).verb, "miss");
        let meta = CompileMeta {
            work: 12,
            timed_out: true,
            rung: uu_core::Rung::NoTransform,
            diag: "uu#0@k: panic\nboom".to_string(),
            code_size: 34,
        };
        let run = RunRecord {
            time_ms: 0.1 + 0.2,
            checksum: -0.0,
            transfer_ms: 1.5,
            metrics: uu_simt::Metrics {
                warp_insts: 5,
                kernel_cycles: u64::MAX,
                ..Default::default()
            },
        };
        let store = |key: &str| {
            run.to_headers(meta.to_headers(Message::new("store-run").header("key", key)))
        };
        assert_eq!(svc.respond(&store(&key.hex())).verb, "ok");
        let hit = svc.respond(&lookup(&key.hex()));
        assert_eq!(hit.verb, "ok", "{hit:?}");
        assert_eq!(CompileMeta::from_headers(&hit), Some(meta.clone()));
        let served = RunRecord::from_headers(&hit).unwrap();
        assert_eq!(served.time_ms.to_bits(), run.time_ms.to_bits());
        assert_eq!(served.checksum.to_bits(), run.checksum.to_bits());
        assert_eq!(served, run);

        // A malformed key or record is an error that stores nothing:
        // every later lookup of those keys misses.
        let other = CompileCache::run_key(key, "other");
        let damaged = Message::decode(&store(&other.hex()).encode().replace("work: 12", "work: x"))
            .unwrap();
        let mut no_key = store(&other.hex());
        no_key.headers.retain(|(k, _)| k != "key");
        for bad in [store("0123"), store(&format!("{}g", &other.hex()[1..])), damaged, no_key] {
            assert_eq!(svc.respond(&bad).verb, "error", "{bad:?}");
        }
        for bad in ["", "0123", "+0000000000000000000000000000000"] {
            assert_eq!(svc.respond(&lookup(bad)).verb, "error", "{bad:?}");
        }
        let misses = cache.stats().run_misses;
        assert_eq!(svc.respond(&lookup(&other.hex())).verb, "miss");
        assert_eq!(cache.stats().run_misses, misses + 1);
        let st = cache.stats();
        assert_eq!((st.run_mem_hits, st.run_misses), (1, 2), "{st:?}");
        assert_eq!(st.requests, 11, "every run request counts");
    }

    #[test]
    fn shutdown_sets_the_drain_flag() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        assert!(!svc.is_draining());
        let bye = svc.respond(&Message::new("shutdown"));
        assert_eq!((bye.verb.as_str(), bye.get("draining")), ("ok", Some("1")));
        assert!(svc.is_draining());
    }

    #[test]
    fn filtered_compile_matches_the_equivalent_pipeline_options() {
        // The remote backend's contract: config + filter headers must
        // reproduce exactly the PipelineOptions the batch harness builds.
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let req = Message::new("compile")
            .header("config", "unroll2")
            .header("filter-func", "k")
            .header("filter-loop", "0")
            .with_body(MODULE);
        let resp = svc.respond(&req);
        assert_eq!(resp.verb, "ok");
        let mut m = uu_ir::parse_module(MODULE).unwrap();
        let opts = PipelineOptions {
            transform: parse_config("unroll2").unwrap(),
            filter: LoopFilter::Only { func: "k".into(), loop_id: 0 },
            timeout: Some(COMPILE_TIMEOUT),
            ..Default::default()
        };
        let local = uu_core::compile(&mut m, &opts);
        assert_eq!(resp.get("rung"), Some(local.rung.as_str()));
        assert_eq!(resp.get("work"), Some(local.work.to_string().as_str()));
        assert_eq!(resp.body, m.to_string(), "remote and local modules must match");
    }

    #[test]
    fn admission_control_sheds_with_busy() {
        let cache = CompileCache::new_mem();
        let opts = ServeOptions { inflight: 1, ..ServeOptions::default() };
        let svc = Service::new(&cache, opts);
        // Occupy the only slot by hand, then probe.
        let _slot = Gauge::acquire(&svc.inflight, 1).unwrap();
        let req = Message::new("compile").header("config", "uu2").with_body(MODULE);
        let shed = svc.respond(&req);
        assert_eq!(shed.verb, "busy");
        assert_eq!(cache.stats().busy_shed, 1);
        // Control verbs are never shed.
        assert_eq!(svc.respond(&Message::new("ping")).verb, "ok");
        drop(_slot);
        assert_eq!(svc.respond(&req).verb, "ok");
    }

    /// A client end of a socket pair whose other end `svc` serves on a
    /// scoped thread; reads time out, so a server that keeps the
    /// connection open fails the test instead of hanging it. Drop the
    /// client before the scope joins.
    fn served_pair<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        svc: &'s Service<'_>,
    ) -> UnixStream {
        let (client, server) = UnixStream::pair().unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.spawn(move || svc.serve_conn(&mut &server, &mut &server));
        client
    }

    #[test]
    fn a_connection_carries_one_request() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        std::thread::scope(|s| {
            let mut client = served_pair(s, &svc);
            // A second frame before reading the first response: the
            // server answers the compile and closes with the `ping` unread.
            let mut two = Vec::new();
            write_frame(&mut two, &compile_req(MODULE)).unwrap();
            write_frame(&mut two, &Message::new("ping")).unwrap();
            client.write_all(&two).unwrap();
            let resp = read_frame(&mut client).unwrap().unwrap();
            assert_eq!((resp.verb.as_str(), resp.get("cached")), ("ok", Some("miss")));
            // Closing with a frame still queued is a reset on Linux.
            match read_frame(&mut client) {
                Ok(None) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                other => panic!("a second response or no end: {other:?}"),
            }
        });
        assert_eq!(cache.stats().requests, 1);
    }

    #[test]
    fn a_bad_frame_gets_an_error_then_the_end_of_the_connection() {
        let cache = CompileCache::new_mem();
        let svc = service(&cache);
        let garbage = b"not a message";
        let mut malformed = (garbage.len() as u32).to_le_bytes().to_vec();
        malformed.extend_from_slice(garbage);
        // An oversized length alone: refused before any payload is read.
        let oversized = (crate::proto::MAX_FRAME + 1).to_le_bytes().to_vec();
        for (i, (bad, reason)) in
            [(malformed, "malformed message"), (oversized, "exceeds MAX_FRAME")]
                .into_iter()
                .enumerate()
        {
            std::thread::scope(|s| {
                let mut client = served_pair(s, &svc);
                client.write_all(&bad).unwrap();
                let resp = read_frame(&mut client).unwrap().unwrap();
                assert_eq!(resp.verb, "error");
                assert!(resp.get("reason").unwrap().contains(reason), "{resp:?}");
                assert!(read_frame(&mut client).unwrap().is_none(), "the connection ends");
            });
            assert_eq!(cache.stats().frame_defects, i as u64 + 1);
        }
        assert_eq!(cache.stats().requests, 0);
    }

    #[test]
    fn a_second_daemon_on_a_live_socket_is_refused_and_the_first_keeps_serving() {
        let dir = scratch_dir("twice");
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("d.sock");
        let patience = Duration::from_secs(10);
        // Plain threads, not a scope: a second daemon that took the socket
        // over would leave the first unreachable, and the test must fail
        // rather than wait for it.
        let (done_tx, done) = std::sync::mpsc::channel();
        let start = |name: &'static str, cache: std::sync::Arc<CompileCache>| {
            let (sock, done_tx) = (sock.clone(), done_tx.clone());
            std::thread::spawn(move || {
                let _ = done_tx.send((name, serve_unix_with(&sock, &cache, ServeOptions::default())));
            })
        };
        let first_cache = std::sync::Arc::new(CompileCache::new_mem());
        let first = start("first", first_cache.clone());
        drop(crate::client::connect_unix(&sock, patience).unwrap()); // bound
        let second = start("second", std::sync::Arc::new(CompileCache::new_mem()));
        let (name, r) = done.recv_timeout(patience).expect("the second daemon must not serve");
        assert_eq!(name, "second");
        assert_eq!(r.unwrap_err().kind(), io::ErrorKind::AddrInUse);
        second.join().unwrap();
        assert!(sock.exists(), "the live daemon's socket is left alone");
        let ask = |verb: &str| {
            let mut conn = crate::client::connect_unix(&sock, patience).unwrap();
            conn.set_read_timeout(Some(patience)).unwrap();
            crate::client::request_over(&mut conn, &Message::new(verb)).unwrap()
        };
        let before = first_cache.stats().requests;
        assert_eq!(ask("ping").verb, "ok");
        assert_eq!(first_cache.stats().requests, before + 1);
        assert_eq!(ask("shutdown").verb, "ok");
        let (name, r) = done.recv_timeout(patience).expect("the first daemon drains");
        assert_eq!(name, "first");
        r.unwrap();
        first.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_daemon_drains_on_shutdown_with_zero_lost_responses() {
        let dir = std::env::temp_dir().join(format!("uu-serve-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("drain.sock");
        let cache = CompileCache::new_mem();
        let opts = ServeOptions { workers: 2, inflight: 2, ..ServeOptions::default() };
        std::thread::scope(|s| {
            let sock_ref = &sock;
            let cache_ref = &cache;
            let daemon = s.spawn(move || serve_unix_with(sock_ref, cache_ref, opts));
            // Several concurrent clients, one request each.
            let patience = Duration::from_secs(10);
            let mut clients = Vec::new();
            for i in 0..6 {
                let sock = &sock;
                clients.push(s.spawn(move || {
                    let mut conn = crate::client::connect_unix(sock, patience).unwrap();
                    let req = Message::new("compile")
                        .header("config", if i % 2 == 0 { "uu2" } else { "unroll2" })
                        .with_body(MODULE);
                    crate::client::request_over(&mut conn, &req).unwrap()
                }));
            }
            for c in clients {
                let resp = c.join().unwrap();
                assert_eq!(resp.verb, "ok", "no response may be lost");
            }
            // Drain: shutdown acks, daemon exits cleanly.
            let mut conn = crate::client::connect_unix(&sock, patience).unwrap();
            let bye =
                crate::client::request_over(&mut conn, &Message::new("shutdown")).unwrap();
            assert_eq!(bye.verb, "ok");
            daemon.join().unwrap().unwrap();
        });
        assert!(!sock.exists(), "socket file must be removed after drain");
        assert_eq!(cache.stats().requests, 7); // 6 compiles + 1 shutdown
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Start a daemon with `workers` threads, let `clients` talk to it,
    /// send `shutdown` as the very last client action and return how long
    /// the daemon thread took to exit after the ack.
    fn drain_after(workers: usize, tag: &str, clients: impl FnOnce(&Path)) -> Duration {
        let dir = scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("d.sock");
        let cache = CompileCache::new_mem();
        let opts = ServeOptions { workers, inflight: workers, ..ServeOptions::default() };
        let patience = Duration::from_secs(10);
        let took = std::thread::scope(|s| {
            let (sock_ref, cache_ref) = (&sock, &cache);
            let daemon = s.spawn(move || serve_unix_with(sock_ref, cache_ref, opts));
            // Let the daemon bind, then hand the clients the socket.
            drop(crate::client::connect_unix(&sock, patience).unwrap());
            clients(&sock);
            let mut conn = crate::client::connect_unix(&sock, patience).unwrap();
            let bye = crate::client::request_over(&mut conn, &Message::new("shutdown")).unwrap();
            assert_eq!(bye.verb, "ok");
            let t0 = std::time::Instant::now();
            // Nothing else connects: only the daemon's own wake can end
            // the blocked `accept`.
            daemon.join().unwrap().unwrap();
            t0.elapsed()
        });
        assert!(!sock.exists(), "socket file must be removed after drain");
        // After the drain a client gets a connection error, not a hang.
        assert!(UnixStream::connect(&sock).is_err());
        assert_eq!(cache.stats().accept_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
        took
    }

    #[test]
    fn shutdown_wakes_a_blocked_accept_with_one_worker() {
        let took = drain_after(1, "wake1", |_| {});
        assert!(took < Duration::from_secs(1), "drain took {took:?}");
    }

    #[test]
    fn shutdown_wakes_a_blocked_accept_with_four_workers() {
        let took = drain_after(4, "wake4", |sock| {
            // Idle connections that never send a request, parked on other
            // workers, must neither block the wake nor be cut short: they
            // close first.
            let idle: Vec<_> = (0..3).map(|_| UnixStream::connect(sock).unwrap()).collect();
            let mut conn = UnixStream::connect(sock).unwrap();
            let pong = crate::client::request_over(&mut conn, &Message::new("ping")).unwrap();
            assert_eq!(pong.verb, "ok");
            drop(idle);
        });
        assert!(took < Duration::from_secs(1), "drain took {took:?}");
    }
}
