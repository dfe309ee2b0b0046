//! Client side: connect to a daemon and exchange framed messages, with
//! deterministic backoff and automatic retry of `busy`/transient
//! failures — the client half of the service's overload contract.
//!
//! [`Remote`] is the batch harness's [`Artifacts`] store over a daemon:
//! one fresh connection per request (HTTP/1.0 style — the only shape the
//! daemon serves, so its worker pool is never held by idle connections),
//! `busy` responses honored via their `retry-after-ms` hint, torn frames
//! and mid-request disconnects retried with capped exponential backoff.
//! All sleeping is wall-clock only — no retry decision feeds into report
//! bytes, which is why sweeps through a saturated daemon stay
//! byte-identical to cacheless runs.

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::artifact::{CompileMeta, RunRecord};
use crate::backoff::Backoff;
use crate::cache::{Artifacts, Key};
use crate::config::config_name;
use crate::proto::{read_frame, write_frame, Message};
use uu_core::{FaultPlan, LoopFilter, PipelineOptions};
use uu_ir::Module;

/// Connect to the daemon's Unix socket, retrying with jittered
/// exponential backoff until `patience` runs out — the common pattern is
/// "start daemon in background, then connect", and the bind may land a
/// few milliseconds after the client starts. (The old implementation
/// re-polled `Instant::now` on a fixed 20 ms cadence; backoff both
/// reacts faster when the socket appears quickly and wastes less when it
/// doesn't.)
pub(crate) fn connect_unix(path: &Path, patience: Duration) -> io::Result<UnixStream> {
    let deadline = Instant::now() + patience;
    // Seeded from the socket path: deterministic per target, decorrelated
    // across daemons.
    let mut backoff = Backoff::with_limits(uu_ir::fnv1a(path.as_os_str().as_encoded_bytes()), 2, 100);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(backoff.next_delay());
            }
        }
    }
}

/// One request/response exchange over any framed stream. A clean EOF in
/// place of a response is an error (the server died mid-request).
pub(crate) fn request_over(stream: &mut (impl Read + Write), req: &Message) -> io::Result<Message> {
    write_frame(stream, req)?;
    read_frame(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without responding",
        )
    })
}

/// The result of a compile routed through a daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteCompile {
    /// Compile metadata, exactly as the local pipeline would report it.
    pub meta: CompileMeta,
    /// Whether the daemon served it from its cache.
    pub hit: bool,
    /// The optimized module text (when requested).
    pub module_text: Option<String>,
}

/// A handle to a compile daemon: socket path + retry policy. Cloneable
/// and cheap; each request opens its own connection.
#[derive(Debug, Clone)]
pub struct Remote {
    socket: PathBuf,
    /// Maximum request attempts (first try + retries).
    max_attempts: u32,
    /// Patience for the first connects: the daemon may still be binding.
    patience: Duration,
    /// Set once a connect has succeeded or run out of patience — shared
    /// by every clone, so the patience is spent once per daemon, not once
    /// per attempt of every request. From then on a connect is a single
    /// immediate try: a daemon that was reached and died, or a socket
    /// nobody ever listened on, fails each later request in microseconds.
    settled: Arc<AtomicBool>,
    /// Base seed for the per-request backoff jitter.
    seed: u64,
}

impl Remote {
    /// Default request attempts (first try + retries). Sized so that a
    /// client bouncing off a saturated daemon outlasts multi-second
    /// stalls: with the default backoff the cumulative hinted wait
    /// exceeds 2.5 s well before the budget runs out.
    pub const DEFAULT_ATTEMPTS: u32 = 16;

    /// A remote over the daemon socket at `socket`.
    pub fn new(socket: impl Into<PathBuf>) -> Remote {
        let socket = socket.into();
        let seed = uu_ir::fnv1a(socket.as_os_str().as_encoded_bytes());
        Remote {
            socket,
            max_attempts: Self::DEFAULT_ATTEMPTS,
            patience: Duration::from_secs(5),
            settled: Arc::new(AtomicBool::new(false)),
            seed,
        }
    }

    /// Override the retry budget (1 = single attempt, no retries).
    pub fn with_attempts(mut self, attempts: u32) -> Remote {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Connect, waiting for a daemon that is still binding only until the
    /// first connect on this remote (or a clone of it) has settled.
    fn connect(&self) -> io::Result<UnixStream> {
        let patience = if self.settled.load(Ordering::Relaxed) {
            Duration::ZERO
        } else {
            self.patience
        };
        let conn = connect_unix(&self.socket, patience);
        self.settled.store(true, Ordering::Relaxed);
        conn
    }

    /// Send `req` on a fresh connection, retrying `busy` responses
    /// (honoring their `retry-after-ms` hint), `error` responses marked
    /// `transient: 1`, and transport failures after the connect (torn
    /// frames, disconnects), with capped exponential backoff jittered
    /// deterministically from the request body. Non-transient `error`
    /// responses (bad request, quarantined module) are returned as-is —
    /// retrying them is pointless by construction — and so is a failed
    /// connect: nobody is listening, and the connect patience (spent once
    /// per remote) was the wait for that to change.
    pub fn request(&self, req: &Message) -> io::Result<Message> {
        let mut backoff = Backoff::new(self.seed ^ uu_ir::fnv1a(req.body.as_bytes()));
        let mut last_io: Option<io::Error> = None;
        let mut last_resp: Option<Message> = None;
        for _ in 0..self.max_attempts.max(1) {
            let mut conn = self.connect()?;
            match request_over(&mut conn, req) {
                Ok(resp) => {
                    if resp.verb == "busy" {
                        let hint = resp.get("retry-after-ms").and_then(|v| v.parse::<u64>().ok());
                        last_resp = Some(resp);
                        backoff.sleep(hint);
                    } else if resp.verb == "error" && resp.get("transient") == Some("1") {
                        last_resp = Some(resp);
                        backoff.sleep(None);
                    } else {
                        return Ok(resp);
                    }
                }
                Err(e) => {
                    last_io = Some(e);
                    backoff.sleep(None);
                }
            }
        }
        // Retry budget exhausted: surface the last structured response if
        // there was one (the caller sees `busy`/`error` rather than a
        // synthetic I/O error), else the last transport failure.
        match last_resp {
            Some(resp) => Ok(resp),
            None => Err(last_io.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "request retries exhausted")
            })),
        }
    }

    /// Compile `module_text` under the named config through the daemon.
    /// `filter` selects one loop (function name + deterministic loop id);
    /// `fault` forwards a pipeline fault spec for drills. Any non-`ok`
    /// outcome (including a still-`busy` daemon after the retry budget)
    /// becomes an `io::Error`, which batch callers treat as "daemon
    /// unavailable — compile locally".
    pub fn compile(
        &self,
        module_text: impl Into<String>,
        config: &str,
        filter: Option<(&str, usize)>,
        fault: Option<&str>,
        want_module: bool,
    ) -> io::Result<RemoteCompile> {
        let mut req = Message::new("compile")
            .header("config", config)
            .header("want-module", u8::from(want_module));
        if let Some((func, loop_id)) = filter {
            req = req.header("filter-func", func).header("filter-loop", loop_id);
        }
        if let Some(spec) = fault {
            req = req.header("fault", spec);
        }
        req = req.with_body(module_text);
        let mut resp = self.request(&req)?;
        if resp.verb != "ok" {
            let reason = resp.get("reason").unwrap_or("(no reason)").to_string();
            return Err(io::Error::new(
                io::ErrorKind::Other,
                format!("daemon answered `{}`: {reason}", resp.verb),
            ));
        }
        let meta = CompileMeta::from_headers(&resp).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "compile response has a missing or malformed metadata header",
            )
        })?;
        Ok(RemoteCompile {
            meta,
            hit: resp.get("cached") == Some("hit"),
            module_text: want_module.then(|| std::mem::take(&mut resp.body)),
        })
    }
}

/// A daemon as a store, where every failure is a fallback: a compile it
/// cannot serve (no config name, a failed request, a reply that does not
/// parse) runs locally, a failed `lookup-run` is a miss, and a failed
/// `store-run` is ignored. The daemon builds the harness's options from
/// the headers (under [`uu_core::COMPILE_TIMEOUT`]) and its replies
/// round-trip losslessly, so it serves what a local compile gives.
impl Artifacts for Remote {
    fn compile(&self, m: &mut Module, opts: &PipelineOptions, want_module: bool) -> CompileMeta {
        let mut served = || -> Option<CompileMeta> {
            let config = config_name(&opts.transform)?;
            let filter = match &opts.filter {
                LoopFilter::All => None,
                LoopFilter::Only { func, loop_id } => Some((func.as_str(), *loop_id)),
            };
            let fault = opts.fault.as_ref().map(FaultPlan::spec);
            let text = m.to_string();
            let rc = Remote::compile(self, text, &config, filter, fault.as_deref(), want_module)
                .ok()?;
            if want_module {
                *m = uu_ir::parse_module(rc.module_text.as_deref()?).ok()?;
            }
            Some(rc.meta)
        };
        served().unwrap_or_else(|| CompileMeta::local(m, opts))
    }

    fn lookup_run(&self, key: Key) -> Option<(CompileMeta, RunRecord)> {
        let req = Message::new("lookup-run").header("key", key.hex());
        let resp = self.request(&req).ok().filter(|r| r.verb == "ok")?;
        Some((CompileMeta::from_headers(&resp)?, RunRecord::from_headers(&resp)?))
    }

    fn store_run(&self, key: Key, meta: &CompileMeta, run: &RunRecord) {
        let req = Message::new("store-run").header("key", key.hex());
        let _ = self.request(&run.to_headers(meta.to_headers(req)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CompileCache;
    use crate::server::{serve_unix_with, ServeOptions};
    use crate::fault::ServeFaultPlan;
    use uu_core::Rung;

    const MODULE: &str = "\
; module t
fn @k(i64 %n) -> i64 {
bb0:
  br bb1
bb1:
  %1 = phi i64 [0, bb0], [%2, bb2]
  %3 = icmp slt i64 %1, %n
  br i1 %3, bb2, bb3
bb2:
  %2 = add i64 %1, 1
  br bb1
bb3:
  ret i64 %1
}
";

    fn with_daemon(
        opts: ServeOptions,
        f: impl FnOnce(&Remote),
    ) -> crate::stats::CacheStats {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "uu-client-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("d.sock");
        let cache = CompileCache::new_mem();
        let stats = std::thread::scope(|s| {
            let daemon = {
                let sock = sock.clone();
                let cache = &cache;
                s.spawn(move || serve_unix_with(&sock, cache, opts))
            };
            let remote = Remote::new(&sock);
            // Contain assertion failures so the daemon still gets its
            // shutdown — a panicking closure must fail the test, not hang
            // the scope join forever.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&remote)));
            let bye = remote.request(&Message::new("shutdown")).unwrap();
            assert_eq!(bye.verb, "ok");
            daemon.join().unwrap().unwrap();
            if let Err(p) = outcome {
                std::panic::resume_unwind(p);
            }
            cache.stats()
        });
        let _ = std::fs::remove_dir_all(&dir);
        stats
    }

    #[test]
    fn remote_compile_round_trips_meta_and_module() {
        with_daemon(ServeOptions::default(), |remote| {
            let a = remote.compile(MODULE, "unroll2", None, None, true).unwrap();
            assert!(!a.hit);
            assert_eq!(a.meta.rung, Rung::Full);
            assert!(a.meta.work > 0);
            let text = a.module_text.as_deref().unwrap();
            assert!(text.contains("fn @k"));
            // Second time: a hit with identical metadata and bytes.
            let b = remote.compile(MODULE, "unroll2", None, None, true).unwrap();
            assert!(b.hit);
            assert_eq!(a.meta, b.meta);
            assert_eq!(a.module_text, b.module_text);
            // Filtered compiles are keyed separately.
            let filtered = remote
                .compile(MODULE, "unroll2", Some(("k", 0)), None, false)
                .unwrap();
            assert_eq!(filtered.module_text, None);
            assert_eq!(filtered.meta.rung, Rung::Full);
        });
    }

    #[test]
    fn remote_retries_through_torn_frames_and_disconnects() {
        let stats = with_daemon(
            ServeOptions {
                fault: Some(ServeFaultPlan::parse("torn@0,disconnect@1").unwrap()),
                ..ServeOptions::default()
            },
            |remote| {
                // Request 0 is torn, its retry (request 1) is disconnected,
                // the second retry (request 2) succeeds — transparently.
                // The torn request's compile landed in the cache before its
                // response was damaged, so the winning retry is a hit.
                let r = remote.compile(MODULE, "uu2", None, None, true).unwrap();
                assert_eq!(r.meta.rung, Rung::Full);
                assert!(r.hit);
            },
        );
        assert_eq!(stats.requests, 4, "3 compile attempts + shutdown");
    }

    #[test]
    fn remote_retries_transient_panics_but_returns_quarantine_as_error() {
        let stats = with_daemon(
            ServeOptions {
                fault: Some(ServeFaultPlan::parse("panic@0,panic@1,panic@2").unwrap()),
                ..ServeOptions::default()
            },
            |remote| {
                // Three injected panics trip the breaker while the client
                // is retrying; the fourth attempt is refused as quarantined,
                // which is NOT retried — compile() surfaces it as an error.
                let e = remote.compile(MODULE, "uu2", None, None, true).unwrap_err();
                assert!(e.to_string().contains("quarantined"), "{e}");
            },
        );
        assert_eq!(stats.handler_panics, 3);
        assert_eq!(stats.quarantined_rejects, 1);
    }

    #[test]
    fn remote_bad_requests_fail_without_retry_burn() {
        let stats = with_daemon(ServeOptions::default(), |remote| {
            let e = remote.compile(MODULE, "warp9", None, None, true).unwrap_err();
            assert!(e.to_string().contains("unknown config"), "{e}");
        });
        // One compile attempt only: a non-transient error is not retried.
        assert_eq!(stats.requests, 2, "1 compile + shutdown");
    }

    #[test]
    fn connect_patience_is_spent_once_per_remote_then_requests_fail_fast() {
        // Nobody ever listens here. The first request waits out the
        // patience (a daemon may still be binding) — once, not once per
        // attempt — and every later one, on this handle or a clone, is a
        // single immediate connect.
        let sock = std::env::temp_dir().join(format!("uu-no-daemon-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let remote = Remote { patience: Duration::from_millis(300), ..Remote::new(&sock) };
        let t0 = Instant::now();
        let e = remote.request(&Message::new("ping")).unwrap_err();
        let first = t0.elapsed();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert!(first >= Duration::from_millis(300), "{first:?}");
        assert!(first < Duration::from_millis(300 * 4), "one window, not 16: {first:?}");
        let t1 = Instant::now();
        for r in [remote.clone(), remote.clone().with_attempts(64), remote] {
            assert!(r.compile(MODULE, "uu2", None, None, true).is_err());
        }
        let later = t1.elapsed();
        assert!(later < Duration::from_millis(100), "a down remote fails fast: {later:?}");
    }

    #[test]
    fn a_daemon_that_appears_later_is_reached_again() {
        // The latch only removes the waiting: a settled remote still
        // connects whenever somebody is listening.
        with_daemon(ServeOptions::default(), |remote| {
            assert_eq!(remote.request(&Message::new("ping")).unwrap().verb, "ok"); // bound
            let gone = Remote::new(remote.socket.with_extension("gone"));
            let gone = Remote { patience: Duration::ZERO, ..gone };
            assert!(gone.request(&Message::new("ping")).is_err());
            let back = Remote { socket: remote.socket.clone(), ..gone };
            assert_eq!(back.request(&Message::new("ping")).unwrap().verb, "ok");
        });
    }
}
