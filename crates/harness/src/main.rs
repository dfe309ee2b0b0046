//! Command-line entry point: `uu-harness <command> [--fast] [--out DIR]`.
//!
//! Batch commands (`all`, `table1`, `fig6`–`fig9`, `table2`, `study`,
//! `indepth`, `decisions`, `dump`) regenerate the paper's reports. The
//! service commands turn the same pipeline into a long-running daemon:
//!
//! * `serve --socket PATH` — compile-service daemon answering framed
//!   requests (see `uu-serve`);
//! * `client --socket PATH [--config C] [--fault SPEC] [--verb V]
//!   [--timeout-ms N] [--no-retry]` — one request against a running
//!   daemon, using `--bench NAME`'s module (or a module read from
//!   stdin). Requests retry `busy` and transient failures with capped
//!   exponential backoff unless `--no-retry` is given; verbs include the
//!   service-health set (`ping`, `health`, `ready`, `stats`,
//!   `shutdown`).
//!
//! Every environment knob is read once, by [`Env::read`], before anything
//! runs; a malformed one exits 2 naming the variable. The report commands
//! honour the artifact-cache knobs: `UU_CACHE_DIR=<dir>` enables the
//! persistent content-addressed cache, and `UU_SERVE_SOCKET=<path>` ships
//! every nameable compile to a running daemon (sharing its cross-process
//! cache), falling back to local compiles whenever the daemon can't serve
//! a point. Both leave every report byte-identical to a cacheless run.

use std::path::{Path, PathBuf};
use uu_core::FaultPlan;
use uu_harness::plan::Plan;
use uu_harness::{figures, indepth, study, sweep};
use uu_kernels::{all_benchmarks, Benchmark};
use uu_serve::{CompileCache, Remote, ServeFaultPlan, ServeOptions};

/// Every environment variable `uu-harness` honours, parsed once at the top
/// of `main`: the libraries take these values and read no environment. An
/// empty value means unset.
struct Env {
    /// `UU_JOBS`: worker count (default: available parallelism).
    jobs: usize,
    /// `UU_FAULT`: the fault plan the report commands inject.
    fault: Option<FaultPlan>,
    /// `UU_CACHE_DIR`: the persistent artifact cache's directory.
    cache_dir: Option<PathBuf>,
    /// `UU_SERVE_SOCKET`: the daemon report commands ship compiles to.
    serve_socket: Option<PathBuf>,
    /// `serve`'s tunables: `UU_SERVE_WORKERS` (default 4),
    /// `UU_SERVE_INFLIGHT` (default: the worker count), `UU_SERVE_FAULT`.
    serve: ServeOptions,
}

impl Env {
    /// Read and validate every knob.
    ///
    /// # Errors
    ///
    /// `UU_X=<value>: <reason>` for the first malformed knob.
    fn read() -> Result<Env, String> {
        fn knob<T>(
            name: &str,
            parse: impl FnOnce(&str) -> Result<T, String>,
        ) -> Result<Option<T>, String> {
            let Some(v) = std::env::var(name).ok().filter(|v| !v.trim().is_empty()) else {
                return Ok(None);
            };
            parse(v.trim()).map(Some).map_err(|e| format!("{name}={v}: {e}"))
        }
        fn count(v: &str) -> Result<usize, String> {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err("expected a positive integer".to_string()),
            }
        }
        let path = |v: &str| Ok(PathBuf::from(v));
        let jobs = match knob("UU_JOBS", |v| uu_par::parse_jobs(Some(v)))? {
            Some(n) => n,
            None => uu_par::parse_jobs(None)?,
        };
        let workers = knob("UU_SERVE_WORKERS", count)?.unwrap_or(ServeOptions::default().workers);
        Ok(Env {
            jobs,
            fault: knob("UU_FAULT", FaultPlan::parse)?,
            cache_dir: knob("UU_CACHE_DIR", path)?,
            serve_socket: knob("UU_SERVE_SOCKET", path)?,
            serve: ServeOptions {
                workers,
                inflight: knob("UU_SERVE_INFLIGHT", count)?.unwrap_or(workers),
                fault: knob("UU_SERVE_FAULT", ServeFaultPlan::parse)?
                    .filter(|p| !p.faults.is_empty()),
                ..ServeOptions::default()
            },
        })
    }
}

fn main() {
    let env = Env::read().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = flag("--out").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("results"));
    let only: Option<String> = flag("--bench");
    let flag_values: Vec<String> = [
        "--out",
        "--bench",
        "--config",
        "--socket",
        "--fault",
        "--verb",
        "--timeout-ms",
    ]
    .iter()
    .filter_map(|f| flag(f))
    .collect();
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--") && !flag_values.contains(a))
        .map(String::as_str)
        .unwrap_or("all");

    let benches: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| only.as_deref().map(|o| b.info.name == o).unwrap_or(true))
        .collect();
    if benches.is_empty() {
        eprintln!("no benchmark matches --bench filter");
        std::process::exit(2);
    }

    match cmd {
        "table1" | "fig6a" | "fig6b" | "fig6c" | "fig6" | "fig7" | "fig8a" | "fig8b"
        | "fig8" | "all" | "study" | "fig9" | "table2" | "indepth" => {
            // The in-depth cases are fixed, so `--bench` cannot narrow them.
            if only.is_some() && cmd != "indepth" {
                refuse_to_clobber(&out, benches.len());
            }
            report(cmd, &benches, fast, &out, &env);
        }
        "serve" => {
            // Long-running compile service. The cache honours the same
            // `UU_CACHE_DIR` as the batch commands; without one, it runs an
            // in-memory cache (a daemon without a cache would re-do every
            // repeat compile).
            let cache = env.cache_dir.as_deref().and_then(open_cache);
            let cache = cache.unwrap_or_else(CompileCache::new_mem);
            let sock = flag("--socket").unwrap_or_else(|| "uu-serve.sock".to_string());
            eprintln!("uu-serve: serving on {sock}");
            let r = uu_serve::serve_unix_with(Path::new(&sock), &cache, env.serve);
            let stats = cache.stats();
            eprintln!(
                "uu-serve: exiting; {} hits / {} misses ({:.1}% hit rate)",
                stats.hits(),
                stats.misses(),
                stats.hit_rate() * 100.0
            );
            if let Err(e) = r {
                eprintln!("uu-serve: {e}");
                std::process::exit(1);
            }
        }
        "client" => {
            let sock = flag("--socket").unwrap_or_else(|| "uu-serve.sock".to_string());
            let verb = flag("--verb").unwrap_or_else(|| "compile".to_string());
            let req = match verb.as_str() {
                "compile" => {
                    let config = flag("--config").unwrap_or_else(|| "uu4".to_string());
                    // `--bench NAME` sends that benchmark's module; with the
                    // default filter (all benches), read the module from stdin.
                    let module_text = if only.is_some() {
                        (benches[0].build)().to_string()
                    } else {
                        let mut s = String::new();
                        use std::io::Read as _;
                        if std::io::stdin().read_to_string(&mut s).is_err() || s.is_empty() {
                            eprintln!("client: pass --bench NAME or pipe a module on stdin");
                            std::process::exit(2);
                        }
                        s
                    };
                    let mut req = uu_serve::Message::new("compile")
                        .header("config", &config)
                        .with_body(module_text);
                    if let Some(fault) = flag("--fault") {
                        req = req.header("fault", fault);
                    }
                    if let Some(t) = flag("--timeout-ms") {
                        req = req.header("timeout-ms", t);
                    }
                    if !args.iter().any(|a| a == "--print-ir") {
                        req = req.header("want-module", 0);
                    }
                    req
                }
                v @ ("stats" | "ping" | "health" | "ready" | "shutdown") => {
                    uu_serve::Message::new(v)
                }
                other => {
                    eprintln!(
                        "client: unknown --verb `{other}` \
                         (compile|stats|ping|health|ready|shutdown)"
                    );
                    std::process::exit(2);
                }
            };
            // Busy shedding and injected transport faults are retried with
            // deterministic capped backoff; --no-retry sends exactly one
            // attempt (probing a saturated daemon's `busy` response).
            let remote = if args.iter().any(|a| a == "--no-retry") {
                Remote::new(&sock).with_attempts(1)
            } else {
                Remote::new(&sock)
            };
            let resp = remote.request(&req);
            match resp {
                Ok(resp) => {
                    println!("{}", resp.verb);
                    for (k, v) in &resp.headers {
                        println!("{k}: {v}");
                    }
                    if !resp.body.is_empty() {
                        println!();
                        print!("{}", resp.body);
                    }
                    if resp.verb != "ok" {
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("client: {e}");
                    std::process::exit(1);
                }
            }
        }
        "dump" => {
            // Print each hot kernel after optimization under a config given
            // by --config (see `uu_serve::config_names`).
            let config = flag("--config").unwrap_or_else(|| "uu4".to_string());
            let Some(transform) = uu_serve::parse_config(&config) else {
                eprintln!(
                    "unknown --config `{config}`; expected {}",
                    uu_serve::config_names()
                );
                std::process::exit(2);
            };
            // Compile in parallel; print in benchmark order.
            let dumps = uu_par::par_map(env.jobs, &benches, |_, b| {
                let mut m = (b.build)();
                uu_core::compile(
                    &mut m,
                    &uu_core::PipelineOptions {
                        transform: transform.clone(),
                        ..Default::default()
                    },
                );
                let mut text = String::new();
                for hot in b.info.hot_kernels {
                    if let Some(id) = m.find(hot) {
                        text.push_str(&format!(
                            "; {} under {config}\n{}\n",
                            b.info.name,
                            m.function(id)
                        ));
                    }
                }
                text
            });
            for d in dumps {
                print!("{d}");
            }
        }
        "decisions" => {
            // Dump the heuristic's per-loop reasoning (paper §III-C).
            // Compile in parallel; print in benchmark order.
            let dumps = uu_par::par_map(env.jobs, &benches, |_, b| {
                let mut m = (b.build)();
                let outcome = uu_core::compile(
                    &mut m,
                    &uu_core::PipelineOptions {
                        transform: uu_core::Transform::UuHeuristic(Default::default()),
                        ..Default::default()
                    },
                );
                let mut text = format!("== {} ==\n", b.info.name);
                for (func, d) in outcome.decisions {
                    text.push_str(&format!(
                        "  {func:<24} loop@{:<6} p={:<4} s={:<5} -> {:?}\n",
                        d.header.to_string(),
                        d.paths,
                        d.size,
                        d.decision
                    ));
                }
                text
            });
            for d in dumps {
                print!("{d}");
            }
        }
        other => {
            eprintln!(
                "unknown command `{other}`; expected one of: all, table1, fig6[a|b|c], fig7, fig8[a|b], study, fig9, table2, indepth, decisions, dump, serve, client"
            );
            std::process::exit(2);
        }
    }
}

/// A `--bench`-filtered run renders its reports for the filtered
/// applications only, and `--out` defaults to the committed `results/`: if
/// `<out>/table1.csv` lists more applications than this run covers, say
/// what is at stake and exit 2 before anything runs.
fn refuse_to_clobber(out: &Path, benches: usize) {
    let Ok(table1) = std::fs::read_to_string(out.join("table1.csv")) else {
        return;
    };
    let rows = table1.lines().skip(1).filter(|l| !l.is_empty()).count();
    if rows <= benches {
        return;
    }
    let mut files: Vec<String> = std::fs::read_dir(out)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    eprintln!(
        "refusing to run: {} holds reports for {rows} applications and this --bench run \
         covers {benches}; it would overwrite them ({}). Pass --out DIR to keep them.",
        out.display(),
        files.join(", ")
    );
    std::process::exit(2);
}

/// The `UU_CACHE_DIR` artifact cache. A directory that cannot be opened
/// warns and runs without a disk cache rather than failing the command.
fn open_cache(dir: &Path) -> Option<CompileCache> {
    CompileCache::at_dir(dir)
        .map_err(|e| {
            eprintln!("warning: cannot open cache dir {}: {e}; caching disabled", dir.display())
        })
        .ok()
}

/// Regenerate the reports `cmd` names into `out`, then print the caches'
/// stats and the headline tables. One artifact cache, daemon handle, fault
/// plan and worker count, built from `env`, serve every report command,
/// and one measurement plan holds every key the command's reports ask for:
/// `all` measures each point the sweep, the study and §V share once.
fn report(cmd: &str, benches: &[Benchmark], fast: bool, out: &Path, env: &Env) {
    let cache = env.cache_dir.as_deref().and_then(open_cache);
    let remote = env.serve_socket.as_ref().map(Remote::new);
    let backend = uu_harness::Backend {
        cache: cache.as_ref(),
        remote: remote.as_ref(),
    };
    let sweep_on = !matches!(cmd, "study" | "fig9" | "table2" | "indepth");
    let study_on = matches!(cmd, "all" | "study" | "fig9" | "table2");
    let sweep_keys = if sweep_on { sweep::keys(benches, fast) } else { Vec::new() };
    let study_keys = if study_on { study::keys(benches) } else { Vec::new() };
    // The in-depth cases are fixed, so `--bench` cannot narrow them.
    let every = all_benchmarks();
    let case_keys = match cmd {
        "all" | "indepth" => indepth::keys(&every),
        _ => Vec::new(),
    };
    let mut plan = Plan::new(env.jobs, env.fault, backend);
    for keys in [&sweep_keys, &study_keys, &case_keys] {
        plan.add(keys);
    }
    eprintln!(
        "measuring {} points{}{}{} ...",
        plan.keys().len(),
        if fast { " (fast)" } else { "" },
        if cache.is_some() { " [cached]" } else { "" },
        if remote.is_some() { " [daemon]" } else { "" }
    );
    let summary = plan.summary();
    let points = plan.run();
    let emitted = (|| -> std::io::Result<()> {
        if sweep_on {
            let s = sweep::view(&points, &sweep_keys);
            match cmd {
                "table1" => figures::table1(&s, out, benches)?,
                "fig6" | "fig6a" | "fig6b" | "fig6c" => figures::fig6(&s, out)?,
                "fig7" => figures::fig7(&s, out)?,
                "fig8" | "fig8a" | "fig8b" => figures::fig8(&s, out)?,
                _ => {
                    figures::table1(&s, out, benches)?;
                    figures::fig6(&s, out)?;
                    figures::fig7(&s, out)?;
                    figures::fig8(&s, out)?;
                }
            }
            // Every sweep-based command also emits the fault report, so a
            // faulted run is diagnosable from the results dir.
            figures::faults(&s, out)?;
        }
        if !case_keys.is_empty() {
            indepth::report(&indepth::view(&points, &case_keys), out)?;
        }
        if study_on {
            let st = study::view(&points, &study_keys);
            figures::fig9(&st, out)?;
            figures::table2(&st, out)?;
        }
        Ok(())
    })();
    if let Err(e) = emitted {
        eprintln!("could not write results to {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote results to {}", out.display());
    eprintln!("{summary}");
    report_cache(cache.as_ref(), env.jobs);
    // Print the headline tables to stdout for quick inspection.
    let shown: &[&str] = match cmd {
        "all" => &["table1.txt", "fig7.txt"],
        "table1" => &["table1.txt"],
        "fig7" => &["fig7.txt"],
        "indepth" => &["indepth.txt"],
        "study" | "fig9" | "table2" => &["table2.txt"],
        _ => &[],
    };
    for name in shown {
        if let Ok(t) = std::fs::read_to_string(out.join(name)) {
            println!("{t}");
        }
    }
}

/// After a batch run, surface the caches' stats on stderr (reports on
/// stdout/disk stay byte-identical to cacheless runs): the function-level
/// compile memo and the pass manager's elisions always, the artifact
/// cache's versioned stats when one is configured. The memo and both sets
/// of counters are thread-local, so the line covers the compiles this
/// thread ran — all of them when `jobs` is 1.
fn report_cache(cache: Option<&CompileCache>, jobs: usize) {
    let (hits, misses, bypassed) = uu_core::compile_memo_stats();
    let (elided, invoked) = uu_core::pass_elision_stats();
    eprintln!(
        "compile memo: {hits} function hits / {misses} misses / {bypassed} bypassed; \
         {elided} of {invoked} pass invocations elided{}",
        match jobs {
            1 => String::new(),
            n => format!(" on the main thread ({n} workers keep their own; UU_JOBS=1 for totals)"),
        }
    );
    if let Some(c) = cache {
        let st = c.stats();
        eprintln!(
            "cache: {} hits / {} misses ({:.1}% hit rate), {} work units saved",
            st.hits(),
            st.misses(),
            st.hit_rate() * 100.0,
            st.work_saved
        );
        eprintln!("cache stats JSON:\n{}", st.to_json());
    }
}
