//! Command-line entry point: `uu-harness <command> [--fast] [--out DIR]`.
//!
//! Batch commands (`all`, `table1`, `fig6`–`fig9`, `table2`, `study`,
//! `indepth`, `decisions`, `dump`) regenerate the paper's reports. The
//! service commands turn the same pipeline into a long-running daemon:
//!
//! * `serve --socket PATH` (or `--stdio`) — compile-service daemon
//!   answering framed requests (see `uu-serve`);
//! * `client --socket PATH [--config C] [--fault SPEC] [--verb V]
//!   [--timeout-ms N] [--no-retry]` — one request against a running
//!   daemon, using `--bench NAME`'s module (or a module read from
//!   stdin). Requests retry `busy` and transient failures with capped
//!   exponential backoff unless `--no-retry` is given; verbs include the
//!   service-health set (`ping`, `health`, `ready`, `stats`,
//!   `shutdown`).
//!
//! Batch commands honour the artifact-cache environment knobs:
//! `UU_CACHE_DIR=<dir>` enables the persistent content-addressed cache,
//! `UU_CACHE=mem` an in-process one — and `UU_SERVE_SOCKET=<path>` ships
//! every nameable compile to a running daemon (sharing its cross-process
//! cache), falling back to local compiles whenever the daemon can't
//! serve a point. All three leave every report byte-identical to a
//! cacheless run.

use std::path::{Path, PathBuf};
use uu_harness::{figures, indepth, study, sweep};
use uu_kernels::all_benchmarks;

fn main() {
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
        | "fig8" | "all" => {
            if only.is_some() {
                refuse_to_clobber(&out, benches.len());
            }
            let cache = uu_serve::CompileCache::from_env();
            let remote = uu_serve::Remote::from_env();
            let backend = uu_harness::Backend {
                cache: cache.as_ref(),
                remote: remote.as_ref(),
            };
            eprintln!(
                "running sweep over {} benchmark(s){}{}{} ...",
                benches.len(),
                if fast { " (fast)" } else { "" },
                if cache.is_some() { " [cached]" } else { "" },
                if remote.is_some() { " [daemon]" } else { "" }
            );
            let fault = uu_core::FaultPlan::from_env();
            let jobs = uu_par::num_jobs();
            let s = sweep::run_sweep_backed(&benches, fast, jobs, fault, backend);
            let emitted = (|| -> std::io::Result<()> {
                match cmd {
                    "table1" => figures::table1(&s, &out, &benches)?,
                    "fig6" | "fig6a" | "fig6b" | "fig6c" => figures::fig6(&s, &out)?,
                    "fig7" => figures::fig7(&s, &out)?,
                    "fig8" | "fig8a" | "fig8b" => figures::fig8(&s, &out)?,
                    _ => {
                        figures::table1(&s, &out, &benches)?;
                        figures::fig6(&s, &out)?;
                        figures::fig7(&s, &out)?;
                        figures::fig8(&s, &out)?;
                        let cases = indepth::collect(jobs, fault, backend);
                        indepth::report(&cases, &out)?;
                        eprintln!("running three-way unmerge/meld study...");
                        let st = study::run_study_backed(&benches, jobs, fault, backend);
                        figures::fig9(&st, &out)?;
                        figures::table2(&st, &out)?;
                    }
                }
                // Every sweep-based command also emits the fault report,
                // so a faulted run is diagnosable from the results dir.
                figures::faults(&s, &out)
            })();
            if let Err(e) = emitted {
                eprintln!("could not write results to {}: {e}", out.display());
                std::process::exit(1);
            }
            eprintln!("wrote results to {}", out.display());
            report_cache(cache.as_ref());
            // Print the headline table to stdout for quick inspection.
            if matches!(cmd, "table1" | "all") {
                if let Ok(t) = std::fs::read_to_string(out.join("table1.txt")) {
                    println!("{t}");
                }
            }
            if matches!(cmd, "fig7" | "all") {
                if let Ok(t) = std::fs::read_to_string(out.join("fig7.txt")) {
                    println!("{t}");
                }
            }
        }
        "study" | "fig9" | "table2" => {
            // The three-way unmerge/meld study (hot loops only; identical
            // in fast and full runs, byte-identical at any UU_JOBS).
            if only.is_some() {
                refuse_to_clobber(&out, benches.len());
            }
            let cache = uu_serve::CompileCache::from_env();
            let remote = uu_serve::Remote::from_env();
            eprintln!(
                "running three-way unmerge/meld study over {} benchmark(s)...",
                benches.len()
            );
            let st = study::run_study_backed(
                &benches,
                uu_par::num_jobs(),
                uu_core::FaultPlan::from_env(),
                uu_harness::Backend {
                    cache: cache.as_ref(),
                    remote: remote.as_ref(),
                },
            );
            let emitted = (|| -> std::io::Result<()> {
                figures::fig9(&st, &out)?;
                figures::table2(&st, &out)
            })();
            if let Err(e) = emitted {
                eprintln!("could not write results to {}: {e}", out.display());
                std::process::exit(1);
            }
            eprintln!("wrote results to {}", out.display());
            report_cache(cache.as_ref());
            if let Ok(t) = std::fs::read_to_string(out.join("table2.txt")) {
                println!("{t}");
            }
        }
        "indepth" => {
            let cases = indepth::collect(
                uu_par::num_jobs(),
                uu_core::FaultPlan::from_env(),
                uu_harness::Backend::default(),
            );
            if let Err(e) = indepth::report(&cases, &out) {
                eprintln!("could not write results to {}: {e}", out.display());
                std::process::exit(1);
            }
            if let Ok(t) = std::fs::read_to_string(out.join("indepth.txt")) {
                println!("{t}");
            }
        }
        "serve" => {
            // Long-running compile service. The cache honours the same env
            // knobs as the batch commands; without one, it runs an
            // in-memory cache (a daemon without a cache would re-do every
            // repeat compile).
            let cache = uu_serve::CompileCache::from_env()
                .unwrap_or_else(uu_serve::CompileCache::new_mem);
            let r = if args.iter().any(|a| a == "--stdio") {
                eprintln!("uu-serve: serving on stdio");
                uu_serve::serve_stdio(&cache)
            } else {
                let sock = flag("--socket").unwrap_or_else(|| "uu-serve.sock".to_string());
                eprintln!("uu-serve: serving on {sock}");
                uu_serve::serve_unix(Path::new(&sock), &cache)
            };
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
                uu_serve::Remote::new(&sock).with_attempts(1)
            } else {
                uu_serve::Remote::new(&sock)
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
            let dumps = uu_par::par_map(&benches, |_, b| {
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
            let dumps = uu_par::par_map(&benches, |_, b| {
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

/// After a batch run, surface the caches' stats on stderr (reports on
/// stdout/disk stay byte-identical to cacheless runs): the function-level
/// compile memo and the pass manager's elisions always, the artifact
/// cache's versioned stats when one is configured. The memo and both sets
/// of counters are thread-local, so the line covers the compiles this
/// thread ran — all of them at `UU_JOBS=1`.
fn report_cache(cache: Option<&uu_serve::CompileCache>) {
    let (hits, misses, bypassed) = uu_core::compile_memo_stats();
    let (elided, invoked) = uu_core::pass_elision_stats();
    eprintln!(
        "compile memo: {hits} function hits / {misses} misses / {bypassed} bypassed; \
         {elided} of {invoked} pass invocations elided{}",
        match uu_par::num_jobs() {
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
