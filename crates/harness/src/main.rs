//! Command-line entry point: `uu-harness <command> [--fast] [--out DIR]`.
//! A report command given `--profile` prints where its time went (see
//! [`uu_harness::profile`]) on stderr at exit.
//! `--help` prints the usage line; an unknown option, a value option
//! without its value, a second command word, or an option the command
//! does not read exits 2 before anything runs.
//!
//! Batch commands (`all`, `table1`, `fig6`, `fig7`, `fig8`, `study`,
//! `indepth`, `decisions`, `dump`) regenerate the paper's reports. The
//! service commands turn the same pipeline into a long-running daemon:
//!
//! * `serve --socket PATH` — compile-service daemon answering framed
//!   requests (see `uu-serve`) with `UU_SERVE_WORKERS` workers;
//! * `client --socket PATH [--bench NAME] [--config C] [--fault SPEC]
//!   [--verb V]` — one request against a running daemon: `compile` (the
//!   default verb) sends `--bench NAME`'s module, and `ping`, `health`,
//!   `stats` and `shutdown` take no module. Requests retry `busy`
//!   and transient failures with capped exponential backoff.
//!
//! Every environment knob is read once, by [`Env::read`], before anything
//! runs; a malformed one exits 2 naming the variable. The report commands
//! take their store from one knob: `UU_CACHE_DIR=<dir>`, a persistent
//! content-addressed cache, or `UU_SERVE_SOCKET=<path>`, a running daemon
//! (which owns its cache) serving every compile and run record it can.
//! Either leaves every report byte-identical to a cacheless run; both
//! together exit 2.

use std::path::{Path, PathBuf};
use uu_core::FaultPlan;
use uu_harness::experiment::shared_module;
use uu_harness::plan::Plan;
use uu_harness::profile;
use uu_harness::{figures, indepth, study, sweep};
use uu_kernels::{all_benchmarks, Benchmark};
use uu_serve::{CompileCache, Remote, ServeOptions};

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
    /// `serve`'s tunables: `UU_SERVE_WORKERS` (default 4) workers, each
    /// admitting one compile.
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
            serve: ServeOptions { workers, inflight: workers, ..ServeOptions::default() },
        })
    }
}

/// The options that take a value; `--fast` and `--profile` take none.
const VALUE_FLAGS: [&str; 6] = ["--out", "--bench", "--config", "--socket", "--fault", "--verb"];

const USAGE: &str = "usage: uu-harness [all|table1|fig6|fig7|fig8|study|indepth|decisions|dump|\
serve|client] [--fast] [--profile] [--bench NAME] [--out DIR] [--config C] [--socket PATH] \
[--fault SPEC] [--verb V]";

/// The options command `cmd` reads, or `None` for an unknown command.
fn options_of(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "all" | "table1" | "fig6" | "fig7" | "fig8" => &["--out", "--bench", "--fast", "--profile"],
        // The study has no fast sample, and the in-depth cases are fixed.
        "study" => &["--out", "--bench", "--profile"],
        "indepth" => &["--out", "--profile"],
        "dump" => &["--bench", "--config"],
        "decisions" => &["--bench"],
        "serve" => &["--socket"],
        "client" => &["--socket", "--bench", "--config", "--fault", "--verb"],
        _ => return None,
    })
}

/// The command line: the command word, `--fast`, `--profile`, and each
/// value option given with its value.
struct Cli {
    cmd: String,
    fast: bool,
    profile: bool,
    values: Vec<(&'static str, String)>,
}

impl Cli {
    /// The value of option `name` (the first, if it is given twice).
    fn value(&self, name: &str) -> Option<String> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone())
    }
}

/// The one walk over the arguments, before anything runs or is written:
/// answer `--help`/`-h` (usage on stdout, exit 0), and refuse (exit 2) an
/// unknown option, a value option without its value, a second command
/// word, an unknown command, and an option the command does not read. The
/// command is the first word that is neither an option nor an option's
/// value (default `all`).
fn check_options(args: &[String]) -> Cli {
    fn refuse(why: String) -> ! {
        eprintln!("{why}; {USAGE}");
        std::process::exit(2);
    }
    let (mut words, mut given, mut values) = (Vec::new(), Vec::new(), Vec::new());
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if a == "--help" || a == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        if let Some(&name) = VALUE_FLAGS.iter().find(|f| **f == a.as_str()) {
            let Some(v) = rest.next() else {
                refuse(format!("option `{a}` needs a value"));
            };
            values.push((name, v.clone()));
            given.push(name);
        } else if let Some(&name) = ["--fast", "--profile"].iter().find(|f| **f == a.as_str()) {
            given.push(name);
        } else if a.starts_with('-') {
            refuse(format!("unknown option `{a}`"));
        } else {
            words.push(a.clone());
        }
    }
    if let [_, second, ..] = &words[..] {
        refuse(format!("unexpected second command `{second}`"));
    }
    let cmd = words.pop().unwrap_or_else(|| "all".to_string());
    let Some(reads) = options_of(&cmd) else {
        refuse(format!("unknown command `{cmd}`"));
    };
    if let Some(o) = given.iter().find(|o| !reads.contains(o)) {
        refuse(format!("`{cmd}` does not read option `{o}`"));
    }
    let fast = given.contains(&"--fast");
    let profile = given.contains(&"--profile");
    Cli {
        cmd,
        fast,
        profile,
        values,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = check_options(&args);
    let env = Env::read().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let fast = cli.fast;
    let flag = |name: &str| cli.value(name);
    let out = flag("--out").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("results"));
    let only: Option<String> = flag("--bench");
    let cmd = cli.cmd.as_str();

    let benches: Vec<_> = all_benchmarks()
        .into_iter()
        .filter(|b| only.as_deref().map(|o| b.info.name == o).unwrap_or(true))
        .collect();
    if benches.is_empty() {
        eprintln!("no benchmark matches --bench filter");
        std::process::exit(2);
    }

    match cmd {
        "all" | "table1" | "fig6" | "fig7" | "fig8" | "study" | "indepth" => {
            if env.cache_dir.is_some() && env.serve_socket.is_some() {
                eprintln!("UU_CACHE_DIR and UU_SERVE_SOCKET: set one, the daemon owns its cache");
                std::process::exit(2);
            }
            if only.is_some() {
                refuse_to_clobber(&out, benches.len());
            }
            if cli.profile {
                profile::enable();
            }
            report(cmd, &benches, fast, &out, &env);
            if cli.profile {
                eprint!("{}", profile::table());
            }
        }
        "serve" => {
            // Long-running compile service. The cache honours the same
            // `UU_CACHE_DIR` as the batch commands; without one, it runs an
            // in-memory cache (a daemon without a cache would re-do every
            // repeat compile).
            let cache = env.cache_dir.as_deref().and_then(open_cache);
            let cache = cache.unwrap_or_else(CompileCache::new_mem);
            let sock = flag("--socket").unwrap_or_else(|| "uu-serve.sock".to_string());
            // The library logs "serving on" once the socket is bound; a
            // refused or failed serve prints its error alone.
            if let Err(e) = uu_serve::serve_unix_with(Path::new(&sock), &cache, env.serve) {
                eprintln!("uu-serve: {e}");
                std::process::exit(1);
            }
            let stats = cache.stats();
            eprintln!(
                "uu-serve: exiting; {} hits / {} misses ({:.1}% hit rate)",
                stats.hits(),
                stats.misses(),
                stats.hit_rate() * 100.0
            );
        }
        "client" => {
            let sock = flag("--socket").unwrap_or_else(|| "uu-serve.sock".to_string());
            let verb = flag("--verb").unwrap_or_else(|| "compile".to_string());
            let req = match verb.as_str() {
                "compile" => {
                    if only.is_none() {
                        eprintln!("client: a compile needs --bench NAME");
                        std::process::exit(2);
                    }
                    let config = flag("--config").unwrap_or_else(|| "uu4".to_string());
                    let mut req = uu_serve::Message::new("compile")
                        .header("config", &config)
                        .header("want-module", 0)
                        .with_body(shared_module(&benches[0]).to_string());
                    if let Some(fault) = flag("--fault") {
                        req = req.header("fault", fault);
                    }
                    req
                }
                v @ ("stats" | "ping" | "health" | "shutdown") => {
                    uu_serve::Message::new(v)
                }
                other => {
                    eprintln!(
                        "client: unknown --verb `{other}` \
                         (compile|stats|ping|health|shutdown)"
                    );
                    std::process::exit(2);
                }
            };
            // Busy shedding and injected transport faults are retried with
            // deterministic capped backoff.
            match Remote::new(&sock).request(&req) {
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
                let mut m = shared_module(b);
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
                let mut m = shared_module(b);
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
        _ => unreachable!("check_options refuses unknown commands"),
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
    let sweep_on = !matches!(cmd, "study" | "indepth");
    let study_on = matches!(cmd, "all" | "study");
    let sweep_keys = if sweep_on { sweep::keys(benches, fast) } else { Vec::new() };
    let study_keys = if study_on { study::keys(benches) } else { Vec::new() };
    // The in-depth cases are fixed (`indepth` refuses `--bench`).
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
    let emitted = profile::timed(profile::on(), profile::Span::Render, || -> std::io::Result<()> {
        if sweep_on {
            let s = sweep::view(&points, &sweep_keys);
            match cmd {
                "table1" => figures::table1(&s, out, benches)?,
                "fig6" => figures::fig6(&s, out)?,
                "fig7" => figures::fig7(&s, out)?,
                "fig8" => figures::fig8(&s, out)?,
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
    });
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
        "study" => &["table2.txt"],
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
