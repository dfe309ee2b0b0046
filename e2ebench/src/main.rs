//! `uu-e2e` — the end-to-end benchmark's one binary.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints its result as the last line of standard output
//!   (end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`);
//! * without `--workload`, every workload is run plain and traced, each in a
//!   process of its own (cold thread-local caches, its own peak memory), the
//!   metrics are printed by name with their units, and the results are
//!   written to `<target>/uu-e2e/e2e.json`; `--repeat N` does it for seeds
//!   `seed .. seed + N`;
//! * `--compare A.json B.json` judges one such file against another;
//! * `--smoke` shrinks every workload to one application and one repetition;
//! * `--spec` prints `BENCHMARK.json`; `--bless` rewrites the goldens.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use uu_e2e::json::Json;
use uu_e2e::workloads::{self, Args, Report};
use uu_e2e::{compare, spec};

/// Environment knobs of the stack that would change what is measured.
const FORBIDDEN_ENV: [&str; 7] = [
    "UU_JOBS",
    "UU_FAULT",
    "UU_CACHE",
    "UU_CACHE_DIR",
    "UU_SIMT_ENGINE",
    "UU_SERVE_",
    "UU_BENCH_",
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("uu-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(argv: &[String]) -> Result<ExitCode, String> {
    let has = |flag: &str| argv.iter().any(|a| a == flag);
    let value = |flag: &str| -> Option<&String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or(format!("{flag} {v}: not a number"))
        })
    };
    if has("--spec") {
        print!("{}", spec::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(i) = argv.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (argv.get(i + 1), argv.get(i + 2)) else {
            return Err("--compare takes two result files".into());
        };
        let clean = compare::compare(a, b)?;
        return Ok(if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if let Some(var) = std::env::vars()
        .map(|(k, _)| k)
        .find(|k| FORBIDDEN_ENV.iter().any(|f| k.starts_with(f)))
    {
        return Err(format!(
            "{var} is set; the benchmark measures the stack's defaults at jobs = 1"
        ));
    }
    let seed = number("--seed", 1.0)? as u64;
    let seconds = number("--seconds", f64::from(spec::RUN_SECONDS))?;
    let (smoke, bless) = (has("--smoke"), has("--bless"));
    let out_dir = out_dir()?;
    let Some(workload) = value("--workload") else {
        let repeat = number("--repeat", 1.0)? as u64;
        return run_all(seed, repeat.max(1), seconds, smoke, bless, &out_dir);
    };
    if !spec::WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace = match value("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let args = Args {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        smoke,
        bless,
    };
    let report = in_scratch(&out_dir, |scratch| workloads::run(&args, scratch))??;
    println!("{}", result_line(&report, trace)?);
    Ok(ExitCode::SUCCESS)
}

/// `<target>/uu-e2e`, found from where this executable was built, so every
/// file the benchmark writes stays inside the checkout's build directory.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable is not in a target directory")?;
    let dir = target.join("uu-e2e");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run `f` with the working directory set to a fresh scratch directory under
/// `out_dir` (Unix socket paths are length-limited, so they have to be
/// relative), then remove it.
fn in_scratch<T>(out_dir: &Path, f: impl FnOnce(&Path) -> T) -> Result<T, String> {
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(&dir).map_err(io)?;
    let back = std::env::current_dir().map_err(io)?;
    std::env::set_current_dir(&dir).map_err(io)?;
    let out = f(Path::new("."));
    std::env::set_current_dir(back).map_err(io)?;
    std::fs::remove_dir_all(&dir).map_err(io)?;
    Ok(out)
}

/// The one JSON object a run prints.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let specs = if trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut metrics = Vec::new();
    for (spec, (name, value)) in specs.iter().zip(&report.metrics) {
        assert_eq!(&spec.name, name, "metrics are reported in spec order");
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

/// Every workload, plain and traced, each in a child process.
fn run_all(
    seed: u64,
    repeat: u64,
    seconds: f64,
    smoke: bool,
    bless: bool,
    out_dir: &Path,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut runs = Vec::new();
    let mut correct = true;
    for seed in seed..seed + repeat {
        for w in &spec::WORKLOADS {
            for trace in ["0", "1"] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--seed", &seed.to_string()]);
                cmd.args(["--seconds", &seconds.to_string(), "--trace", trace]);
                cmd.args(smoke.then_some("--smoke"))
                    .args(bless.then_some("--bless"));
                let out = cmd
                    .stderr(std::process::Stdio::null())
                    .output()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or("");
                let result = Json::parse(line)
                    .ok()
                    .filter(|_| out.status.success())
                    .ok_or(format!(
                        "{} (seed {seed}, trace {trace}) printed no result",
                        w.name
                    ))?;
                correct &= result.get("correct") == Some(&Json::Bool(true));
                println!(
                    "== {} seed {seed} {} — attempted {}, failed {}",
                    w.name,
                    if trace == "1" { "traced" } else { "plain" },
                    result
                        .get("attempted")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
                );
                for (name, m) in result.get("metrics").map_or(&[][..], Json::members) {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    println!(
                        "  {name:<34} {value:>16.6} {}",
                        m.get("unit").and_then(Json::as_str).unwrap_or("")
                    );
                }
                runs.push(format!(
                    "    {{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, \"result\": {line}}}",
                    w.name
                ));
            }
        }
    }
    let path = out_dir.join("e2e.json");
    std::fs::write(
        &path,
        format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", runs.join(",\n")),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} (spans of the traced runs: {}/trace-<workload>.jsonl)",
        path.display(),
        out_dir.display()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
