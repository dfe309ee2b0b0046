//! The measurement plan behind every report: the `(app, target, config)`
//! keys that the sweep, the study and §V ask for, each measured once.
//!
//! A report names its keys and is a view over the plan's [`Points`]. The
//! plan measures the union of the keys in two `par_map`s — one baseline per
//! application, then every other key — and keeps each raw outcome for the
//! views to apply their own policies to. A key's measurement is a pure
//! function of the key, the fault plan and its application's baseline, so
//! a key two views share yields the same numbers in both, at any worker
//! count.

use crate::experiment::{measure_backed, Backend, LoopRef, MeasureError, Measurement};
use std::collections::{HashMap, HashSet};
use uu_core::{FaultPlan, LoopFilter, Rung, Transform};
use uu_kernels::Benchmark;

/// One measurement: `transform`, named `config`, applied to `target` of
/// `bench`. Keys are told apart by application, target and configuration
/// name, so a name must mean one transform wherever it is used.
#[derive(Clone)]
pub struct Key<'a> {
    /// The application.
    pub bench: &'a Benchmark,
    /// The one loop transformed; `None` is the whole application (the
    /// baseline, the heuristic).
    pub target: Option<LoopRef>,
    /// Configuration name (`baseline`, `heuristic`, `uu2`, `meld`, …).
    pub config: &'static str,
    /// The transform behind `config`.
    pub transform: Transform,
}

/// A key's identity: two keys with the same one are the same measurement.
type Id = (&'static str, Option<LoopRef>, &'static str);

impl<'a> Key<'a> {
    /// The baseline of `bench`, the denominator of all its ratios.
    pub(crate) fn baseline(bench: &'a Benchmark) -> Key<'a> {
        Key {
            bench,
            target: None,
            config: "baseline",
            transform: Transform::Baseline,
        }
    }

    /// Whether the workload runs: a loop outside the launched (hot)
    /// kernels never does, so its point borrows the baseline's run.
    pub(crate) fn hot(&self) -> bool {
        let hot = &self.bench.info.hot_kernels;
        self.target
            .as_ref()
            .is_none_or(|l| hot.contains(&l.func.as_str()))
    }

    /// `app/config` or `app/func/config`: what the key's diagnostics
    /// name.
    pub(crate) fn what(&self) -> String {
        let (app, config) = (self.bench.info.name, self.config);
        match &self.target {
            None => format!("{app}/{config}"),
            Some(l) => format!("{app}/{}/{config}", l.func),
        }
    }

    fn id(&self) -> Id {
        (self.bench.info.name, self.target.clone(), self.config)
    }

    /// Compile and (unless `skip_run` lends a run) execute the key.
    pub(crate) fn measure(
        &self,
        skip_run: Option<&Measurement>,
        fault: Option<FaultPlan>,
        backend: Backend<'_>,
    ) -> Result<Measurement, MeasureError> {
        let filter = match &self.target {
            None => LoopFilter::All,
            Some(l) => LoopFilter::Only {
                func: l.func.clone(),
                loop_id: l.loop_id,
            },
        };
        let transform = self.transform.clone();
        measure_backed(self.bench, transform, filter, skip_run, fault, backend)
    }
}

/// The ordered, deduplicated keys of one run and what every measurement
/// shares: worker count, fault plan and backend.
pub struct Plan<'a> {
    keys: Vec<Key<'a>>,
    seen: HashSet<Id>,
    rows: usize,
    jobs: usize,
    fault: Option<FaultPlan>,
    backend: Backend<'a>,
}

impl<'a> Plan<'a> {
    /// An empty plan.
    pub fn new(jobs: usize, fault: Option<FaultPlan>, backend: Backend<'a>) -> Plan<'a> {
        Plan {
            keys: Vec::new(),
            seen: HashSet::new(),
            rows: 0,
            jobs,
            fault,
            backend,
        }
    }

    /// Ask for `keys`, each a report row. A key already planned is not
    /// added again, and an application's first key brings its baseline.
    pub fn add(&mut self, keys: &[Key<'a>]) {
        for k in keys {
            self.rows += 1;
            for k in [Key::baseline(k.bench), k.clone()] {
                if self.seen.insert(k.id()) {
                    self.keys.push(k);
                }
            }
        }
    }

    /// The planned keys, in the order they were first asked for.
    pub fn keys(&self) -> &[Key<'a>] {
        &self.keys
    }

    /// `measured N points (B baselines) for R report rows`.
    pub fn summary(&self) -> String {
        let baselines = self.keys.iter().filter(|k| k.config == "baseline").count();
        let (n, rows) = (self.keys.len(), self.rows);
        format!("measured {n} points ({baselines} baselines) for {rows} report rows")
    }

    /// Measure every key once: the baselines, then the rest, with each
    /// cold loop borrowing its application's baseline run.
    pub fn run(self) -> Points {
        let (fault, backend) = (self.fault, self.backend);
        let (bases, rest): (Vec<_>, Vec<_>) =
            self.keys.iter().partition(|k| k.config == "baseline");
        let mut points = Points {
            bases: HashMap::new(),
            results: HashMap::new(),
        };
        let measured = uu_par::par_map(self.jobs, &bases, |_, k| k.measure(None, fault, backend));
        for (k, raw) in bases.iter().zip(measured) {
            points
                .bases
                .insert(k.bench.info.name, baseline_or_sentinel(&k.what(), &raw));
            points.results.insert(k.id(), raw);
        }
        let measured = uu_par::par_map(self.jobs, &rest, |_, k| {
            k.measure((!k.hot()).then(|| points.base(k.bench)), fault, backend)
        });
        points
            .results
            .extend(rest.iter().map(|k| k.id()).zip(measured));
        points
    }
}

/// Each planned key's raw outcome.
pub struct Points {
    bases: HashMap<&'static str, Measurement>,
    results: HashMap<Id, Result<Measurement, MeasureError>>,
}

impl Points {
    /// `key`'s outcome exactly as measured.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not planned.
    pub(crate) fn get(&self, key: &Key<'_>) -> &Result<Measurement, MeasureError> {
        &self.results[&key.id()]
    }

    /// `bench`'s baseline, or the sentinel standing in for a faulted one:
    /// every other number is ratioed against it, so it must exist. Unit
    /// time keeps each ratio finite and the report renderable, with the
    /// fault recorded in `diag`.
    ///
    /// # Panics
    ///
    /// Panics if no key of `bench` was planned.
    pub(crate) fn base(&self, bench: &Benchmark) -> &Measurement {
        &self.bases[bench.info.name]
    }
}

fn baseline_or_sentinel(what: &str, raw: &Result<Measurement, MeasureError>) -> Measurement {
    raw.clone().unwrap_or_else(|e| Measurement {
        time_ms: 1.0,
        code_size: 1,
        compile_ms: 0.0,
        checksum: 0.0,
        timed_out: false,
        metrics: Default::default(),
        transfer_ms: 0.0,
        rung: Rung::Unoptimized,
        diag: format!("{what}: {e}"),
    })
}
