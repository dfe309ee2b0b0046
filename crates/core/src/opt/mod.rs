//! The `-O3`-style cleanup optimizer.
//!
//! The paper's transformation does not speed anything up by itself — it
//! *enables subsequent optimizations* (§III). This module provides those
//! subsequent optimizations as real, from-scratch passes:
//!
//! * [`instsimplify`] — constant folding + algebraic simplification
//!   (including the `(a + b) - a → b` rule behind the XSBench subtraction
//!   elimination);
//! * [`sccp`] — sparse conditional constant propagation with executable-edge
//!   tracking (kills the back edge of fully unrolled counted loops);
//! * [`gvn`] — dominator-scoped value numbering with alias-aware redundant
//!   load elimination and store-to-load forwarding (the rainflow load
//!   eliminations; honours `__restrict__`);
//! * [`condprop`] — branch-condition propagation: below a conditional edge
//!   the condition value (and equality facts) are known, which is exactly
//!   the provenance information unmerging exposes;
//! * [`simplifycfg`] — branch folding, block merging, jump threading and
//!   unreachable-code removal;
//! * [`dce`] — dead code elimination;
//! * [`ifconvert`] — select formation (predication), the reason the
//!   *baseline* compiles branchy loop bodies into PTX `selp` instructions.
//!
//! [`meld`] is the odd one out: not cleanup but a rival transform —
//! DARM-style control-flow melding of divergent diamonds, run head-to-head
//! against unmerging by the harness's three-way study.

pub mod condprop;
pub mod dce;
pub mod gvn;
pub mod ifconvert;
pub mod instsimplify;
pub mod meld;
pub mod sccp;
pub mod simplifycfg;

use uu_analysis::AnalysisCache;
use uu_ir::{Function, InstId, SecondaryMap, Value};

#[cfg(test)]
mod rewrite_equivalence;

/// A function-level transformation.
pub trait Pass {
    /// Stable pass name (used in compile-time accounting).
    fn name(&self) -> &'static str;
    /// Run on one function; returns whether anything changed.
    fn run(&mut self, f: &mut Function) -> bool;
    /// Whether every change this pass can make leaves the CFG (block set,
    /// layout and edges) intact. The pass manager keeps cached dominators
    /// and loops alive across invocations of CFG-preserving passes and
    /// invalidates them after any other pass that changes the function
    /// (see [`PassScope`]).
    fn preserves_cfg(&self) -> bool {
        false
    }
    /// Run with access to the per-function [`AnalysisCache`]. Passes that
    /// consume dominators or loops override this to pull them from the
    /// cache instead of recomputing; the default ignores the cache.
    fn run_with(&mut self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
        let _ = cache;
        self.run(f)
    }
}

/// What a pass manager keeps about one function between pass invocations:
/// the analyses the passes share, and the passes *settled* on the
/// function's current state — those that last ran on exactly this state,
/// reported no change and left it equal. A pass is a deterministic
/// function of the function it is handed, so re-running a settled pass
/// would report no change again and leave the function as it is: the
/// invocation can be elided.
///
/// Both halves follow one rule, applied after every invocation on the
/// *exact* change bit ([`Function::snapshot_changed`]), not on what the
/// pass reports: a real change clears the settled set and, unless the
/// pass preserves the CFG, invalidates the analyses. A pass that edits
/// the CFG while reporting no change therefore cannot leave stale
/// dominators behind. Owned per function, so nothing settled on one
/// function can elide a pass on the next.
#[derive(Default)]
pub struct PassScope {
    cache: AnalysisCache,
    settled: Vec<&'static str>,
    /// `cost::function_size` of the state the settled passes ran on.
    size: u64,
}

impl PassScope {
    /// The analyses shared by the passes run in this scope.
    pub fn cache(&mut self) -> &mut AnalysisCache {
        &mut self.cache
    }

    /// The current state's size if `pass` is settled on it — the
    /// invocation may be elided — or `None` if it must run.
    pub fn settled(&self, pass: &str) -> Option<u64> {
        self.settled.contains(&pass).then_some(self.size)
    }

    /// Account for one completed invocation of `pass` that `reported`
    /// a change and — by the exact bit — `changed` the function, leaving
    /// it at `size`.
    pub(crate) fn after(&mut self, pass: &dyn Pass, reported: bool, changed: bool, size: u64) {
        if changed {
            self.settled.clear();
            if !pass.preserves_cfg() {
                self.cache.invalidate();
            }
        } else if !reported && !self.settled.contains(&pass.name()) {
            self.settled.push(pass.name());
            self.size = size;
        }
    }

    /// Run `pass` over `f` in this scope (unguarded) and return what it
    /// reported; a settled pass is elided and reports no change.
    pub fn run(&mut self, f: &mut Function, pass: &mut dyn Pass) -> bool {
        if self.settled(pass.name()).is_some() {
            return false;
        }
        f.snapshot_begin();
        let reported = pass.run_with(f, &mut self.cache);
        let changed = f.snapshot_changed();
        f.snapshot_commit();
        self.after(pass, reported, changed, uu_analysis::cost::function_size(f));
        reported
    }
}

/// The replacements one pass invocation makes, applied in a single
/// [`Function::replace_uses_with`] sweep when it ends rather than one
/// arena-wide sweep per replacement. Until then the pass reads operands
/// through [`Substitution::resolve`] (or brings an instruction's own up to
/// date with [`Substitution::refresh`]), which yields exactly what the
/// per-replacement sweeps would have left in the arena: a replacement's
/// value is always resolved when it is recorded, so chains only run
/// forward in time.
#[derive(Default)]
pub(crate) struct Substitution {
    /// Written only by `record`, so an allocated slot means a replacement.
    to: SecondaryMap<InstId, Option<Value>>,
}

impl Substitution {
    /// Record that every use of `id` becomes `v`.
    pub(crate) fn record(&mut self, id: InstId, v: Value) {
        self.to.set(id, Some(self.resolve(v)));
    }

    /// Whether a replacement for `id` was recorded.
    pub(crate) fn replaces(&self, id: InstId) -> bool {
        self.to.get(id).is_some()
    }

    /// `v` with every recorded replacement applied, chains followed.
    pub(crate) fn resolve(&self, mut v: Value) -> Value {
        while let Value::Inst(i) = v {
            match *self.to.get(i) {
                Some(to) => v = to,
                None => break,
            }
        }
        v
    }

    /// Bring the operands of instruction `id` up to date in place.
    pub(crate) fn refresh(&self, f: &mut Function, id: InstId) {
        if self.to.is_empty() {
            return;
        }
        let mut stale = false;
        f.inst(id).kind.for_each_operand(|v| stale |= self.resolve(*v) != *v);
        if stale {
            f.inst_mut(id)
                .kind
                .for_each_operand_mut(|v| *v = self.resolve(*v));
        }
    }

    /// Apply every recorded replacement to the whole arena in one sweep;
    /// returns whether there was any.
    pub(crate) fn apply(&self, f: &mut Function) -> bool {
        let any = !self.to.is_empty();
        if any {
            f.replace_uses_with(|v| match v {
                Value::Inst(i) if self.to.get(i).is_some() => Some(self.resolve(v)),
                _ => None,
            });
        }
        any
    }
}

/// Lists keyed by row index, in compressed rows: every row's items back
/// to back in one buffer, in the order they were pushed. Built in two
/// walks that see the same items: one that counts each row's items, then
/// (after [`Rows::start_filling`]) one that pushes them, then
/// [`Rows::finish`].
pub(crate) struct Rows<T> {
    /// While counting, `offsets[r + 1]` is row `r`'s count; while filling,
    /// `offsets[r]` is where row `r`'s next item goes; when finished,
    /// `offsets[r]..offsets[r + 1]` is row `r`.
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    pub(crate) fn counting(rows: usize) -> Rows<T> {
        Rows {
            offsets: vec![0; rows + 1],
            items: Vec::new(),
        }
    }

    pub(crate) fn count(&mut self, row: usize) {
        self.offsets[row + 1] += 1;
    }

    pub(crate) fn start_filling(&mut self, placeholder: T) {
        for r in 1..self.offsets.len() {
            self.offsets[r] += self.offsets[r - 1];
        }
        let total = *self.offsets.last().expect("one more offset than rows");
        self.items = vec![placeholder; total as usize];
    }

    pub(crate) fn push(&mut self, row: usize, item: T) {
        let at = &mut self.offsets[row];
        self.items[*at as usize] = item;
        *at += 1;
    }

    /// Filling left each row's start at the next row's; shift them back.
    pub(crate) fn finish(&mut self) {
        let rows = self.offsets.len() - 1;
        self.offsets.copy_within(..rows, 1);
        self.offsets[0] = 0;
    }

    pub(crate) fn get(&self, row: usize) -> &[T] {
        &self.items[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }
}

/// One round of the standard cleanup sequence, each pass run through
/// `step`; returns whether any step reported a change.
pub(crate) fn cleanup_round(mut step: impl FnMut(&mut dyn Pass) -> bool) -> bool {
    // `|` rather than `||`: every pass runs every round.
    step(&mut simplifycfg::SimplifyCfg::default())
        | step(&mut instsimplify::InstSimplify)
        | step(&mut sccp::Sccp)
        | step(&mut simplifycfg::SimplifyCfg::default())
        | step(&mut gvn::Gvn)
        | step(&mut condprop::CondProp)
        | step(&mut dce::Dce)
}

/// Run the standard cleanup sequence to a fixed point (bounded by
/// `max_rounds`). Returns the number of rounds that made progress.
pub fn run_cleanup(f: &mut Function, max_rounds: usize) -> usize {
    let mut scope = PassScope::default();
    let mut rounds = 0;
    while rounds < max_rounds && cleanup_round(|p| scope.run(f, p)) {
        rounds += 1;
    }
    rounds
}
