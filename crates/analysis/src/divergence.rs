//! Thread-ID taint (divergence) analysis.
//!
//! The paper's §V analysis of the `complex` benchmark traces its slowdown to
//! a branch whose condition depends on the thread id: every warp diverges on
//! it, and u&u lengthens the divergent paths. The proposed remedy — "a taint
//! analysis that checks whether a condition depends on the values of e.g.
//! `threadIdx`, and not apply our transformation in these cases" — is
//! implemented here and wired into the heuristic as the optional
//! *divergence guard* ablation.
//!
//! Taint sources are `threadIdx.x` reads. Taint propagates through all
//! value-producing instructions, including loads whose *address* is tainted
//! (different threads read different cells, so the data is thread-varying).
//! Kernel arguments are uniform (the same for all threads).

use crate::cfg::reach_rows;
use crate::dominators::DomTree;
use crate::loops::{LoopForest, LoopId};
use uu_ir::{BlockId, EntitySet, Function, InstId, InstKind, Value};

/// Result of the taint analysis: the set of thread-dependent (divergent)
/// instruction results.
#[derive(Debug, Clone)]
pub struct Divergence {
    tainted: EntitySet<InstId>,
}

impl Divergence {
    /// Run the analysis on `f` to a fixed point.
    pub fn compute(f: &Function) -> Self {
        let tainted = propagate(f, |_, _, _| {});
        Divergence { tainted }
    }

    /// Whether the value is thread-dependent.
    pub fn is_divergent(&self, v: Value) -> bool {
        match v {
            Value::Inst(id) => self.tainted.contains(id),
            // Arguments and constants are uniform across the grid.
            Value::Arg(_) | Value::Const(_) => false,
        }
    }

    /// Number of divergent values found.
    pub fn num_divergent(&self) -> usize {
        self.tainted.len()
    }
}

/// Def→use edges of the linked instructions, one list per definition:
/// `of(d)` yields every linked instruction reading `d`, once per operand
/// occurrence.
struct Uses {
    /// Per instruction slot, its last edge (`u32::MAX`: none).
    head: Vec<u32>,
    /// `(user, the definition's previous edge)`.
    edges: Vec<(InstId, u32)>,
}

impl Uses {
    fn compute(f: &Function) -> Self {
        let mut head = vec![u32::MAX; f.num_inst_slots()];
        let mut edges = Vec::with_capacity(2 * f.num_inst_slots());
        for (u, inst) in f.iter_insts() {
            inst.kind.for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    edges.push((u, head[d.index()]));
                    head[d.index()] = (edges.len() - 1) as u32;
                }
            });
        }
        Uses { head, edges }
    }

    fn of(&self, d: InstId) -> impl Iterator<Item = InstId> + '_ {
        let mut e = self.head[d.index()];
        std::iter::from_fn(move || {
            let &(u, prev) = self.edges.get(e as usize)?;
            e = prev;
            Some(u)
        })
    }
}

/// The tainted set and the values tainted but not yet propagated.
#[derive(Default)]
struct Worklist {
    tainted: EntitySet<InstId>,
    pending: Vec<InstId>,
}

impl Worklist {
    fn taint(&mut self, id: InstId) {
        if self.tainted.insert(id) {
            self.pending.push(id);
        }
    }
}

/// The data rule's least fixpoint as a worklist: taint seeded at the
/// `threadIdx` reads and pushed along def→use edges into every
/// value-producing user. `control` sees each tainted value once, after its
/// users, and may taint more — [`Uniformity`]'s control rules. Without a
/// seed nothing is tainted, and the def→use edges are never built.
fn propagate(
    f: &Function,
    mut control: impl FnMut(InstId, &Uses, &mut Worklist),
) -> EntitySet<InstId> {
    let mut w = Worklist::default();
    for (id, inst) in f.iter_insts() {
        if matches!(&inst.kind, InstKind::Intr { which, .. } if which.is_thread_id()) {
            w.taint(id);
        }
    }
    if w.pending.is_empty() {
        return w.tainted;
    }
    let uses = Uses::compute(f);
    while let Some(d) = w.pending.pop() {
        for u in uses.of(d) {
            if !matches!(
                f.inst(u).kind,
                InstKind::Store { .. }
                    | InstKind::Br { .. }
                    | InstKind::CondBr { .. }
                    | InstKind::Ret { .. }
            ) {
                w.taint(u);
            }
        }
        control(d, &uses, &mut w);
    }
    w.tainted
}

/// Sound warp-level uniformity: the query surface behind the simulator's
/// scalarization of warp-uniform values.
///
/// [`Divergence`] is a pure *data* taint — exactly what the paper's
/// divergence guard calls for, but not sound as "this value is identical in
/// every active lane", because divergent *control* also makes values vary
/// per lane even when their operands are uniform:
///
/// 1. **Join rule (sync dependence).** A phi at a join point reachable from
///    both sides of a thread-divergent branch reads a lane-varying
///    predecessor, so its result varies across lanes even if every incoming
///    value is uniform.
/// 2. **Temporal rule.** A value defined inside a loop with a
///    thread-divergent exit branch and used outside the loop is frozen at a
///    different iteration in each lane, so the post-loop use sees
///    lane-varying data even though each iteration's value was uniform.
///
/// `Uniformity` closes the data taint under both control rules (a tainted
/// phi can make a branch condition tainted, which re-triggers both rules).
/// All three rules are monotone, so one worklist reaches their least
/// fixpoint: each branch fires once, when its condition is tainted; the
/// join rule ANDs two bitset reachability rows with a "≥ 2 predecessors"
/// mask; the temporal rule's escape test is static, so it runs at most
/// once per loop. The join rule uses plain CFG reachability from the two
/// branch successors — an overapproximation of the divergent region that
/// is sound for any reconvergence discipline, including the
/// immediate-post-dominator stack the simulator models.
#[derive(Debug, Clone)]
pub struct Uniformity {
    tainted: EntitySet<InstId>,
}

impl Uniformity {
    /// Run the analysis on `f` to a fixed point.
    pub fn compute(f: &Function) -> Self {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let preds = f.predecessors();
        let words = preds.len().div_ceil(64);
        // Linked blocks; the join-rule candidates (linked, ≥ 2 predecessor
        // edges, phis not yet tainted) as bitset words; each linked
        // instruction's block.
        let (mut linked, mut joins) = (EntitySet::new(), vec![0u64; words]);
        let mut block_of = vec![BlockId::from_index(0); f.num_inst_slots()];
        for &b in f.layout() {
            linked.insert(b);
            if preds[b.index()].len() >= 2 {
                joins[b.index() / 64] |= 1 << (b.index() % 64);
            }
            for &i in &f.block(b).insts {
                block_of[i.index()] = b;
            }
        }
        let mut reach: Option<Vec<u64>> = None;
        let mut exited = vec![false; forest.len()];

        let tainted = propagate(f, |d, uses, w| {
            for u in uses.of(d) {
                let InstKind::CondBr {
                    if_true, if_false, ..
                } = f.inst(u).kind
                else {
                    continue;
                };
                let b = block_of[u.index()];
                // A branch with both edges to one target never splits lanes.
                if if_true == if_false || f.terminator(b) != Some(u) {
                    continue;
                }
                // Join rule: taint phis of every join reachable from both
                // successors (an unlinked successor reaches nothing).
                if linked.contains(if_true) && linked.contains(if_false) {
                    let reach = reach.get_or_insert_with(|| reach_rows(f, preds.len()));
                    let (t, e) = (if_true.index() * words, if_false.index() * words);
                    for k in 0..words {
                        let mut hit = reach[t + k] & reach[e + k] & joins[k];
                        joins[k] &= !hit;
                        while hit != 0 {
                            let j = BlockId::from_index(k * 64 + hit.trailing_zeros() as usize);
                            hit &= hit - 1;
                            for &phi in &f.block(j).insts {
                                if !f.inst(phi).kind.is_phi() {
                                    break;
                                }
                                w.taint(phi);
                            }
                        }
                    }
                }
                // Temporal rule: if this branch exits a containing loop,
                // lanes leave that loop on different iterations, so every
                // loop-defined value used outside the loop varies per lane.
                let mut lp = forest.innermost_containing(b);
                while let Some(LoopId(i)) = lp {
                    let l = forest.get(LoopId(i));
                    if (!l.contains(if_true) || !l.contains(if_false)) && !exited[i] {
                        exited[i] = true;
                        let outside = |u: InstId| !l.contains(block_of[u.index()]);
                        for &lb in &l.blocks {
                            for &def in &f.block(lb).insts {
                                if uses.of(def).any(outside) {
                                    w.taint(def);
                                }
                            }
                        }
                    }
                    lp = l.parent;
                }
            }
        });
        Uniformity { tainted }
    }

    /// Whether the value is identical across all active lanes of any warp.
    pub fn is_uniform(&self, v: Value) -> bool {
        !self.is_divergent(v)
    }

    /// Whether the value may differ between lanes of a warp.
    pub fn is_divergent(&self, v: Value) -> bool {
        match v {
            Value::Inst(id) => self.tainted.contains(id),
            Value::Arg(_) | Value::Const(_) => false,
        }
    }

    /// Number of lane-varying values found.
    pub fn num_divergent(&self) -> usize {
        self.tainted.len()
    }
}

/// Whether any conditional branch inside loop `id` has a thread-dependent
/// condition — the divergence-guard query used by the heuristic.
pub fn loop_has_divergent_branch(
    f: &Function,
    forest: &LoopForest,
    id: LoopId,
    div: &Divergence,
) -> bool {
    for &b in &forest.get(id).blocks {
        if let Some(t) = f.terminator(b) {
            if let InstKind::CondBr { cond, .. } = f.inst(t).kind {
                if div.is_divergent(cond) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomTree;
    use uu_ir::{BinOp, FunctionBuilder, ICmpPred, Param, Type};

    /// The `complex` loop shape: `while (n > 0) { if (n & 1) ...; n >>= 1 }`
    /// with `n` seeded from the global thread id.
    fn complex_like(seed_from_tid: bool) -> uu_ir::Function {
        let mut f = uu_ir::Function::new("cx", vec![Param::new("n0", Type::I64)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let odd = b.create_block();
        let latch = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        let n0 = if seed_from_tid {
            b.global_thread_id()
        } else {
            Value::Arg(0)
        };
        b.br(h);
        b.switch_to(h);
        let n = b.phi(Type::I64);
        b.add_phi_incoming(n, entry, n0);
        let c = b.icmp(ICmpPred::Sgt, n, Value::imm(0i64));
        b.cond_br(c, odd, exit);
        b.switch_to(odd);
        let bit = b.and(n, Value::imm(1i64));
        let isodd = b.icmp(ICmpPred::Ne, bit, Value::imm(0i64));
        b.cond_br(isodd, latch, latch); // both edges to latch; condition still divergent
        b.switch_to(latch);
        let n2 = b.bin(BinOp::AShr, n, Value::imm(1i64));
        b.add_phi_incoming(n, latch, n2);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        f
    }

    #[test]
    fn tid_seeded_loop_is_divergent() {
        let f = complex_like(true);
        let div = Divergence::compute(&f);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(div.num_divergent() > 0);
        assert!(loop_has_divergent_branch(&f, &forest, LoopId(0), &div));
    }

    #[test]
    fn uniform_loop_is_not_divergent() {
        let f = complex_like(false);
        let div = Divergence::compute(&f);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(div.num_divergent(), 0);
        assert!(!loop_has_divergent_branch(&f, &forest, LoopId(0), &div));
    }

    #[test]
    fn taint_flows_through_loads() {
        // load(base + tid*8) is divergent data.
        let mut f = uu_ir::Function::new("ld", vec![Param::new("p", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let gid = b.global_thread_id();
        let addr = b.gep(Value::Arg(0), gid, 8);
        let x = b.load(Type::F64, addr);
        let y = b.fadd(x, Value::imm(1.0f64));
        b.store(addr, y);
        b.ret(None);
        let div = Divergence::compute(&f);
        assert!(div.is_divergent(x));
        assert!(div.is_divergent(y));
        assert!(div.is_divergent(addr));
        assert!(!div.is_divergent(Value::Arg(0)));
    }

    /// Diamond joined by a phi of two *uniform* constants, branched on a
    /// thread-divergent condition: `Divergence` (data-only) calls the phi
    /// uniform, `Uniformity`'s join rule must not.
    fn divergent_diamond() -> (uu_ir::Function, Value) {
        let mut f = uu_ir::Function::new("dj", vec![Param::new("n", Type::I64)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.switch_to(entry);
        let gid = b.global_thread_id();
        let c = b.icmp(ICmpPred::Slt, gid, Value::imm(16i64));
        b.cond_br(c, left, right);
        b.switch_to(left);
        b.br(join);
        b.switch_to(right);
        b.br(join);
        b.switch_to(join);
        let m = b.phi(Type::I64);
        b.add_phi_incoming(m, left, Value::imm(1i64));
        b.add_phi_incoming(m, right, Value::imm(2i64));
        b.ret(None);
        (f, m)
    }

    #[test]
    fn join_rule_taints_phi_of_divergent_branch() {
        let (f, m) = divergent_diamond();
        let data = Divergence::compute(&f);
        let uni = Uniformity::compute(&f);
        // The data taint misses the control dependence; the join rule closes it.
        assert!(!data.is_divergent(m));
        assert!(uni.is_divergent(m));
    }

    #[test]
    fn uniform_branch_phi_stays_uniform() {
        // Same diamond but branched on a uniform argument comparison.
        let mut f = uu_ir::Function::new("uj", vec![Param::new("n", Type::I64)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let left = b.create_block();
        let right = b.create_block();
        let join = b.create_block();
        b.switch_to(entry);
        let c = b.icmp(ICmpPred::Slt, Value::Arg(0), Value::imm(16i64));
        b.cond_br(c, left, right);
        b.switch_to(left);
        b.br(join);
        b.switch_to(right);
        b.br(join);
        b.switch_to(join);
        let m = b.phi(Type::I64);
        b.add_phi_incoming(m, left, Value::imm(1i64));
        b.add_phi_incoming(m, right, Value::imm(2i64));
        b.ret(None);
        let uni = Uniformity::compute(&f);
        assert!(uni.is_uniform(m));
        assert_eq!(uni.num_divergent(), 0);
    }

    #[test]
    fn temporal_rule_taints_loop_values_escaping_divergent_exit() {
        // `tri`-shaped loop: `while (i < tid) { acc += 1; i += 1 }; use acc`.
        // Each lane exits at a different iteration, so the escaping `acc`
        // (and the loop counter) are lane-varying outside the loop even
        // though per-iteration arithmetic on them is data-uniform.
        let mut f = uu_ir::Function::new("tri", vec![Param::new("p", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        let gid = b.global_thread_id();
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        let acc = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        b.add_phi_incoming(acc, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, gid);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let acc2 = b.add(acc, Value::imm(1i64));
        let i2 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(acc, body, acc2);
        b.br(h);
        b.switch_to(exit);
        let addr = b.gep(Value::Arg(0), gid, 8);
        b.store(addr, acc);
        b.ret(None);
        let data = Divergence::compute(&f);
        let uni = Uniformity::compute(&f);
        // Data taint sees the condition but not the escaping accumulator.
        assert!(data.is_divergent(c));
        assert!(!data.is_divergent(acc));
        // Temporal rule: `acc` escapes a divergently-exited loop, and the
        // data rule then carries the taint into its add.
        assert!(uni.is_divergent(acc));
        assert!(uni.is_divergent(acc2));
        // `i` never escapes the loop: at every in-loop read it is identical
        // across the lanes still active, so it precisely stays uniform.
        assert!(uni.is_uniform(i));
    }

    #[test]
    fn uniform_trip_count_loop_stays_uniform() {
        // `while (i < n) { s += 2; i += 1 }; use s` with uniform `n`: every
        // lane runs the same iterations, so the escaping sum is uniform.
        let mut f = uu_ir::Function::new("ut", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        let s = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        b.add_phi_incoming(s, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let s2 = b.add(s, Value::imm(2i64));
        let i2 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(s, body, s2);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(s));
        let uni = Uniformity::compute(&f);
        assert!(uni.is_uniform(s));
        assert!(uni.is_uniform(i));
        assert_eq!(uni.num_divergent(), 0);
    }

    #[test]
    fn uniformity_refines_divergence_on_complex_shape() {
        // Every data-divergent value is also Uniformity-divergent (the
        // control rules only ever *add* taint).
        let f = complex_like(true);
        let data = Divergence::compute(&f);
        let uni = Uniformity::compute(&f);
        for (id, _) in f.iter_insts() {
            if data.is_divergent(Value::Inst(id)) {
                assert!(uni.is_divergent(Value::Inst(id)));
            }
        }
        assert!(uni.num_divergent() >= data.num_divergent());
    }

    #[test]
    fn uniform_load_stays_uniform() {
        let mut f = uu_ir::Function::new("u", vec![Param::new("p", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let x = b.load(Type::F64, Value::Arg(0));
        let y = b.fadd(x, Value::imm(1.0f64));
        b.store(Value::Arg(0), y);
        b.ret(None);
        let div = Divergence::compute(&f);
        assert!(!div.is_divergent(x));
        assert!(!div.is_divergent(y));
    }
}
