//! Loop canonicalization: preheader, single latch, dedicated exits, LCSSA.
//!
//! Mirrors LLVM's `LoopSimplify` + `LCSSA` passes, which the paper's u&u
//! `LoopPass` (like every LLVM loop pass) runs after. The unroll and unmerge
//! transforms in this crate require the canonical form:
//!
//! * a *preheader*: the unique out-of-loop predecessor of the header;
//! * a single *latch* carrying the only back edge;
//! * *dedicated exits*: every exit block's predecessors are all inside the
//!   loop;
//! * *LCSSA*: every value defined in the loop and used outside flows through
//!   a phi in an exit block, so that cloning iterations only ever needs to
//!   patch exit phis.

use std::collections::HashSet;
use uu_ir::{BlockId, Function, Inst, InstId, InstKind, Type, Value};
use uu_analysis::DomTree;

/// A loop in canonical form, with the block ids the transforms need.
#[derive(Debug, Clone)]
pub struct CanonicalLoop {
    /// Loop header.
    pub header: BlockId,
    /// Unique predecessor of the header from outside the loop.
    pub preheader: BlockId,
    /// The single block carrying the back edge.
    pub latch: BlockId,
    /// Dedicated exit blocks (every predecessor inside the loop).
    pub exits: Vec<BlockId>,
    /// All loop blocks (header and latch included), sorted.
    pub blocks: Vec<BlockId>,
}

impl CanonicalLoop {
    /// Whether `b` is a loop block.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// Bring the loop with the given header/blocks/latches into canonical form.
///
/// Returns `None` if LCSSA rewriting hits a shape it cannot handle (an
/// outside use not dominated by a unique exit phi) — callers must then skip
/// transforming this loop, exactly as a conservative LLVM pass would.
pub fn canonicalize_loop(
    f: &mut Function,
    header: BlockId,
    blocks: &[BlockId],
    latches: &[BlockId],
) -> Option<CanonicalLoop> {
    let cl = canonical_shape(f, header, blocks, latches);
    rewrite_lcssa(f, &cl).then_some(cl)
}

/// Steps 1-3 of [`canonicalize_loop`]: preheader, single latch, dedicated
/// exits.
fn canonical_shape(
    f: &mut Function,
    header: BlockId,
    blocks: &[BlockId],
    latches: &[BlockId],
) -> CanonicalLoop {
    let mut loop_blocks: HashSet<BlockId> = blocks.iter().copied().collect();

    // --- 1. preheader ---
    let preds = f.predecessors();
    let outside_preds: Vec<BlockId> = preds[header.index()]
        .iter()
        .copied()
        .filter(|p| !loop_blocks.contains(p))
        .collect();
    let preheader = if outside_preds.len() == 1 && *f.successors(outside_preds[0]) == [header] {
        outside_preds[0]
    } else {
        insert_merging_pred(f, header, &outside_preds)
    };

    // --- 2. single latch ---
    let mut my_latches: Vec<BlockId> = latches.to_vec();
    my_latches.sort();
    my_latches.dedup();
    let latch = if my_latches.len() == 1 {
        my_latches[0]
    } else {
        let l = insert_merging_pred(f, header, &my_latches);
        loop_blocks.insert(l);
        l
    };

    // --- 3. dedicated exits ---
    let mut exits: Vec<BlockId> = Vec::new();
    loop {
        let preds = f.predecessors();
        let mut raw_exits: Vec<BlockId> = Vec::new();
        for &b in &loop_blocks {
            for s in f.successors(b) {
                if !loop_blocks.contains(&s) && !raw_exits.contains(&s) {
                    raw_exits.push(s);
                }
            }
        }
        raw_exits.sort();
        let mut changed = false;
        exits.clear();
        for x in raw_exits {
            let has_outside_pred = preds[x.index()]
                .iter()
                .any(|p| !loop_blocks.contains(p));
            if has_outside_pred {
                let inside: Vec<BlockId> = preds[x.index()]
                    .iter()
                    .copied()
                    .filter(|p| loop_blocks.contains(p))
                    .collect();
                let dx = insert_merging_pred(f, x, &inside);
                exits.push(dx);
                changed = true;
            } else {
                exits.push(x);
            }
        }
        if !changed {
            break;
        }
    }

    let mut sorted_blocks: Vec<BlockId> = loop_blocks.iter().copied().collect();
    sorted_blocks.sort();
    CanonicalLoop {
        header,
        preheader,
        latch,
        exits,
        blocks: sorted_blocks,
    }
}

/// Insert a new block `m` between `preds` and `target`: all edges
/// `p → target` (p ∈ preds) are retargeted to `m`, which branches to
/// `target`. Phi incomings in `target` from those preds are merged into a
/// phi placed in `m`. Returns `m`.
fn insert_merging_pred(f: &mut Function, target: BlockId, preds: &[BlockId]) -> BlockId {
    let m = f.add_block();
    // Retarget terminators.
    for &p in preds {
        let t = f.terminator(p).expect("predecessor must have a terminator");
        f.inst_mut(t).kind.replace_block(target, m);
    }
    // Merge phi incomings.
    for phi in f.phis(target) {
        let ty = f.inst(phi).ty;
        let mut moved: Vec<(BlockId, Value)> = Vec::new();
        if let InstKind::Phi { incomings } = &f.inst(phi).kind {
            for (b, v) in incomings {
                if preds.contains(b) {
                    moved.push((*b, *v));
                }
            }
        }
        if moved.is_empty() {
            continue;
        }
        let merged: Value = if moved.len() == 1 && preds.len() == 1 {
            moved[0].1
        } else {
            let np = f.prepend_inst(m, Inst::new(InstKind::Phi { incomings: moved }, ty));
            Value::Inst(np)
        };
        if let InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            incomings.retain(|(b, _)| !preds.contains(b));
            incomings.push((m, merged));
        }
    }
    // Terminator of m.
    f.append_inst(m, Inst::new(InstKind::Br { target }, Type::Void));
    m
}

/// Outside uses of one loop definition: `(user inst, block where the use
/// "happens", the phi incoming's label for a phi use)`, in layout order.
type OutsideUses = Vec<(InstId, BlockId, Option<BlockId>)>;

/// Rewrite the function into LCSSA form for loop `cl`. Returns `false` when
/// an outside use cannot be assigned a unique dominating exit phi.
fn rewrite_lcssa(f: &mut Function, cl: &CanonicalLoop) -> bool {
    let dom = DomTree::compute(f);
    let loop_set: HashSet<BlockId> = cl.blocks.iter().copied().collect();
    // Collect values defined inside the loop, and each one's place in `defs`.
    let mut defs: Vec<(InstId, BlockId)> = Vec::new();
    let mut def_at = vec![usize::MAX; f.num_inst_slots()];
    for &b in &cl.blocks {
        for &i in &f.block(b).insts {
            if f.inst(i).ty != Type::Void {
                def_at[i.index()] = defs.len();
                defs.push((i, b));
            }
        }
    }
    let def_of = |v: &Value| match v {
        Value::Inst(i) if def_at[i.index()] != usize::MAX => Some(def_at[i.index()]),
        _ => None,
    };
    // Every definition's outside uses, in one scan of the layout. Rewriting
    // one definition's uses below adds exit phis that use only that
    // definition and moves no use to another block, so each bucket is what
    // a scan at its definition's turn would find.
    let mut outside_uses: Vec<OutsideUses> = vec![Vec::new(); defs.len()];
    for &ub in f.layout() {
        if loop_set.contains(&ub) {
            continue;
        }
        for &u in &f.block(ub).insts {
            match &f.inst(u).kind {
                InstKind::Phi { incomings } => {
                    for (p, v) in incomings {
                        if let Some(d) = def_of(v).filter(|_| !loop_set.contains(p)) {
                            outside_uses[d].push((u, *p, Some(*p)));
                        }
                    }
                }
                k => k.for_each_operand(|v| {
                    if let Some(d) = def_of(v) {
                        // One entry per user, however many operands it uses.
                        if outside_uses[d].last().is_none_or(|&(user, _, _)| user != u) {
                            outside_uses[d].push((u, ub, None));
                        }
                    }
                }),
            }
        }
    }
    let preds = f.predecessors();
    for ((def, def_block), outside_uses) in defs.into_iter().zip(outside_uses) {
        if outside_uses.is_empty() {
            continue;
        }
        // Insert exit phis where the def is available.
        let ty = f.inst(def).ty;
        let mut exit_phis: Vec<(BlockId, InstId)> = Vec::new();
        for &x in &cl.exits {
            let in_preds: Vec<BlockId> = preds[x.index()]
                .iter()
                .copied()
                .filter(|p| loop_set.contains(p))
                .collect();
            if in_preds.is_empty() {
                continue;
            }
            if !in_preds.iter().all(|p| dom.dominates(def_block, *p)) {
                continue;
            }
            // Reuse an existing LCSSA phi for this def if present.
            let existing = f.phis(x).into_iter().find(|&p| {
                matches!(&f.inst(p).kind, InstKind::Phi { incomings }
                    if incomings.iter().all(|(_, v)| *v == Value::Inst(def)))
            });
            let phi = match existing {
                Some(p) => p,
                None => {
                    let incomings = in_preds.iter().map(|p| (*p, Value::Inst(def))).collect();
                    f.prepend_inst(x, Inst::new(InstKind::Phi { incomings }, ty))
                }
            };
            exit_phis.push((x, phi));
        }
        // Rewrite each outside use to the deepest dominating exit phi.
        for (user, use_block, phi_pred) in outside_uses {
            // Skip the exit phis we just created.
            if exit_phis.iter().any(|(_, p)| *p == user) {
                continue;
            }
            let mut candidates: Vec<BlockId> = exit_phis
                .iter()
                .map(|(x, _)| *x)
                .filter(|x| dom.dominates(*x, use_block))
                .collect();
            if candidates.is_empty() {
                return false;
            }
            // Deepest = dominated by all the others.
            candidates.sort_by(|a, b| {
                if dom.dominates(*a, *b) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            let chosen = *candidates.last().unwrap();
            if !candidates.iter().all(|c| dom.dominates(*c, chosen)) {
                return false;
            }
            let phi = exit_phis.iter().find(|(x, _)| *x == chosen).unwrap().1;
            match phi_pred {
                Some(pp) => {
                    if let InstKind::Phi { incomings } = &mut f.inst_mut(user).kind {
                        for (p, v) in incomings {
                            if *p == pp && *v == Value::Inst(def) {
                                *v = Value::Inst(phi);
                            }
                        }
                    }
                }
                None => {
                    let mut kind = f.inst(user).kind.clone();
                    kind.for_each_operand_mut(|v| {
                        if *v == Value::Inst(def) {
                            *v = Value::Inst(phi);
                        }
                    });
                    f.inst_mut(user).kind = kind;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_analysis::{DomTree, LoopForest, LoopId};
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type};

    /// Loop whose exit block is also reachable from entry (non-dedicated),
    /// with two latches, whose counter is returned after the loop.
    fn messy_loop() -> uu_ir::Function {
        let mut f = uu_ir::Function::new(
            "m",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block(); // 1
        let l1 = b.create_block(); // 2
        let l2 = b.create_block(); // 3
        let exit = b.create_block(); // 4 (shared with entry path)
        b.switch_to(entry);
        b.cond_br(Value::Arg(1), h, exit);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, l1, exit);
        b.switch_to(l1);
        let i1 = b.add(i, Value::imm(1i64));
        b.cond_br(Value::Arg(1), l2, h);
        b.add_phi_incoming(i, l1, i1);
        b.switch_to(l2);
        let i2 = b.add(i1, Value::imm(1i64));
        b.add_phi_incoming(i, l2, i2);
        b.br(h);
        b.switch_to(exit);
        let r = b.phi(Type::I64);
        b.add_phi_incoming(r, entry, Value::imm(-1i64));
        // The phi incoming from inside the loop is a use of `i` that LCSSA
        // must reroute once the exit edge gets a dedicated block.
        b.add_phi_incoming(r, h, i);
        let s = b.add(r, Value::imm(1i64));
        b.ret(Some(s));
        f
    }

    #[test]
    fn canonicalizes_messy_loop() {
        let mut f = messy_loop();
        uu_ir::verify_function(&f).unwrap();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.len(), 1);
        let l = forest.get(LoopId(0));
        let cl = canonicalize_loop(
            &mut f,
            l.header,
            &l.blocks.clone(),
            &l.latches.clone(),
        )
        .expect("canonicalizable");
        uu_ir::verify_function(&f).unwrap_or_else(|e| panic!("{e}\n{f}"));
        // Preheader exists, has single successor = header.
        assert_eq!(*f.successors(cl.preheader), [cl.header]);
        // Single latch whose only successor is the header.
        assert_eq!(*f.successors(cl.latch), [cl.header]);
        // Header now has exactly two preds: preheader + latch.
        let preds = f.predecessors();
        let mut hp = preds[cl.header.index()].to_vec();
        hp.sort();
        let mut expect = vec![cl.preheader, cl.latch];
        expect.sort();
        assert_eq!(hp, expect);
        // Exits are dedicated.
        for &x in &cl.exits {
            for p in &preds[x.index()] {
                assert!(cl.contains(*p), "exit {x} has outside pred {p}");
            }
        }
        // The loop counter flows through an exit phi (LCSSA).
        let dom2 = DomTree::compute(&f);
        let _ = dom2;
    }

    #[test]
    fn already_canonical_is_untouched_shape() {
        // entry->h, body latch, exit dedicated, return via phi-free const.
        let mut f = uu_ir::Function::new("c", vec![Param::new("n", Type::I64)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        let before_blocks = f.num_blocks();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let l = forest.get(LoopId(0));
        let cl = canonicalize_loop(&mut f, l.header, &l.blocks.clone(), &l.latches.clone())
            .unwrap();
        uu_ir::verify_function(&f).unwrap();
        assert_eq!(f.num_blocks(), before_blocks);
        assert_eq!(cl.preheader, entry);
        assert_eq!(cl.latch, body);
        assert_eq!(cl.exits, vec![exit]);
    }

    #[test]
    fn lcssa_inserts_exit_phi_for_live_out() {
        let mut f = uu_ir::Function::new("lo", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(Some(i)); // direct use of header phi outside the loop
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let l = forest.get(LoopId(0));
        canonicalize_loop(&mut f, l.header, &l.blocks.clone(), &l.latches.clone()).unwrap();
        uu_ir::verify_function(&f).unwrap();
        // The return value must now be an exit phi, not the header phi.
        let phis = f.phis(exit);
        assert_eq!(phis.len(), 1);
        let term = f.terminator(exit).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { value } => assert_eq!(*value, Some(Value::Inst(phis[0]))),
            _ => unreachable!(),
        }
    }

    /// Loops whose live-outs cannot be routed through a unique dominating
    /// exit phi are declined (the conservative bail the transforms rely on).
    #[test]
    fn lcssa_bails_on_ambiguous_live_out_paths() {
        // Loop with two exits whose continuations *merge*, both using the
        // loop counter: neither exit phi dominates the merged use.
        let mut f = uu_ir::Function::new(
            "amb",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit1 = b.create_block();
        let exit2 = b.create_block();
        let join = b.create_block();
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit1);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.cond_br(Value::Arg(1), h, exit2);
        b.switch_to(exit1);
        b.br(join);
        b.switch_to(exit2);
        b.br(join);
        b.switch_to(join);
        // Use `i` here: dominated by neither exit alone.
        let r = b.add(i, Value::imm(0i64));
        b.ret(Some(r));
        // NB: `i` does not dominate join through exit2's path... actually it
        // does dominate (header dominates everything); the *exit phis* are
        // what cannot be assigned uniquely.
        uu_ir::verify_function(&f).unwrap();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let l = forest.get(LoopId(0)).clone();
        let got = canonicalize_loop(&mut f, l.header, &l.blocks, &l.latches);
        assert!(got.is_none(), "ambiguous live-out must decline");
    }

    /// The reference [`rewrite_lcssa`] must agree with: one scan of the
    /// layout per loop definition, at the definition's turn.
    fn rewrite_lcssa_per_def(f: &mut Function, cl: &CanonicalLoop) -> bool {
        let dom = DomTree::compute(f);
        let loop_set: HashSet<BlockId> = cl.blocks.iter().copied().collect();
        // Collect values defined inside the loop.
        let mut defs: Vec<(InstId, BlockId)> = Vec::new();
        for &b in &cl.blocks {
            for &i in &f.block(b).insts {
                if f.inst(i).ty != Type::Void {
                    defs.push((i, b));
                }
            }
        }
        let preds = f.predecessors();
        for (def, def_block) in defs {
            // Find outside uses: (user inst, block where the use "happens").
            let mut outside_uses: Vec<(InstId, BlockId, Option<BlockId>)> = Vec::new();
            for &ub in f.layout() {
                if loop_set.contains(&ub) {
                    continue;
                }
                for &u in &f.block(ub).insts {
                    match &f.inst(u).kind {
                        InstKind::Phi { incomings } => {
                            for (p, v) in incomings {
                                if *v == Value::Inst(def) && !loop_set.contains(p) {
                                    outside_uses.push((u, *p, Some(*p)));
                                }
                            }
                        }
                        k => {
                            let mut used = false;
                            k.for_each_operand(|v| {
                                if *v == Value::Inst(def) {
                                    used = true;
                                }
                            });
                            if used {
                                outside_uses.push((u, ub, None));
                            }
                        }
                    }
                }
            }
            if outside_uses.is_empty() {
                continue;
            }
            // Insert exit phis where the def is available.
            let ty = f.inst(def).ty;
            let mut exit_phis: Vec<(BlockId, InstId)> = Vec::new();
            for &x in &cl.exits {
                let in_preds: Vec<BlockId> = preds[x.index()]
                    .iter()
                    .copied()
                    .filter(|p| loop_set.contains(p))
                    .collect();
                if in_preds.is_empty() {
                    continue;
                }
                if !in_preds.iter().all(|p| dom.dominates(def_block, *p)) {
                    continue;
                }
                // Reuse an existing LCSSA phi for this def if present.
                let existing = f.phis(x).into_iter().find(|&p| {
                    matches!(&f.inst(p).kind, InstKind::Phi { incomings }
                        if incomings.iter().all(|(_, v)| *v == Value::Inst(def)))
                });
                let phi = match existing {
                    Some(p) => p,
                    None => {
                        let incomings = in_preds.iter().map(|p| (*p, Value::Inst(def))).collect();
                        f.prepend_inst(x, Inst::new(InstKind::Phi { incomings }, ty))
                    }
                };
                exit_phis.push((x, phi));
            }
            // Rewrite each outside use to the deepest dominating exit phi.
            for (user, use_block, phi_pred) in outside_uses {
                // Skip the exit phis we just created.
                if exit_phis.iter().any(|(_, p)| *p == user) {
                    continue;
                }
                let mut candidates: Vec<BlockId> = exit_phis
                    .iter()
                    .map(|(x, _)| *x)
                    .filter(|x| dom.dominates(*x, use_block))
                    .collect();
                if candidates.is_empty() {
                    return false;
                }
                // Deepest = dominated by all the others.
                candidates.sort_by(|a, b| {
                    if dom.dominates(*a, *b) {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                });
                let chosen = *candidates.last().unwrap();
                if !candidates.iter().all(|c| dom.dominates(*c, chosen)) {
                    return false;
                }
                let phi = exit_phis.iter().find(|(x, _)| *x == chosen).unwrap().1;
                match phi_pred {
                    Some(pp) => {
                        if let InstKind::Phi { incomings } = &mut f.inst_mut(user).kind {
                            for (p, v) in incomings {
                                if *p == pp && *v == Value::Inst(def) {
                                    *v = Value::Inst(phi);
                                }
                            }
                        }
                    }
                    None => {
                        let mut kind = f.inst(user).kind.clone();
                        kind.for_each_operand_mut(|v| {
                            if *v == Value::Inst(def) {
                                *v = Value::Inst(phi);
                            }
                        });
                        f.inst_mut(user).kind = kind;
                    }
                }
            }
        }
        true
    }

    /// Canonicalise each loop of `f`, each on its own copy, once with
    /// [`canonicalize_loop`] and once with the reference LCSSA rewrite:
    /// the whole functions, unlinked arena slots included, and the verdicts
    /// must be equal. Returns how many loops the rewrite changed.
    fn assert_lcssa_agrees(f: &Function, label: &str) -> usize {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        let mut rewritten = 0;
        for l in forest.loops() {
            let mut got = f.clone();
            let cl = canonicalize_loop(&mut got, l.header, &l.blocks, &l.latches);
            let mut want = f.clone();
            let shape = canonical_shape(&mut want, l.header, &l.blocks, &l.latches);
            let shaped = want.clone();
            let ok = rewrite_lcssa_per_def(&mut want, &shape);
            assert!(
                got == want && cl.is_some() == ok,
                "{label}, loop at {}: one scan and one scan per definition differ\n\
                 one scan:\n{got}\nper definition:\n{want}",
                l.header
            );
            rewritten += (want != shaped) as usize;
        }
        rewritten
    }

    #[test]
    fn one_scan_lcssa_matches_the_per_definition_scan() {
        use uu_check::{build_kernel, check, corpus::load_corpus, Config, KernelSpec};
        let mut rewritten = 0;
        for (name, spec) in load_corpus() {
            rewritten += assert_lcssa_agrees(&build_kernel(&spec), &name);
        }
        for bench in uu_kernels::all_benchmarks() {
            for (_, f) in (bench.build)().iter() {
                rewritten += assert_lcssa_agrees(f, bench.info.name);
            }
        }
        let generated = std::sync::atomic::AtomicUsize::new(0);
        check(
            "one_scan_lcssa_matches_the_per_definition_scan",
            &Config::from_env(64),
            |spec: &KernelSpec| {
                let n = assert_lcssa_agrees(&build_kernel(spec), "generated kernel");
                generated.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            },
        );
        assert!(rewritten > 0, "no bundled or corpus loop had a live-out to rewrite");
        assert!(generated.into_inner() > 0, "no generated loop had a live-out to rewrite");
    }

    use uu_ir::Value;
}
