//! Dominator-scoped value numbering with redundant-load elimination.
//!
//! An EarlyCSE-style pass: walk the dominator tree with scoped hash tables,
//! value-number pure expressions, and eliminate redundant loads with
//! store-to-load forwarding. The memory state is tracked with per-*root*
//! generation counters, where a root is either a `__restrict__` pointer
//! parameter or the catch-all "other" — a store through one restrict
//! pointer cannot invalidate loads through another (C `restrict`
//! semantics), which is precisely what the paper's rainflow analysis (§V)
//! relies on to delete `x[i]`/`y[j]` re-loads.
//!
//! Soundness at joins and loop headers: on entering a dominator-tree child
//! whose CFG predecessors have not all been traversed yet (a loop header via
//! its latch, or a join reached out of order), all generations are bumped —
//! memory facts do not flow across untraversed paths. This conservatism is
//! exactly why *unrolling + unmerging* helps: the duplicated next-iteration
//! body is dominated by the current path, so cross-iteration redundancies
//! become ordinary dominator-scoped ones.

use super::{Pass, Substitution};
use std::collections::HashMap;
use uu_analysis::{AnalysisCache, DomTree};
use uu_ir::{
    BinOp, BlockId, CastOp, EntitySet, FCmpPred, Function, ICmpPred, InstKind, Intrinsic, Preds,
    Type, Value,
};

/// The GVN / load-elimination pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gvn;

impl Pass for Gvn {
    fn name(&self) -> &'static str {
        "gvn"
    }

    fn run(&mut self, f: &mut Function) -> bool {
        self.run_with(f, &mut AnalysisCache::new())
    }

    // Only rewrites and removes non-terminator instructions.
    fn preserves_cfg(&self) -> bool {
        true
    }

    fn run_with(&mut self, f: &mut Function, cache: &mut AnalysisCache) -> bool {
        let dom = cache.dominators(f);
        // One predecessor map for the whole walk: GVN never changes the
        // CFG, so it stays valid across every replacement below.
        let preds = f.predecessors();
        let mut cse = Cse::new(f);
        cse.visit(f, &dom, &preds, f.entry());
        // Every replacement in one use-rewrite sweep.
        cse.subst.apply(f)
    }
}

/// Canonical key for a pure expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Bin(BinOp, Value, Value),
    AddChain(Vec<Value>),
    ICmp(ICmpPred, Value, Value),
    FCmp(FCmpPred, Value, Value),
    Select(Value, Value, Value),
    Cast(CastOp, Value, Type),
    Gep(Value, Value, u64),
    Intr(Intrinsic, Vec<Value>),
}

fn expr_key(f: &Function, subst: &Substitution, inst: &uu_ir::Inst) -> Option<ExprKey> {
    match &inst.kind {
        InstKind::Bin {
            op: op @ BinOp::Add,
            lhs,
            rhs,
        } if !inst.ty.is_float() => {
            // Flatten nested integer adds into a sorted leaf multiset so
            // `(base + i) + 1` and `base + (i + 1)` value-number together —
            // the reassociation behind the paper's rainflow cross-iteration
            // load elimination (`x[i+1]` becoming the next `x[i]`).
            let _ = op;
            let mut leaves = Vec::new();
            flatten_add_operands(f, subst, *lhs, *rhs, &mut leaves, 0);
            leaves.sort();
            Some(ExprKey::AddChain(leaves))
        }
        InstKind::Bin { op, lhs, rhs } => {
            let (a, b) = if op.is_commutative() && lhs > rhs {
                (*rhs, *lhs)
            } else {
                (*lhs, *rhs)
            };
            Some(ExprKey::Bin(*op, a, b))
        }
        InstKind::ICmp { pred, lhs, rhs } => Some(ExprKey::ICmp(*pred, *lhs, *rhs)),
        InstKind::FCmp { pred, lhs, rhs } => Some(ExprKey::FCmp(*pred, *lhs, *rhs)),
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => Some(ExprKey::Select(*cond, *on_true, *on_false)),
        InstKind::Cast { op, value } => Some(ExprKey::Cast(*op, *value, inst.ty)),
        InstKind::Gep { base, index, scale } => Some(ExprKey::Gep(*base, *index, *scale)),
        InstKind::Intr { which, args } => {
            if which.is_convergent() || which.is_thread_id() {
                // thread.idx is pure *per thread*, and CSE-ing it is fine,
                // but geometry reads are cheap; still, CSE them for
                // cleanliness. Convergent ops are never keyed.
                if which.is_convergent() {
                    return None;
                }
            }
            Some(ExprKey::Intr(*which, args.clone()))
        }
        _ => None,
    }
}

/// Collect the leaves of an integer-add tree (bounded depth), treating any
/// non-add value as a leaf. Nested operands are read through `subst`.
fn flatten_add_operands(
    f: &Function,
    subst: &Substitution,
    lhs: Value,
    rhs: Value,
    leaves: &mut Vec<Value>,
    depth: u32,
) {
    for v in [lhs, rhs] {
        let mut pushed = false;
        if depth < 4 {
            if let Value::Inst(id) = v {
                if let InstKind::Bin {
                    op: BinOp::Add,
                    lhs: a,
                    rhs: b,
                } = f.inst(id).kind
                {
                    if !f.inst(id).ty.is_float() {
                        let (a, b) = (subst.resolve(a), subst.resolve(b));
                        flatten_add_operands(f, subst, a, b, leaves, depth + 1);
                        pushed = true;
                    }
                }
            }
        }
        if !pushed {
            leaves.push(v);
        }
    }
}

/// Memory root for alias reasoning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Root {
    /// Based on a `__restrict__` pointer parameter.
    Restrict(u32),
    /// Anything else — mutually may-alias.
    Other,
}

/// Trace an address back to its root, reading operands through `subst`.
fn root_of(f: &Function, subst: &Substitution, mut addr: Value) -> Root {
    loop {
        match addr {
            Value::Arg(i) => {
                let p = &f.params()[i as usize];
                return if p.restrict && p.ty == Type::Ptr {
                    Root::Restrict(i)
                } else {
                    Root::Other
                };
            }
            Value::Inst(id) => match &f.inst(id).kind {
                InstKind::Gep { base, .. } => addr = subst.resolve(*base),
                InstKind::Cast {
                    op: CastOp::IntToPtr | CastOp::PtrToInt,
                    value,
                } => addr = subst.resolve(*value),
                // Integer pointer arithmetic: `p + k` is based on `p`.
                InstKind::Bin {
                    op: BinOp::Add | BinOp::Sub,
                    lhs,
                    rhs,
                } => {
                    // Follow the operand that leads to a pointer; constants
                    // and plain indices are offsets.
                    if rhs.is_const() {
                        addr = subst.resolve(*lhs);
                    } else if lhs.is_const() {
                        addr = subst.resolve(*rhs);
                    } else {
                        return Root::Other;
                    }
                }
                _ => return Root::Other,
            },
            Value::Const(_) => return Root::Other,
        }
    }
}

/// Hash map with scope-structured undo for insertions.
#[derive(Debug)]
struct ScopedMap<K, V> {
    map: HashMap<K, V>,
    log: Vec<(K, Option<V>)>,
    marks: Vec<usize>,
}

impl<K, V> Default for ScopedMap<K, V> {
    fn default() -> Self {
        ScopedMap {
            map: HashMap::new(),
            log: Vec::new(),
            marks: Vec::new(),
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> ScopedMap<K, V> {
    fn push_scope(&mut self) {
        self.marks.push(self.log.len());
    }

    fn pop_scope(&mut self) {
        let mark = self.marks.pop().expect("scope underflow");
        while self.log.len() > mark {
            let (k, old) = self.log.pop().unwrap();
            match old {
                Some(v) => {
                    self.map.insert(k, v);
                }
                None => {
                    self.map.remove(&k);
                }
            }
        }
    }

    fn insert(&mut self, k: K, v: V) {
        let old = self.map.insert(k.clone(), v);
        self.log.push((k, old));
    }

    fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }
}

#[derive(Debug, Clone, Copy)]
struct LoadEntry {
    value: Value,
    root: Root,
    gen: u64,
    all_gen: u64,
}

struct Cse {
    exprs: ScopedMap<ExprKey, Value>,
    loads: ScopedMap<Value, LoadEntry>,
    /// Per-root store generation, densely indexed: slot `i` for
    /// `Root::Restrict(i)`, the last slot for `Root::Other`.
    gens: Vec<u64>,
    all_gen: u64,
    traversed: EntitySet<BlockId>,
    /// The replacements made so far, applied when the walk ends.
    subst: Substitution,
}

impl Cse {
    fn new(f: &Function) -> Self {
        Cse {
            exprs: ScopedMap::default(),
            loads: ScopedMap::default(),
            gens: vec![0; f.params().len() + 1],
            all_gen: 0,
            traversed: EntitySet::new(),
            subst: Substitution::default(),
        }
    }

    fn slot(&self, r: Root) -> usize {
        match r {
            Root::Restrict(i) => i as usize,
            Root::Other => self.gens.len() - 1,
        }
    }

    fn gen_of(&self, r: Root) -> u64 {
        self.gens[self.slot(r)]
    }

    fn bump(&mut self, r: Root) {
        let s = self.slot(r);
        self.gens[s] += 1;
    }

    fn bump_all(&mut self) {
        self.all_gen += 1;
    }

    fn entry_valid(&self, e: &LoadEntry) -> bool {
        e.gen == self.gen_of(e.root) && e.all_gen == self.all_gen
    }

    fn visit(&mut self, f: &mut Function, dom: &DomTree, preds: &Preds, b: BlockId) {
        self.traversed.insert(b);
        // Memory facts cannot flow across untraversed predecessors (loop
        // latches, out-of-order joins).
        if preds[b.index()]
            .iter()
            .any(|&p| !self.traversed.contains(p))
        {
            self.bump_all();
        }
        self.exprs.push_scope();
        self.loads.push_scope();

        let insts = f.block(b).insts.clone();
        let mut kept = Vec::with_capacity(insts.len());
        for &id in &insts {
            // Operands as the replacements so far have left them.
            self.subst.refresh(f, id);
            let inst = f.inst(id);
            match &inst.kind {
                InstKind::Phi { .. } => {}
                InstKind::Load { ptr } => {
                    let root = root_of(f, &self.subst, *ptr);
                    if let Some(e) = self.loads.get(ptr).copied() {
                        if self.entry_valid(&e) && f.value_type(e.value) == inst.ty {
                            self.subst.record(id, e.value);
                            continue;
                        }
                    }
                    self.loads.insert(
                        *ptr,
                        LoadEntry {
                            value: Value::Inst(id),
                            root,
                            gen: self.gen_of(root),
                            all_gen: self.all_gen,
                        },
                    );
                }
                InstKind::Store { ptr, value } => {
                    let root = root_of(f, &self.subst, *ptr);
                    match root {
                        Root::Restrict(_) => self.bump(root),
                        // A store through a pointer we cannot trace may be
                        // *based on* a restrict pointer via integer
                        // arithmetic (legal C), so it must invalidate every
                        // root, not just Other.
                        Root::Other => self.bump_all(),
                    }
                    // Store-to-load forwarding.
                    self.loads.insert(
                        *ptr,
                        LoadEntry {
                            value: *value,
                            root,
                            gen: self.gen_of(root),
                            all_gen: self.all_gen,
                        },
                    );
                }
                InstKind::Intr { which, .. } if which.is_convergent() => {
                    self.bump_all();
                }
                _ => {
                    if let Some(key) = expr_key(f, &self.subst, inst) {
                        if let Some(&existing) = self.exprs.get(&key) {
                            self.subst.record(id, existing);
                            continue;
                        }
                        self.exprs.insert(key, Value::Inst(id));
                    }
                }
            }
            kept.push(id);
        }
        // Replaced instructions leave the block in one pass.
        if kept.len() != insts.len() {
            f.block_mut(b).insts = kept;
        }

        // Recurse into dominator children; the dominator tree's child
        // lists are already in RPO order.
        for &c in dom.children(b) {
            self.visit(f, dom, preds, c);
        }
        self.exprs.pop_scope();
        self.loads.pop_scope();
    }
}

/// GVN as it ran before its replacements were batched: one arena-wide
/// `replace_all_uses` sweep and one unlink per replacement. The reference
/// the batched pass must reproduce bit for bit.
#[cfg(test)]
pub(crate) fn run_per_replacement(f: &mut Function) -> bool {
    let dom = DomTree::compute(f);
    let preds = f.predecessors();
    Cse::new(f).visit_per_replacement(f, &dom, &preds, f.entry())
}

#[cfg(test)]
impl Cse {
    fn visit_per_replacement(
        &mut self,
        f: &mut Function,
        dom: &DomTree,
        preds: &Preds,
        b: BlockId,
    ) -> bool {
        let mut changed = false;
        self.traversed.insert(b);
        if preds[b.index()]
            .iter()
            .any(|&p| !self.traversed.contains(p))
        {
            self.bump_all();
        }
        self.exprs.push_scope();
        self.loads.push_scope();
        // `self.subst` stays empty: operands are read as the arena holds them.
        for id in f.block(b).insts.clone() {
            let inst = f.inst(id).clone();
            match &inst.kind {
                InstKind::Phi { .. } => {}
                InstKind::Load { ptr } => {
                    let root = root_of(f, &self.subst, *ptr);
                    if let Some(e) = self.loads.get(ptr).copied() {
                        if self.entry_valid(&e) && f.value_type(e.value) == inst.ty {
                            f.replace_all_uses(Value::Inst(id), e.value);
                            f.unlink_inst(b, id);
                            changed = true;
                            continue;
                        }
                    }
                    let entry = LoadEntry {
                        value: Value::Inst(id),
                        root,
                        gen: self.gen_of(root),
                        all_gen: self.all_gen,
                    };
                    self.loads.insert(*ptr, entry);
                }
                InstKind::Store { ptr, value } => {
                    let root = root_of(f, &self.subst, *ptr);
                    match root {
                        Root::Restrict(_) => self.bump(root),
                        Root::Other => self.bump_all(),
                    }
                    let entry = LoadEntry {
                        value: *value,
                        root,
                        gen: self.gen_of(root),
                        all_gen: self.all_gen,
                    };
                    self.loads.insert(*ptr, entry);
                }
                InstKind::Intr { which, .. } if which.is_convergent() => {
                    self.bump_all();
                }
                _ => {
                    if let Some(key) = expr_key(f, &self.subst, &inst) {
                        if let Some(&existing) = self.exprs.get(&key) {
                            f.replace_all_uses(Value::Inst(id), existing);
                            f.unlink_inst(b, id);
                            changed = true;
                        } else {
                            self.exprs.insert(key, Value::Inst(id));
                        }
                    }
                }
            }
        }
        for &c in dom.children(b) {
            changed |= self.visit_per_replacement(f, dom, preds, c);
        }
        self.exprs.pop_scope();
        self.loads.pop_scope();
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, Param};

    #[test]
    fn cses_identical_expressions() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("x", Type::I64), Param::new("p", Type::Ptr)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let a1 = b.add(Value::Arg(0), Value::imm(1i64));
        let a2 = b.add(Value::Arg(0), Value::imm(1i64));
        let s = b.mul(a1, a2);
        b.store(Value::Arg(1), s);
        b.ret(None);
        assert!(Gvn.run(&mut f));
        uu_ir::verify_function(&f).unwrap();
        // One add remains; mul squares it.
        let adds = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn add_chains_value_number_across_association() {
        // (base + i) + 1  ≡  base + (i + 1)
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::new("base", Type::I64),
                Param::new("i", Type::I64),
                Param::new("p", Type::Ptr),
            ],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let bi = b.add(Value::Arg(0), Value::Arg(1));
        let a1 = b.add(bi, Value::imm(1i64));
        let i1 = b.add(Value::Arg(1), Value::imm(1i64));
        let a2 = b.add(Value::Arg(0), i1);
        let s = b.mul(a1, a2);
        b.store(Value::Arg(2), s);
        b.ret(None);
        assert!(Gvn.run(&mut f));
        uu_ir::verify_function(&f).unwrap();
        // a2 must be replaced by a1; the mul squares one value.
        let muls: Vec<_> = f
            .iter_insts()
            .filter_map(|(_, i)| match i.kind {
                InstKind::Bin {
                    op: BinOp::Mul,
                    lhs,
                    rhs,
                } => Some((lhs, rhs)),
                _ => None,
            })
            .collect();
        assert_eq!(muls.len(), 1);
        assert_eq!(muls[0].0, muls[0].1, "{f}");
    }

    #[test]
    fn commutative_canonicalization() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::new("x", Type::I64),
                Param::new("y", Type::I64),
                Param::new("p", Type::Ptr),
            ],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let a1 = b.add(Value::Arg(0), Value::Arg(1));
        let a2 = b.add(Value::Arg(1), Value::Arg(0));
        let s = b.mul(a1, a2);
        b.store(Value::Arg(2), s);
        b.ret(None);
        assert!(Gvn.run(&mut f));
        let adds = f
            .iter_insts()
            .filter(|(_, i)| matches!(i.kind, InstKind::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn load_load_elimination_same_address() {
        let mut f = uu_ir::Function::new("t", vec![Param::new("p", Type::Ptr)], Type::F64);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let x1 = b.load(Type::F64, Value::Arg(0));
        let x2 = b.load(Type::F64, Value::Arg(0));
        let s = b.fadd(x1, x2);
        b.ret(Some(s));
        assert!(Gvn.run(&mut f));
        let loads = f.iter_insts().filter(|(_, i)| i.kind.reads_memory()).count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn store_blocks_load_reuse_without_restrict() {
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("p", Type::Ptr), Param::new("q", Type::Ptr)],
            Type::F64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let x1 = b.load(Type::F64, Value::Arg(0));
        b.store(Value::Arg(1), Value::imm(0.0f64)); // may alias p
        let x2 = b.load(Type::F64, Value::Arg(0));
        let s = b.fadd(x1, x2);
        b.ret(Some(s));
        Gvn.run(&mut f);
        let loads = f.iter_insts().filter(|(_, i)| i.kind.reads_memory()).count();
        assert_eq!(loads, 2, "non-restrict store must kill the reuse");
    }

    #[test]
    fn restrict_store_does_not_block_reuse() {
        // The rainflow situation: x and y are __restrict__; a store through
        // y must not invalidate loads through x.
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::restrict("x", Type::Ptr),
                Param::restrict("y", Type::Ptr),
            ],
            Type::F64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let x1 = b.load(Type::F64, Value::Arg(0));
        b.store(Value::Arg(1), Value::imm(0.0f64));
        let x2 = b.load(Type::F64, Value::Arg(0));
        let s = b.fadd(x1, x2);
        b.ret(Some(s));
        assert!(Gvn.run(&mut f));
        let loads = f.iter_insts().filter(|(_, i)| i.kind.reads_memory()).count();
        assert_eq!(loads, 1, "restrict store must not kill the reuse");
    }

    #[test]
    fn integer_pointer_arithmetic_invalidates_restrict_roots() {
        // Store through ptrtoint(x)+8 must kill reuse of loads from the
        // restrict arg x (the pointer is *based on* x via integer math).
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::restrict("x", Type::Ptr)],
            Type::F64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let x1 = b.load(Type::F64, Value::Arg(0));
        let pi = b.cast(CastOp::PtrToInt, Value::Arg(0), Type::I64);
        let q = b.add(pi, Value::imm(8i64));
        let qp = b.cast(CastOp::IntToPtr, q, Type::Ptr);
        b.store(qp, Value::imm(0.0f64));
        let x2 = b.load(Type::F64, Value::Arg(0));
        let s = b.fadd(x1, x2);
        b.ret(Some(s));
        Gvn.run(&mut f);
        let loads = f.iter_insts().filter(|(_, i)| i.kind.reads_memory()).count();
        // root_of traces q back to x, so the store bumps Restrict(x): the
        // second load must survive.
        assert_eq!(loads, 2, "{f}");
    }

    #[test]
    fn untraceable_store_invalidates_everything() {
        // A store through the sum of two non-constant values cannot be
        // traced; it must invalidate even restrict roots.
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::restrict("x", Type::Ptr),
                Param::new("a", Type::I64),
                Param::new("b", Type::I64),
            ],
            Type::F64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        let x1 = b.load(Type::F64, Value::Arg(0));
        let q = b.add(Value::Arg(1), Value::Arg(2));
        b.store(q, Value::imm(0.0f64));
        let x2 = b.load(Type::F64, Value::Arg(0));
        let s = b.fadd(x1, x2);
        b.ret(Some(s));
        Gvn.run(&mut f);
        let loads = f.iter_insts().filter(|(_, i)| i.kind.reads_memory()).count();
        assert_eq!(loads, 2, "{f}");
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut f = uu_ir::Function::new("t", vec![Param::new("p", Type::Ptr)], Type::F64);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(e);
        b.store(Value::Arg(0), Value::imm(3.5f64));
        let x = b.load(Type::F64, Value::Arg(0));
        b.ret(Some(x));
        assert!(Gvn.run(&mut f));
        let term = f.terminator(e).unwrap();
        match &f.inst(term).kind {
            InstKind::Ret { value } => assert_eq!(value.unwrap().as_const().unwrap().as_f64(), Some(3.5)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn reuse_across_dominated_diamond_join() {
        // load before a store-free diamond is reusable at the join.
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("p", Type::Ptr), Param::new("c", Type::I1)],
            Type::F64,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let el = b.create_block();
        let j = b.create_block();
        b.switch_to(e);
        let x1 = b.load(Type::F64, Value::Arg(0));
        b.cond_br(Value::Arg(1), t, el);
        b.switch_to(t);
        b.br(j);
        b.switch_to(el);
        b.br(j);
        b.switch_to(j);
        let x2 = b.load(Type::F64, Value::Arg(0));
        let s = b.fadd(x1, x2);
        b.ret(Some(s));
        assert!(Gvn.run(&mut f));
        let loads = f.iter_insts().filter(|(_, i)| i.kind.reads_memory()).count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn no_reuse_across_loop_header() {
        // A load before a loop must not be forwarded into the loop body if
        // the body stores to a may-aliasing location.
        let mut f = uu_ir::Function::new(
            "t",
            vec![Param::new("p", Type::Ptr), Param::new("n", Type::I64)],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(e);
        let _x1 = b.load(Type::F64, Value::Arg(0));
        b.br(h);
        b.switch_to(h);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, e, Value::imm(0i64));
        let x2 = b.load(Type::F64, Value::Arg(0)); // must stay
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(1));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let y = b.fadd(x2, Value::imm(1.0f64));
        b.store(Value::Arg(0), y);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        Gvn.run(&mut f);
        uu_ir::verify_function(&f).unwrap();
        let loads: Vec<_> = f
            .iter_insts()
            .filter(|(_, i)| i.kind.reads_memory())
            .map(|(id, _)| id)
            .collect();
        assert_eq!(loads.len(), 2, "header load must survive:\n{f}");
    }

    #[test]
    fn one_invocation_is_one_use_sweep() {
        // Over a hundred redundant adds and loads, in the entry and in a
        // block it dominates; batched, they cost one arena-wide sweep.
        let mut f = uu_ir::Function::new(
            "t",
            vec![
                Param::new("x", Type::I64),
                Param::new("p", Type::Ptr),
                Param::new("c", Type::I1),
            ],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let (t, j) = (b.create_block(), b.create_block());
        let redundant = |b: &mut FunctionBuilder, acc: Value| {
            let mut acc = acc;
            for _ in 0..20 {
                let a = b.add(Value::Arg(0), Value::imm(1i64));
                let l = b.load(Type::I64, Value::Arg(1));
                let s = b.add(a, l);
                acc = b.mul(acc, s);
            }
            acc
        };
        b.switch_to(e);
        let acc = redundant(&mut b, Value::Arg(0));
        b.cond_br(Value::Arg(2), t, j);
        b.switch_to(t);
        let acc = redundant(&mut b, acc);
        b.store(Value::Arg(1), acc);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        let mut reference = f.clone();
        let before = uu_ir::use_sweep_count();
        assert!(Gvn.run(&mut f));
        assert_eq!(uu_ir::use_sweep_count() - before, 1);
        uu_ir::verify_function(&f).unwrap();
        assert!(run_per_replacement(&mut reference));
        assert!(f == reference);
    }

    use uu_ir::ICmpPred;
}
