//! Control-flow graph traversals and edge classification.

use uu_ir::{BlockId, Function, InstKind};

/// Blocks in reverse post-order from the entry.
///
/// Reverse post-order visits every block before its successors except along
/// back edges, the canonical iteration order for forward dataflow.
pub fn reverse_post_order(f: &Function) -> Vec<BlockId> {
    // Both buffers hold at most the layout's blocks: sized once.
    let mut post = Vec::with_capacity(f.num_blocks());
    let mut state = vec![0u8; f.layout().iter().map(|b| b.index() + 1).max().unwrap_or(0)];
    // Iterative DFS with an explicit stack of (block, next-successor-index).
    let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(f.num_blocks());
    stack.push((f.entry(), 0));
    state[f.entry().index()] = 1;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let succs = f.successors(b);
        if *next < succs.len() {
            let s = succs[*next];
            *next += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Post-order from the entry (the reverse of [`reverse_post_order`]).
pub fn post_order(f: &Function) -> Vec<BlockId> {
    let mut rpo = reverse_post_order(f);
    rpo.reverse();
    rpo
}

/// The terminator targets of `b`, without allocating.
fn targets(f: &Function, b: BlockId) -> impl Iterator<Item = BlockId> {
    let (a, c) = match f.terminator(b).map(|t| &f.inst(t).kind) {
        Some(InstKind::Br { target }) => (Some(*target), None),
        Some(InstKind::CondBr {
            if_true, if_false, ..
        }) => (Some(*if_true), Some(*if_false)),
        _ => (None, None),
    };
    a.into_iter().chain(c)
}

/// Reachability as bitset rows of `nblocks.div_ceil(64)` words: row `b`
/// holds every block reachable from `b` along terminator edges, `b`
/// included, for every block reachable from a linked one (through unlinked
/// blocks too). Rows are unioned over successors in depth-first post-order
/// until nothing changes: on a reducible CFG, about one pass per
/// loop-nesting level, plus the pass that confirms.
pub(crate) fn reach_rows(f: &Function, nblocks: usize) -> Vec<u64> {
    let words = nblocks.div_ceil(64);
    let mut post = Vec::new();
    let mut seen = vec![false; nblocks];
    let mut stack: Vec<(BlockId, usize)> = Vec::new();
    for &root in f.layout() {
        if std::mem::replace(&mut seen[root.index()], true) {
            continue;
        }
        stack.push((root, 0));
        while let Some((b, next)) = stack.last_mut() {
            let succ = targets(f, *b).nth(*next);
            *next += 1;
            match succ {
                Some(s) if !std::mem::replace(&mut seen[s.index()], true) => stack.push((s, 0)),
                Some(_) => {}
                None => {
                    post.push(*b);
                    stack.pop();
                }
            }
        }
    }
    let mut rows = vec![0u64; nblocks * words];
    for &b in &post {
        rows[b.index() * words + b.index() / 64] |= 1 << (b.index() % 64);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &post {
            let row = b.index() * words;
            for s in targets(f, b) {
                let from = s.index() * words;
                for k in 0..words {
                    let new = rows[from + k] & !rows[row + k];
                    rows[row + k] |= new;
                    changed |= new != 0;
                }
            }
        }
    }
    rows
}

/// An edge `from → to` in the CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
}

/// Back edges of the CFG: edges `a → b` where `b` is an ancestor of `a` on
/// the DFS spanning tree (equivalently, for reducible CFGs, where `b`
/// dominates `a`).
///
/// Uses the dominance definition, so it identifies exactly the natural-loop
/// back edges on reducible graphs — the only kind the transforms accept.
pub fn back_edges(f: &Function, dom: &crate::DomTree) -> Vec<Edge> {
    let mut out = Vec::new();
    for &b in f.layout() {
        for s in f.successors(b) {
            if dom.dominates(s, b) {
                out.push(Edge { from: b, to: s });
            }
        }
    }
    out
}

/// Whether the CFG is reducible: every retreating edge (w.r.t. a DFS) is a
/// back edge to a dominator. GPU kernels compiled from structured C/CUDA are
/// reducible; the u&u transforms refuse irreducible regions.
pub fn is_reducible(f: &Function, dom: &crate::DomTree) -> bool {
    // Compute DFS numbers.
    let rpo = reverse_post_order(f);
    let mut order = vec![usize::MAX; rpo.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
    for (i, b) in rpo.iter().enumerate() {
        order[b.index()] = i;
    }
    for &b in &rpo {
        for s in f.successors(b) {
            // Retreating edge: target earlier in RPO.
            if order[s.index()] <= order[b.index()] && !dom.dominates(s, b) {
                return false;
            }
        }
    }
    true
}

/// Split the critical edge `from → to` (or any edge) by inserting a fresh
/// block containing a single unconditional branch, updating phi incomings in
/// `to`. Returns the new block.
///
/// # Panics
///
/// Panics if there is no `from → to` edge.
pub fn split_edge(f: &mut Function, from: BlockId, to: BlockId) -> BlockId {
    assert!(
        f.successors(from).contains(&to),
        "split_edge: no edge {from} -> {to}"
    );
    let mid = f.add_block();
    // Retarget the terminator of `from`.
    let term = f.terminator(from).expect("source block has a terminator");
    f.inst_mut(term).kind.replace_block(to, mid);
    // The new block branches to `to`.
    f.append_inst(
        mid,
        uu_ir::Inst::new(uu_ir::InstKind::Br { target: to }, uu_ir::Type::Void),
    );
    // Phis in `to` now flow through `mid`.
    for k in 0..f.phis(to).len() {
        let phi = f.block(to).insts[k];
        if let uu_ir::InstKind::Phi { incomings } = &mut f.inst_mut(phi).kind {
            for (p, _) in incomings.iter_mut() {
                if *p == from {
                    *p = mid;
                }
            }
        }
    }
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomTree;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    fn diamond() -> uu_ir::Function {
        let mut f = uu_ir::Function::new("d", vec![Param::new("c", Type::I1)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        b.switch_to(entry);
        b.cond_br(Value::Arg(0), t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I64);
        b.add_phi_incoming(p, t, Value::imm(1i64));
        b.add_phi_incoming(p, e, Value::imm(2i64));
        b.ret(Some(p));
        f
    }

    fn looped() -> uu_ir::Function {
        let mut f = uu_ir::Function::new("l", vec![Param::new("n", Type::I64)], Type::I64);
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
        b.ret(Some(i));
        f
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let f = diamond();
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry());
        // join must come after both arms
        let pos = |b: BlockId| rpo.iter().position(|x| *x == b).unwrap();
        assert!(pos(BlockId::from_index(3)) > pos(BlockId::from_index(1)));
        assert!(pos(BlockId::from_index(3)) > pos(BlockId::from_index(2)));
    }

    #[test]
    fn post_order_is_reverse() {
        let f = diamond();
        let mut po = post_order(&f);
        po.reverse();
        assert_eq!(po, reverse_post_order(&f));
    }

    #[test]
    fn finds_back_edge() {
        let f = looped();
        let dom = DomTree::compute(&f);
        let be = back_edges(&f, &dom);
        assert_eq!(be.len(), 1);
        assert_eq!(be[0].to, BlockId::from_index(1));
        assert_eq!(be[0].from, BlockId::from_index(2));
        assert!(is_reducible(&f, &dom));
    }

    #[test]
    fn diamond_has_no_back_edges() {
        let f = diamond();
        let dom = DomTree::compute(&f);
        assert!(back_edges(&f, &dom).is_empty());
        assert!(is_reducible(&f, &dom));
    }

    #[test]
    fn irreducible_cfg_detected() {
        // entry branches into both halves of a 2-node cycle: neither node
        // dominates the other, so the retreating edge is not a back edge.
        let mut f = uu_ir::Function::new("irr", vec![Param::new("c", Type::I1)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let x = b.create_block();
        let y = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.cond_br(Value::Arg(0), x, y);
        b.switch_to(x);
        b.cond_br(Value::Arg(0), y, exit);
        b.switch_to(y);
        b.cond_br(Value::Arg(0), x, exit);
        b.switch_to(exit);
        b.ret(None);
        let dom = DomTree::compute(&f);
        assert!(!is_reducible(&f, &dom));
        // And no natural loop is reported for the irreducible cycle.
        let forest = crate::LoopForest::compute(&f, &dom);
        assert!(forest.is_empty());
    }

    #[test]
    fn split_edge_updates_phis() {
        let mut f = diamond();
        let t = BlockId::from_index(1);
        let j = BlockId::from_index(3);
        let mid = split_edge(&mut f, t, j);
        uu_ir::verify_function(&f).unwrap();
        assert_eq!(*f.successors(t), [mid]);
        assert_eq!(*f.successors(mid), [j]);
    }
}
