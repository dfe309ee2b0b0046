//! Dominator and post-dominator trees (Cooper–Harvey–Kennedy).

use crate::cfg::reverse_post_order;
use uu_ir::{BlockId, Function, Succs};

/// The dominator tree of a function's CFG.
///
/// Computed with the Cooper–Harvey–Kennedy "engineered" algorithm: iterate
/// `idom[b] = intersect(processed preds)` over reverse post-order until a
/// fixed point.
///
/// # Examples
///
/// ```
/// use uu_ir::{Function, FunctionBuilder, Param, Type, Value};
/// use uu_analysis::DomTree;
/// let mut f = Function::new("d", vec![Param::new("c", Type::I1)], Type::Void);
/// let entry = f.entry();
/// let mut b = FunctionBuilder::new(&mut f);
/// let t = b.create_block();
/// let j = b.create_block();
/// b.switch_to(entry);
/// b.cond_br(Value::Arg(0), t, j);
/// b.switch_to(t);
/// b.br(j);
/// b.switch_to(j);
/// b.ret(None);
/// let dom = DomTree::compute(&f);
/// assert!(dom.dominates(entry, j));
/// assert!(!dom.dominates(t, j));
/// ```
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b.index()]`: the immediate dominator, `None` for the entry and
    /// for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    /// RPO index per block (`usize::MAX` for unreachable blocks).
    order: Vec<usize>,
    /// Blocks in reverse post-order.
    rpo: Vec<BlockId>,
    /// Dominator-tree child adjacency in CSR form: the children of `b` are
    /// `kids[kid_start[b.index()]..kid_start[b.index() + 1]]`, in RPO order.
    kid_start: Vec<u32>,
    kids: Vec<BlockId>,
    entry: BlockId,
}

impl DomTree {
    /// Compute the dominator tree of `f`.
    pub fn compute(f: &Function) -> Self {
        let rpo = reverse_post_order(f);
        let preds = f.predecessors();
        Self::compute_from(f.entry(), &rpo, |b| &preds[b.index()])
    }

    /// Shared worklist core, parameterized over the predecessor function so
    /// the post-dominator computation can reuse it on the reversed CFG.
    /// `preds_of` must be cheap: it is called once per predecessor list per
    /// fixpoint iteration (hand it a slice of a precomputed map, never a
    /// closure that rebuilds the map).
    fn compute_from<'p>(
        entry: BlockId,
        rpo: &[BlockId],
        preds_of: impl Fn(BlockId) -> &'p [BlockId],
    ) -> Self {
        let max_ix = rpo.iter().map(|b| b.index() + 1).max().unwrap_or(1);
        let mut order = vec![usize::MAX; max_ix];
        for (i, b) in rpo.iter().enumerate() {
            order[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; max_ix];
        idom[entry.index()] = Some(entry);
        let intersect = |idom: &[Option<BlockId>], order: &[usize], mut a: BlockId, mut b: BlockId| {
            while a != b {
                while order[a.index()] > order[b.index()] {
                    a = idom[a.index()].unwrap();
                }
                while order[b.index()] > order[a.index()] {
                    b = idom[b.index()].unwrap();
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds_of(b) {
                    if p.index() >= max_ix || order[p.index()] == usize::MAX {
                        continue; // unreachable predecessor
                    }
                    if idom[p.index()].is_none() {
                        continue; // not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &order, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Entry's idom is conventionally None (it was set to itself for the
        // fixed point computation).
        idom[entry.index()] = None;
        // Child adjacency (CSR): count per parent, prefix-sum, then fill in
        // RPO order so each child list comes out RPO-sorted.
        let mut kid_start = vec![0u32; max_ix + 1];
        for &b in rpo {
            if let Some(p) = idom[b.index()] {
                kid_start[p.index() + 1] += 1;
            }
        }
        for i in 1..kid_start.len() {
            kid_start[i] += kid_start[i - 1];
        }
        let mut kids = vec![entry; kid_start[max_ix] as usize];
        let mut cursor = kid_start.clone();
        for &b in rpo {
            if let Some(p) = idom[b.index()] {
                kids[cursor[p.index()] as usize] = b;
                cursor[p.index()] += 1;
            }
        }
        DomTree {
            idom,
            order,
            rpo: rpo.to_vec(),
            kid_start,
            kids,
            entry,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    ///
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a.index() >= self.order.len()
            || b.index() >= self.order.len()
            || self.order[b.index()] == usize::MAX
            || self.order[a.index()] == usize::MAX
        {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        b.index() < self.order.len() && self.order[b.index()] != usize::MAX
    }

    /// Blocks in reverse post-order (reachable blocks only).
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// The entry (root) of the tree.
    pub fn root(&self) -> BlockId {
        self.entry
    }

    /// Children of `b` in the dominator tree, in RPO order.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        let ix = b.index();
        if ix + 1 >= self.kid_start.len() {
            return &[];
        }
        &self.kids[self.kid_start[ix] as usize..self.kid_start[ix + 1] as usize]
    }
}

/// The post-dominator tree, computed over the reversed CFG with a virtual
/// exit node joining all `ret` blocks.
///
/// Used to find immediate post-dominators — the reconvergence points the SIMT
/// simulator pushes on its divergence stack, matching real GPU behaviour.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// `ipdom[b.index()]`: immediate post-dominator within the real blocks;
    /// `None` when the only post-dominator is the virtual exit.
    ipdom: Vec<Option<BlockId>>,
    max_ix: usize,
}

impl PostDomTree {
    /// Compute the post-dominator tree of `f`.
    pub fn compute(f: &Function) -> Self {
        let layout: Vec<BlockId> = f.layout().to_vec();
        let max_ix = layout.iter().map(|b| b.index() + 1).max().unwrap_or(1);
        // Virtual exit gets index max_ix.
        let vexit = BlockId::from_index(max_ix);
        // Successors in the reversed graph = predecessors in the real graph,
        // plus: vexit's "preds" (i.e. real succs) are the ret blocks.
        let preds = f.predecessors();
        let mut rets = Vec::new();
        for &b in &layout {
            if f.successors(b).is_empty() {
                rets.push(b);
            }
        }
        // Build reverse-graph RPO starting from vexit. Successors in the
        // reversed graph = predecessors in the real graph; vexit's are the
        // ret blocks.
        let rsucc = |b: BlockId| -> &[BlockId] {
            if b == vexit {
                &rets
            } else {
                &preds[b.index()]
            }
        };
        // DFS post-order on reversed graph.
        let mut state = vec![0u8; max_ix + 1];
        let mut post = Vec::new();
        let mut stack: Vec<(BlockId, usize)> = vec![(vexit, 0)];
        state[vexit.index()] = 1;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let ss = rsucc(b);
            if *next < ss.len() {
                let s = ss[*next];
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
        let rpo = post;
        // Predecessors in the reversed graph = successors in the real graph,
        // plus vexit as a "predecessor" of every ret block; precomputed once
        // (vexit's slot stays empty, and only it and unlinked slots, which
        // the reversed RPO never reaches, are empty besides the rets).
        let mut rpreds = vec![Succs::NONE; max_ix + 1];
        for &b in &layout {
            rpreds[b.index()] = f.successors(b);
        }
        let tree = DomTree::compute_from(vexit, &rpo, |b| match &*rpreds[b.index()] {
            [] => std::slice::from_ref(&vexit),
            out => out,
        });
        let mut ipdom = vec![None; max_ix];
        for &b in &layout {
            if let Some(d) = tree.idom(b) {
                if d != vexit {
                    ipdom[b.index()] = Some(d);
                }
            }
        }
        PostDomTree { ipdom, max_ix }
    }

    /// Immediate post-dominator of `b`, or `None` if it is the virtual exit
    /// (i.e. `b` exits the function directly or is unreachable).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom.get(b.index()).copied().flatten()
    }

    /// Whether `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a.index() >= self.max_ix || b.index() >= self.max_ix {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.ipdom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    /// entry → header → {body → latch → header | exit}; diamond inside body.
    fn loop_with_diamond() -> (uu_ir::Function, Vec<BlockId>) {
        let mut f = uu_ir::Function::new(
            "k",
            vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let header = b.create_block(); // 1
        let bodyt = b.create_block(); // 2
        let bodyf = b.create_block(); // 3
        let latch = b.create_block(); // 4
        let exit = b.create_block(); // 5
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, bodyt, exit);
        b.switch_to(bodyt);
        b.cond_br(Value::Arg(1), bodyf, latch);
        b.switch_to(bodyf);
        b.br(latch);
        b.switch_to(latch);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, latch, i1);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(i));
        (f, vec![entry, header, bodyt, bodyf, latch, exit])
    }

    #[test]
    fn dominator_relations() {
        let (f, ids) = loop_with_diamond();
        let dom = DomTree::compute(&f);
        let [entry, header, bodyt, bodyf, latch, exit] = ids[..] else {
            unreachable!()
        };
        assert_eq!(dom.idom(header), Some(entry));
        assert_eq!(dom.idom(bodyt), Some(header));
        assert_eq!(dom.idom(bodyf), Some(bodyt));
        assert_eq!(dom.idom(latch), Some(bodyt));
        assert_eq!(dom.idom(exit), Some(header));
        assert!(dom.dominates(header, latch));
        assert!(dom.dominates(header, header));
        assert!(!dom.dominates(bodyf, latch));
        assert!(dom.strictly_dominates(entry, exit));
        assert!(!dom.strictly_dominates(exit, exit));
        assert_eq!(dom.root(), entry);
        assert!(dom.children(header).contains(&bodyt));
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let (mut f, _) = loop_with_diamond();
        let dead = f.add_block();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(dead);
        b.ret(Some(Value::imm(0i64)));
        let dom = DomTree::compute(&f);
        assert!(!dom.is_reachable(dead));
        assert!(!dom.dominates(f.entry(), dead));
        assert!(!dom.dominates(dead, f.entry()));
    }

    #[test]
    fn post_dominators() {
        let (f, ids) = loop_with_diamond();
        let pdom = PostDomTree::compute(&f);
        let [_, header, bodyt, bodyf, latch, exit] = ids[..] else {
            unreachable!()
        };
        // The latch post-dominates both arms of the diamond.
        assert_eq!(pdom.ipdom(bodyt), Some(latch));
        assert_eq!(pdom.ipdom(bodyf), Some(latch));
        assert_eq!(pdom.ipdom(latch), Some(header));
        // header's ipdom is exit (the loop always terminates through it).
        assert_eq!(pdom.ipdom(header), Some(exit));
        assert_eq!(pdom.ipdom(exit), None);
        assert!(pdom.post_dominates(exit, header));
        assert!(pdom.post_dominates(latch, bodyf));
        assert!(!pdom.post_dominates(bodyf, bodyt));
    }

    #[test]
    fn straightline_postdom_chain() {
        let mut f = uu_ir::Function::new("s", vec![], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let mid = b.create_block();
        let end = b.create_block();
        b.switch_to(entry);
        b.br(mid);
        b.switch_to(mid);
        b.br(end);
        b.switch_to(end);
        b.ret(None);
        let pdom = PostDomTree::compute(&f);
        assert_eq!(pdom.ipdom(entry), Some(mid));
        assert_eq!(pdom.ipdom(mid), Some(end));
        assert_eq!(pdom.ipdom(end), None);
    }
}
