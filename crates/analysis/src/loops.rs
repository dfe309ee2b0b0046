//! Natural-loop detection and the loop forest.
//!
//! Loops are discovered from back edges (`latch → header` where the header
//! dominates the latch), merged per header, and nested into a forest. Loop
//! IDs are deterministic: loops are numbered by the reverse-post-order index
//! of their headers, which is what gives the paper's "consistent,
//! deterministic unique ids" users can name on the command line.

use crate::cfg::{back_edges, reverse_post_order};
use crate::dominators::DomTree;
use uu_ir::{BlockId, EntitySet, Function};

/// Index of a loop within a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub usize);

/// A single natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (unique entry point from outside).
    pub header: BlockId,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// All blocks of the loop, header included, sorted by index.
    pub blocks: Vec<BlockId>,
    /// Enclosing loop, if nested.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth: 1 for top-level loops.
    pub depth: u32,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// Whether this loop has no nested loops.
    pub fn is_innermost(&self) -> bool {
        self.children.is_empty()
    }
}

/// All natural loops of a function, with nesting structure.
#[derive(Debug, Clone)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Block arena index → innermost loop containing it.
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Discover the loops of `f` given its dominator tree.
    pub fn compute(f: &Function, dom: &DomTree) -> Self {
        let rpo = reverse_post_order(f);
        let mut order = vec![usize::MAX; rpo.iter().map(|b| b.index() + 1).max().unwrap_or(1)];
        for (i, b) in rpo.iter().enumerate() {
            order[b.index()] = i;
        }
        // Headers in the order their first back edge is met.
        let edges = back_edges(f, dom);
        let mut headers: Vec<BlockId> = Vec::new();
        for e in &edges {
            if !headers.contains(&e.to) {
                headers.push(e.to);
            }
        }
        // Deterministic order: by RPO index of header (outer loops first in
        // RPO; ties impossible since headers are unique).
        headers.sort_by_key(|h| order[h.index()]);

        let preds = f.predecessors();
        let mut loops: Vec<Loop> = Vec::with_capacity(headers.len());
        // One body set and one walk stack, reused by every loop.
        let mut set: EntitySet<BlockId> = EntitySet::with_capacity(preds.len());
        let mut stack: Vec<BlockId> = Vec::new();
        for header in headers {
            let mut latches: Vec<BlockId> =
                edges.iter().filter(|e| e.to == header).map(|e| e.from).collect();
            latches.sort();
            // Natural loop body: header + backwards reachability from the
            // latches without crossing the header.
            set.clear();
            set.insert(header);
            stack.extend_from_slice(&latches);
            while let Some(b) = stack.pop() {
                set.insert(b);
                if b == header {
                    continue;
                }
                for &p in &preds[b.index()] {
                    if set.insert(p) {
                        stack.push(p);
                    }
                }
            }
            // EntitySet iterates in index order, so this is already sorted.
            let mut blocks: Vec<BlockId> = Vec::with_capacity(set.len());
            blocks.extend(set.iter());
            loops.push(Loop {
                header,
                latches,
                blocks,
                parent: None,
                children: Vec::new(),
                depth: 1,
            });
        }
        // Nesting: parent = smallest strictly-containing loop.
        let n = loops.len();
        for a in 0..n {
            let mut best: Option<usize> = None;
            for b in 0..n {
                if a == b {
                    continue;
                }
                let la = &loops[a];
                let lb = &loops[b];
                if lb.blocks.len() > la.blocks.len() && lb.contains(la.header) {
                    // check full containment
                    if la.blocks.iter().all(|x| lb.contains(*x)) {
                        best = match best {
                            None => Some(b),
                            Some(cur) if loops[cur].blocks.len() > lb.blocks.len() => Some(b),
                            other => other,
                        };
                    }
                }
            }
            loops[a].parent = best.map(LoopId);
        }
        for a in 0..n {
            if let Some(LoopId(p)) = loops[a].parent {
                loops[p].children.push(LoopId(a));
            }
        }
        // Depth by walking parents.
        for a in 0..n {
            let mut d = 1;
            let mut cur = loops[a].parent;
            while let Some(LoopId(p)) = cur {
                d += 1;
                cur = loops[p].parent;
            }
            loops[a].depth = d;
        }
        // Innermost loop per block: the deepest containing loop, the later
        // ID on a tie.
        let mut innermost: Vec<Option<LoopId>> = vec![None; preds.len()];
        for (i, l) in loops.iter().enumerate() {
            for b in &l.blocks {
                let cur = &mut innermost[b.index()];
                if cur.is_none_or(|LoopId(c)| loops[c].depth <= l.depth) {
                    *cur = Some(LoopId(i));
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// All loops, in deterministic ID order.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether there are no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Access one loop.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.0]
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<LoopId> {
        self.innermost.get(b.index()).copied().flatten()
    }

    /// Loop IDs ordered innermost-first (deepest depth first, stable within
    /// a depth), the order the u&u heuristic visits loop nests in.
    pub fn innermost_first(&self) -> Vec<LoopId> {
        let mut ids: Vec<LoopId> = (0..self.loops.len()).map(LoopId).collect();
        ids.sort_by_key(|id| std::cmp::Reverse(self.loops[id.0].depth));
        ids
    }

    /// The unique preheader of a loop: the single predecessor of the header
    /// from outside the loop whose only successor is the header.
    pub fn preheader(&self, f: &Function, id: LoopId) -> Option<BlockId> {
        let l = self.get(id);
        let preds = f.predecessors();
        let outside: Vec<BlockId> = preds[l.header.index()]
            .iter()
            .copied()
            .filter(|p| !l.contains(*p))
            .collect();
        match outside.as_slice() {
            [p] if *f.successors(*p) == [l.header] => Some(*p),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uu_ir::{FunctionBuilder, ICmpPred, Param, Type, Value};

    /// Two-level nest: outer loop over i, inner loop over j.
    fn nested() -> uu_ir::Function {
        let mut f = uu_ir::Function::new("nest", vec![Param::new("n", Type::I64)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let oh = b.create_block(); // 1 outer header
        let ih = b.create_block(); // 2 inner header
        let ibody = b.create_block(); // 3 inner body
        let olatch = b.create_block(); // 4 outer latch
        let exit = b.create_block(); // 5
        b.switch_to(entry);
        b.br(oh);
        b.switch_to(oh);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let ci = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(ci, ih, exit);
        b.switch_to(ih);
        let j = b.phi(Type::I64);
        b.add_phi_incoming(j, oh, Value::imm(0i64));
        let cj = b.icmp(ICmpPred::Slt, j, Value::Arg(0));
        b.cond_br(cj, ibody, olatch);
        b.switch_to(ibody);
        let j1 = b.add(j, Value::imm(1i64));
        b.add_phi_incoming(j, ibody, j1);
        b.br(ih);
        b.switch_to(olatch);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, olatch, i1);
        b.br(oh);
        b.switch_to(exit);
        b.ret(None);
        f
    }

    #[test]
    fn finds_nested_loops() {
        let f = nested();
        uu_ir::verify_function(&f).unwrap();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.len(), 2);
        // Deterministic order: outer header (RPO-earlier) first.
        let outer = &forest.loops()[0];
        let inner = &forest.loops()[1];
        assert_eq!(outer.header, BlockId::from_index(1));
        assert_eq!(inner.header, BlockId::from_index(2));
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert_eq!(inner.parent, Some(LoopId(0)));
        assert_eq!(outer.children, vec![LoopId(1)]);
        assert!(outer.contains(BlockId::from_index(4)));
        assert!(inner.is_innermost());
        assert!(!outer.is_innermost());
        // Inner loop blocks: header + body.
        assert_eq!(inner.blocks.len(), 2);
        // Outer loop: oh, ih, ibody, olatch.
        assert_eq!(outer.blocks.len(), 4);
    }

    #[test]
    fn innermost_first_ordering() {
        let f = nested();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let order = forest.innermost_first();
        assert_eq!(order[0], LoopId(1));
        assert_eq!(order[1], LoopId(0));
    }

    #[test]
    fn innermost_containing_picks_deepest() {
        let f = nested();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let ibody = BlockId::from_index(3);
        assert_eq!(forest.innermost_containing(ibody), Some(LoopId(1)));
        let olatch = BlockId::from_index(4);
        assert_eq!(forest.innermost_containing(olatch), Some(LoopId(0)));
        assert_eq!(forest.innermost_containing(f.entry()), None);
    }

    #[test]
    fn exits_and_preheader() {
        let f = nested();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        let outer = LoopId(0);
        let inner = LoopId(1);
        // entry is the outer preheader.
        assert_eq!(forest.preheader(&f, outer), Some(f.entry()));
        // Inner header's outside pred is the outer header, whose successors
        // are two blocks — not a dedicated preheader.
        assert_eq!(forest.preheader(&f, inner), None);
    }

    #[test]
    fn no_loops_in_straightline() {
        let mut f = uu_ir::Function::new("s", vec![], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        b.ret(None);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert!(forest.is_empty());
    }

    #[test]
    fn multi_latch_loop_merges() {
        // A loop with two latches (continue-style).
        let mut f = uu_ir::Function::new("ml", vec![Param::new("c", Type::I1)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let h = b.create_block(); // 1
        let x = b.create_block(); // 2
        let l1 = b.create_block(); // 3
        let l2 = b.create_block(); // 4
        let exit = b.create_block(); // 5
        b.switch_to(entry);
        b.br(h);
        b.switch_to(h);
        b.cond_br(Value::Arg(0), x, exit);
        b.switch_to(x);
        b.cond_br(Value::Arg(0), l1, l2);
        b.switch_to(l1);
        b.br(h);
        b.switch_to(l2);
        b.br(h);
        b.switch_to(exit);
        b.ret(None);
        uu_ir::verify_function(&f).unwrap();
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        assert_eq!(forest.len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.latches.len(), 2);
        assert_eq!(l.blocks.len(), 4);
    }
}
