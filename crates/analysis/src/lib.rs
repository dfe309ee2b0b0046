//! # uu-analysis — CFG, dominance, loop and divergence analyses
//!
//! The analysis layer under the u&u transformation (reproducing *Enhancing
//! Performance through Control-Flow Unmerging and Loop Unrolling on GPUs*,
//! CGO 2024). It provides the same queries the paper's LLVM pass relies on:
//!
//! * [`DomTree`] / [`PostDomTree`] — dominators (Cooper–Harvey–Kennedy) and
//!   post-dominators with a virtual exit; the latter also drive the SIMT
//!   simulator's reconvergence stack.
//! * [`LoopForest`] — natural loops with deterministic IDs, nesting, exits
//!   and preheaders (LLVM `LoopInfo`).
//! * [`convergence`] — "does this loop contain `__syncthreads`?", the safety
//!   check that stops u&u from duplicating convergent operations.
//! * [`paths`] — acyclic path counting and the heuristic's size estimate
//!   `f(p, s, u) = Σ p^i · s`.
//! * [`cost`] — a TTI-style size/latency model.
//! * [`tripcount`] — canonical counted-loop recognition for the baseline
//!   full unroller.
//! * [`Divergence`] — thread-id taint analysis, the paper's proposed
//!   divergence guard (§V, future work).
//!
//! ## Example
//!
//! ```
//! use uu_ir::{Function, FunctionBuilder, ICmpPred, Param, Type, Value};
//! use uu_analysis::{DomTree, LoopForest};
//!
//! // i = 0; while (i < n) i += 1;
//! let mut f = Function::new("count", vec![Param::new("n", Type::I64)], Type::Void);
//! let entry = f.entry();
//! let mut b = FunctionBuilder::new(&mut f);
//! let (h, body, exit) = (b.create_block(), b.create_block(), b.create_block());
//! b.switch_to(entry);
//! b.br(h);
//! b.switch_to(h);
//! let i = b.phi(Type::I64);
//! b.add_phi_incoming(i, entry, Value::imm(0i64));
//! let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
//! b.cond_br(c, body, exit);
//! b.switch_to(body);
//! let i1 = b.add(i, Value::imm(1i64));
//! b.add_phi_incoming(i, body, i1);
//! b.br(h);
//! b.switch_to(exit);
//! b.ret(None);
//!
//! let dom = DomTree::compute(&f);
//! let loops = LoopForest::compute(&f, &dom);
//! assert_eq!(loops.len(), 1);
//! assert_eq!(loops.loops()[0].header, h);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod cfg;
pub mod convergence;
pub mod cost;
pub mod divergence;
mod dominators;
mod loops;
pub mod paths;
pub mod tripcount;

pub use cache::AnalysisCache;
pub use cfg::{back_edges, is_reducible, post_order, reverse_post_order, split_edge, Edge};
pub use divergence::{loop_has_divergent_branch, Divergence, Uniformity};
pub use dominators::{DomTree, PostDomTree};
pub use loops::{Loop, LoopForest, LoopId};
pub use paths::{count_loop_paths, uu_size_estimate};
pub use tripcount::{affine_loop, trip_count, AffineLoop, CountedLoop};
