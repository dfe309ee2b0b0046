//! # uu-core — the unroll & unmerge transformation and its pipeline
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Enhancing Performance through Control-Flow Unmerging and Loop Unrolling
//! on GPUs* (CGO 2024):
//!
//! * [`unmerge`] — control-flow unmerging: tail-duplicate merge blocks in a
//!   loop body (whole-path, as the paper advocates, or DBDS-style direct
//!   successor for the ablation);
//! * [`unroll`] — while-style loop unrolling correct for non-counted loops;
//! * [`uu`] — the combined transformation, with the paper's loop-nest
//!   policy;
//! * [`heuristic`] — the size heuristic `f(p, s, u) = Σ p^i·s < c` with
//!   `u ≤ 8`, pragma/convergence skipping and the optional divergence guard;
//! * [`opt`] — the *subsequent optimizations* that u&u enables: SCCP, GVN
//!   with alias-aware load elimination, branch-condition propagation,
//!   if-conversion (the baseline's predication), CFG simplification and DCE
//!   — plus [`opt::meld`], the DARM-style rival transform that *melds*
//!   divergent diamonds instead of splitting merged control flow;
//! * [`baseline_unroll`] — the baseline compiler's own unrolling;
//! * [`pipeline`] — the five measurement configurations of §IV-B.
//!
//! ## Example
//!
//! ```
//! use uu_ir::{Function, FunctionBuilder, ICmpPred, Param, Type, Value};
//! use uu_core::{uu_loop, UnmergeOptions};
//!
//! // while (i < n) { if (c) x = i + 10; i += x }
//! let mut f = Function::new(
//!     "k",
//!     vec![Param::new("n", Type::I64), Param::new("c", Type::I1)],
//!     Type::I64,
//! );
//! let entry = f.entry();
//! let mut b = FunctionBuilder::new(&mut f);
//! let (h, t, m, exit) = (
//!     b.create_block(),
//!     b.create_block(),
//!     b.create_block(),
//!     b.create_block(),
//! );
//! b.switch_to(entry);
//! b.br(h);
//! b.switch_to(h);
//! let i = b.phi(Type::I64);
//! b.add_phi_incoming(i, entry, Value::imm(0i64));
//! let cond = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
//! b.cond_br(cond, t, exit);
//! b.switch_to(t);
//! let x = b.add(i, Value::imm(10i64));
//! b.cond_br(Value::Arg(1), m, m);
//! b.switch_to(m);
//! let i1 = b.add(i, x);
//! b.add_phi_incoming(i, m, i1);
//! b.br(h);
//! b.switch_to(exit);
//! b.ret(Some(i));
//!
//! let out = uu_loop(&mut f, h, 2, UnmergeOptions::default());
//! assert!(out.applied);
//! uu_ir::verify_function(&f).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline_unroll;
pub mod clone;
pub mod heuristic;
pub mod loopsimplify;
mod memo;
pub mod opt;
pub mod pipeline;
pub mod recover;
pub mod runtime_unroll;
pub mod unmerge;
pub mod unroll;
pub mod uu;

pub use heuristic::{Decision, HeuristicOptions};
pub use memo::{
    compile_memo_clear, compile_memo_footprint, compile_memo_stats, COMPILE_MEMO_SLOT_BUDGET,
};
pub use opt::meld::{meld_function, meld_loop, Meld};
pub use pipeline::{
    compile, fingerprint_of, function_sharing_stats, pass_elision_stats, pipeline_fingerprint,
    CompileOutcome, LoopFilter, PassPosition, PipelineOptions, Transform, COMPILE_TIMEOUT,
    PASS_VERSIONS, PIPELINE_SCHEMA_VERSION, WORK_PER_MS,
};
pub use recover::{
    split_fault_spec, FailureReason, FaultKind, FaultPlan, PassFailure, PassInvocation, PassLog,
    Rung,
};
pub use unmerge::{UnmergeMode, UnmergeOptions};
pub use uu::uu_loop;
