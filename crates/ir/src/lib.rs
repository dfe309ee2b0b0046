//! # uu-ir — SSA intermediate representation
//!
//! A compact, LLVM-flavoured SSA IR used throughout the `uu` workspace, which
//! reproduces *Enhancing Performance through Control-Flow Unmerging and Loop
//! Unrolling on GPUs* (CGO 2024). The IR models the subset of LLVM that GPU
//! compute kernels exercise: scalar arithmetic, comparisons, selects
//! (predication), loads/stores into flat global memory, phi nodes, branches
//! and CUDA-style intrinsics (`threadIdx.x`, `__syncthreads`, math).
//!
//! ## Example
//!
//! Build, print and verify a small counting loop:
//!
//! ```
//! use uu_ir::{Function, FunctionBuilder, ICmpPred, Param, Type, Value};
//!
//! let mut f = Function::new("count", vec![Param::new("n", Type::I64)], Type::I64);
//! let entry = f.entry();
//! let mut b = FunctionBuilder::new(&mut f);
//! let header = b.create_block();
//! let body = b.create_block();
//! let exit = b.create_block();
//! b.switch_to(entry);
//! b.br(header);
//! b.switch_to(header);
//! let i = b.phi(Type::I64);
//! b.add_phi_incoming(i, entry, Value::imm(0i64));
//! let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
//! b.cond_br(c, body, exit);
//! b.switch_to(body);
//! let next = b.add(i, Value::imm(1i64));
//! b.add_phi_incoming(i, body, next);
//! b.br(header);
//! b.switch_to(exit);
//! b.ret(Some(i));
//!
//! uu_ir::verify_function(&f).unwrap();
//! println!("{f}");
//! ```
//!
//! ## Design notes
//!
//! * Instructions and blocks live in per-function arenas addressed by stable
//!   IDs ([`InstId`], [`BlockId`]); transforms clone and rewire freely without
//!   invalidating references.
//! * [`fold`] is the single source of truth for evaluation semantics; the
//!   optimizer and the SIMT simulator both call into it, so constant folding
//!   can never disagree with execution. Its arithmetic lives once, in
//!   [`word`], on the tagged machine words the simulator's registers hold.
//! * [`verify_function`] checks block structure, phi/predecessor agreement,
//!   types and SSA dominance; every transform in `uu-core` is verified after
//!   application in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod constant;
mod entities;
pub mod fold;
mod function;
pub mod hash;
mod inst;
mod module;
pub mod parser;
pub mod printer;
pub mod store;
pub mod table;
mod types;
mod verify;
pub mod word;

pub use builder::FunctionBuilder;
pub use constant::Constant;
pub use entities::{BlockId, FuncId, InstId, Value};
pub use function::{use_sweep_count, Block, Function, LoopPragma, Param};
pub use hash::{fnv1a, fnv1a_continue, function_fingerprint, module_hash};
pub use inst::{BinOp, CastOp, FCmpPred, ICmpPred, Inst, InstKind, Intrinsic};
pub use module::Module;
pub use parser::{parse_function, parse_module, ParseError};
pub use table::{EntityKey, EntitySet, SecondaryMap};
pub use types::Type;
pub use verify::{verify_function, verify_function_with, verify_module, VerifyError};
