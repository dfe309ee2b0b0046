//! # uu-simt — SIMT GPU simulator
//!
//! A simulator for executing `uu-ir` kernels under the SIMT execution model,
//! substituting for the NVIDIA V100 the paper measures on. It provides:
//!
//! * **Semantics**: a lockstep warp interpreter with an
//!   immediate-post-dominator reconvergence stack ([`exec`]), flat global
//!   memory with bounds checking ([`memory`]), and CUDA-style geometry
//!   intrinsics. Evaluation delegates to [`uu_ir::fold`], so execution can
//!   never disagree with the optimizer's constant folder.
//! * **Timing**: a roofline model ([`Gpu::launch`]) combining instruction
//!   issue (divided over resident warps), instruction-fetch stalls from a
//!   finite i-cache, and DRAM sector bandwidth with a coalescing model.
//! * **Counters**: nvprof-style metrics ([`Metrics`]) — `inst_misc`,
//!   `inst_control`, `warp_execution_efficiency`, IPC, `stall_inst_fetch`,
//!   `gld_throughput` — the quantities the paper's §V analysis reports.
//!
//! ## Example
//!
//! ```
//! use uu_ir::{Function, FunctionBuilder, Param, Type, Value};
//! use uu_simt::{Gpu, KernelArg, LaunchConfig};
//!
//! // out[gid] = gid
//! let mut f = Function::new("iota", vec![Param::new("out", Type::Ptr)], Type::Void);
//! let entry = f.entry();
//! let mut b = FunctionBuilder::new(&mut f);
//! b.switch_to(entry);
//! let gid = b.global_thread_id();
//! let p = b.gep(Value::Arg(0), gid, 8);
//! b.store(p, gid);
//! b.ret(None);
//!
//! let mut gpu = Gpu::new();
//! let buf = gpu.mem.alloc_i64(&vec![0; 64]).unwrap();
//! let report = gpu
//!     .launch(&f, LaunchConfig::new(2, 32), &[KernelArg::Buffer(buf)])
//!     .unwrap();
//! assert_eq!(gpu.mem.read_i64(buf).unwrap()[63], 63);
//! assert!(report.time_ms > 0.0);
//! ```
//!
//! ## Fidelity notes
//!
//! Warps run serially to completion (no inter-warp communication is
//! simulated; `__syncthreads` is a timing event only). The evaluated kernels
//! are data-race-free and do not communicate across the barrier, which is
//! also why the u&u pass may not touch convergent loops in the first place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod decode;
pub mod exec;
pub mod memory;
pub mod metrics;
pub mod params;

mod gpu;

pub use cache::{decode_cache_clear, decode_cache_stats, decode_cached};
pub use decode::{DecodedKernel, Scratch};
pub use exec::{ExecError, Warp, WarpGeometry};
pub use gpu::{Gpu, KernelArg, LaunchConfig, LaunchReport};
pub use memory::{Buffer, GlobalMemory, MemError, SectorSet};
pub use metrics::{InstClass, Metrics};
pub use params::{model_fingerprint, ExecEngine, GpuParams, SIMT_MODEL_VERSION};
