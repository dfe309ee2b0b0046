//! Architectural parameters of the simulated GPU.
//!
//! Defaults are loosely calibrated to the NVIDIA V100 the paper uses: 80
//! SMs at ~1.38 GHz, 32-thread warps, 32-byte memory sectors, and an
//! instruction cache small enough that heavily unrolled+unmerged kernels
//! overflow it (the paper's `stall_inst_fetch` effect on *complex* and
//! *haccmk*).

/// Which warp interpreter executes launches.
///
/// The engines are observationally identical on verifier-clean IR — same
/// outputs, same [`crate::Metrics`], same simulated cycles, same memory
/// access order (so fault injection hits the same access) — and the
/// differential tests in `tests/engine_differential.rs` hold them to that.
/// The decoded engine is the fast path; the reference interpreter is the
/// semantic baseline it is checked against. Callers pick one through
/// [`GpuParams::engine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecEngine {
    /// Decode-once engine: the kernel is lowered per launch into a dense
    /// [`crate::DecodedKernel`] shared by all warps, with warp-uniform
    /// values scalarized to a single register (the default).
    #[default]
    Decoded,
    /// The straightforward per-`Inst` reference interpreter.
    Reference,
    /// The reference interpreter plus a checking oracle: every register
    /// write of a value the `uu_analysis::Uniformity` analysis calls
    /// warp-uniform is asserted identical across all active lanes. Panics
    /// on violation; used by the scalarization property tests.
    ReferenceVerifyUniform,
}

/// Simulated GPU parameters.
#[derive(Debug, Clone, Copy)]
pub struct GpuParams {
    /// Threads per warp.
    pub warp_size: u32,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Warps resident per SM that the scheduler can hide latency across.
    pub warps_per_sm: u32,
    /// Core clock in GHz (cycles per nanosecond).
    pub clock_ghz: f64,
    /// Memory sector size in bytes (coalescing granularity).
    pub sector_bytes: u64,
    /// Issue-to-completion cost charged per memory transaction (cycles).
    pub mem_tx_cycles: u64,
    /// DRAM latency in cycles, exposed only when too few warps are resident
    /// to hide it.
    pub mem_latency: u64,
    /// Cache-hit load latency charged to the issuing warp's critical path,
    /// scaled sublinearly by the active-lane fraction: divergent sub-warps'
    /// loads are in flight concurrently (memory-level parallelism), so a
    /// split warp pays less than the latency once per side.
    pub l1_latency: u64,
    /// Instruction cache capacity, in code-size units (see
    /// `uu_analysis::cost::inst_size`).
    pub icache_capacity: u64,
    /// Max fetch-stall penalty per issued instruction (cycles) when the
    /// working set far exceeds the instruction cache.
    pub fetch_penalty_max: f64,
    /// Fixed kernel launch overhead in cycles.
    pub launch_overhead: u64,
    /// Per-warp dynamic instruction limit (runaway-loop guard).
    pub max_warp_insts: u64,
    /// Which interpreter executes launches (not an architectural knob; the
    /// engines are observationally identical).
    pub engine: ExecEngine,
}

impl Default for GpuParams {
    fn default() -> Self {
        GpuParams {
            warp_size: 32,
            num_sms: 80,
            warps_per_sm: 8,
            clock_ghz: 1.38,
            sector_bytes: 32,
            mem_tx_cycles: 2,
            mem_latency: 400,
            l1_latency: 12,
            icache_capacity: 3072,
            fetch_penalty_max: 3.0,
            launch_overhead: 300,
            max_warp_insts: 200_000_000,
            engine: ExecEngine::default(),
        }
    }
}

impl GpuParams {
    /// Fetch-stall penalty per issued instruction for a kernel of
    /// `code_size` units: zero while the kernel fits in the i-cache, then
    /// rising smoothly towards [`GpuParams::fetch_penalty_max`].
    pub fn fetch_penalty(&self, code_size: u64) -> f64 {
        if code_size <= self.icache_capacity {
            return 0.0;
        }
        let excess = (code_size - self.icache_capacity) as f64;
        let ratio = excess / self.icache_capacity as f64;
        self.fetch_penalty_max * (ratio / (1.0 + ratio))
    }

    /// Number of warps across which latency can be hidden.
    pub fn concurrency(&self, total_warps: u64) -> u64 {
        total_warps.min(self.num_sms as u64 * self.warps_per_sm as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_penalty_monotone() {
        let p = GpuParams::default();
        assert_eq!(p.fetch_penalty(100), 0.0);
        assert_eq!(p.fetch_penalty(p.icache_capacity), 0.0);
        let a = p.fetch_penalty(p.icache_capacity * 2);
        let b = p.fetch_penalty(p.icache_capacity * 8);
        assert!(a > 0.0);
        assert!(b > a);
        assert!(b < p.fetch_penalty_max);
    }

    #[test]
    fn concurrency_caps() {
        let p = GpuParams::default();
        assert_eq!(p.concurrency(1), 1);
        assert_eq!(p.concurrency(0), 1);
        assert_eq!(p.concurrency(10_000_000), (p.num_sms * p.warps_per_sm) as u64);
    }
}
