//! Simulated global (device) memory.
//!
//! A flat, byte-addressed address space with a bump allocator, typed
//! accessors and bounds checking. Address 0 is reserved so that null
//! pointers trap.

use uu_ir::{Constant, Type};

/// Handle to an allocation in device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    /// Base device address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Errors raised by memory accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access outside any allocation.
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access width in bytes.
        width: u64,
    },
    /// Device memory exhausted.
    OutOfMemory,
    /// Deterministically injected fault (see
    /// [`GlobalMemory::inject_fault_after`]) — exercises the harness's
    /// fault-containment paths; never produced by real workloads.
    Injected,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, width } => {
                write!(f, "out of bounds access of {width} bytes at address {addr:#x}")
            }
            MemError::OutOfMemory => write!(f, "device memory exhausted"),
            MemError::Injected => write!(f, "injected memory fault"),
        }
    }
}

impl std::error::Error for MemError {}

/// Dense set of distinct DRAM sectors touched by a launch.
///
/// The launch path sizes the bitmap once from the allocator's high-water
/// mark (`GlobalMemory::used() / sector_bytes`), so membership inserts are
/// one bit test instead of a `HashSet` probe — every device address has
/// already passed the bounds check, so in-range is the common case and the
/// grow path below is defensive only. Only the distinct-sector *count* is
/// observable (it becomes `Metrics::dram_sectors`), which is exactly what
/// a bitmap preserves bit-for-bit versus the old hash set.
#[derive(Debug, Default)]
pub struct SectorSet {
    bits: Vec<u64>,
    len: u64,
}

impl SectorSet {
    /// Create an empty set; size it with [`SectorSet::reset`] before use.
    pub fn new() -> Self {
        SectorSet::default()
    }

    /// Clear the set and size it for sector indices `0..sectors`. Reuses
    /// the previous allocation when it is large enough.
    pub fn reset(&mut self, sectors: u64) {
        let words = sectors.div_ceil(64) as usize;
        self.bits.clear();
        self.bits.resize(words, 0);
        self.len = 0;
    }

    /// Insert a sector index.
    #[inline]
    pub fn insert(&mut self, sector: u64) {
        let w = (sector / 64) as usize;
        if w >= self.bits.len() {
            // Defensive: every inserted address passed the bounds check, so
            // this only triggers for custom `sector_bytes` geometries.
            self.bits.resize(w + 1, 0);
        }
        let bit = 1u64 << (sector % 64);
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.len += 1;
        }
    }

    /// Number of distinct sectors inserted since the last reset.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no sector has been inserted since the last reset.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The device memory: a bump-allocated flat byte array.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    bytes: Vec<u8>,
    top: u64,
    capacity: u64,
    // One-shot fault countdown: the (n+1)-th checked access traps with
    // MemError::Injected. Cell so read paths (&self) can tick it.
    fault_after: std::cell::Cell<Option<u64>>,
}

const ALIGN: u64 = 256;

impl GlobalMemory {
    /// Create a device memory with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        GlobalMemory {
            bytes: Vec::new(),
            top: ALIGN, // address 0..ALIGN reserved (null page)
            capacity,
            fault_after: std::cell::Cell::new(None),
        }
    }

    /// Arm a deterministic one-shot fault: after `n` further successful
    /// checked accesses (reads or writes, host- or device-side), the next
    /// access returns [`MemError::Injected`] and the countdown disarms.
    /// Because the simulator executes warps in a fixed deterministic
    /// order, the same `n` always faults the same access.
    pub fn inject_fault_after(&mut self, n: u64) {
        self.fault_after.set(Some(n));
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.top
    }

    /// Allocate `len` bytes, zero-initialized.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] when capacity would be exceeded.
    pub fn alloc(&mut self, len: u64) -> Result<Buffer, MemError> {
        let addr = self.top;
        let new_top = addr
            .checked_add(len)
            .map(|t| t.div_ceil(ALIGN) * ALIGN)
            .ok_or(MemError::OutOfMemory)?;
        if new_top > self.capacity {
            return Err(MemError::OutOfMemory);
        }
        self.top = new_top;
        if self.bytes.len() < new_top as usize {
            self.bytes.resize(new_top as usize, 0);
        }
        Ok(Buffer { addr, len })
    }

    /// Allocate and initialize from `f64` host data.
    pub fn alloc_f64(&mut self, data: &[f64]) -> Result<Buffer, MemError> {
        let b = self.alloc(data.len() as u64 * 8)?;
        if let Some(w) = self.write_window(b.addr, data.len() as u64 * 8) {
            // Bulk host init: one bounds check for the whole range. Only
            // taken with the fault countdown disarmed, so the per-access
            // countdown semantics of the slow path are preserved.
            for (dst, v) in w.chunks_exact_mut(8).zip(data) {
                dst.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            return Ok(b);
        }
        for (i, v) in data.iter().enumerate() {
            self.write_scalar(b.addr + i as u64 * 8, Constant::f64(*v))?;
        }
        Ok(b)
    }

    /// Allocate and initialize from `f32` host data.
    pub fn alloc_f32(&mut self, data: &[f32]) -> Result<Buffer, MemError> {
        let b = self.alloc(data.len() as u64 * 4)?;
        if let Some(w) = self.write_window(b.addr, data.len() as u64 * 4) {
            for (dst, v) in w.chunks_exact_mut(4).zip(data) {
                dst.copy_from_slice(&v.to_bits().to_le_bytes());
            }
            return Ok(b);
        }
        for (i, v) in data.iter().enumerate() {
            self.write_scalar(b.addr + i as u64 * 4, Constant::f32(*v))?;
        }
        Ok(b)
    }

    /// Allocate and initialize from `i64` host data.
    pub fn alloc_i64(&mut self, data: &[i64]) -> Result<Buffer, MemError> {
        let b = self.alloc(data.len() as u64 * 8)?;
        if let Some(w) = self.write_window(b.addr, data.len() as u64 * 8) {
            for (dst, v) in w.chunks_exact_mut(8).zip(data) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            return Ok(b);
        }
        for (i, v) in data.iter().enumerate() {
            self.write_scalar(b.addr + i as u64 * 8, Constant::I64(*v))?;
        }
        Ok(b)
    }

    /// Borrow `len` bytes at `addr` for reading, bounds-checked once.
    ///
    /// Returns `None` whenever the per-access slow path must run instead:
    /// when the range is not fully in bounds (the caller's per-access loop
    /// then reports the fault at the exact access the reference
    /// interpreter would), or when a fault countdown is armed — `check`
    /// ticks the countdown once per access, so a windowed access would
    /// change which access faults. With the countdown disarmed the tick is
    /// a no-op and the window is observationally identical.
    pub(crate) fn read_window(&self, addr: u64, len: u64) -> Option<&[u8]> {
        if self.fault_after.get().is_some()
            || addr < ALIGN
            || addr.saturating_add(len) > self.top
        {
            return None;
        }
        Some(&self.bytes[addr as usize..(addr + len) as usize])
    }

    /// Borrow `len` bytes at `addr` for writing; same contract as
    /// [`GlobalMemory::read_window`].
    pub(crate) fn write_window(&mut self, addr: u64, len: u64) -> Option<&mut [u8]> {
        if self.fault_after.get().is_some()
            || addr < ALIGN
            || addr.saturating_add(len) > self.top
        {
            return None;
        }
        Some(&mut self.bytes[addr as usize..(addr + len) as usize])
    }

    fn check(&self, addr: u64, width: u64) -> Result<(), MemError> {
        match self.fault_after.get() {
            Some(0) => {
                self.fault_after.set(None);
                return Err(MemError::Injected);
            }
            Some(n) => self.fault_after.set(Some(n - 1)),
            None => {}
        }
        if addr < ALIGN || addr.saturating_add(width) > self.top {
            return Err(MemError::OutOfBounds { addr, width });
        }
        Ok(())
    }

    /// Read a scalar of type `ty` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] for accesses outside allocations.
    pub fn read_scalar(&self, addr: u64, ty: Type) -> Result<Constant, MemError> {
        let w = ty.size_bytes();
        self.check(addr, w)?;
        let at = addr as usize;
        let c = match ty {
            Type::I1 => Constant::I1(self.bytes[at] != 0),
            Type::I32 => Constant::I32(i32::from_le_bytes(
                self.bytes[at..at + 4].try_into().unwrap(),
            )),
            Type::I64 | Type::Ptr => Constant::I64(i64::from_le_bytes(
                self.bytes[at..at + 8].try_into().unwrap(),
            )),
            Type::F32 => Constant::F32Bits(u32::from_le_bytes(
                self.bytes[at..at + 4].try_into().unwrap(),
            )),
            Type::F64 => Constant::F64Bits(u64::from_le_bytes(
                self.bytes[at..at + 8].try_into().unwrap(),
            )),
            Type::Void => unreachable!("void load"),
        };
        Ok(c)
    }

    /// Write a scalar at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] for accesses outside allocations.
    pub fn write_scalar(&mut self, addr: u64, value: Constant) -> Result<(), MemError> {
        let w = value.ty().size_bytes();
        self.check(addr, w)?;
        let at = addr as usize;
        match value {
            Constant::I1(b) => self.bytes[at] = b as u8,
            Constant::I32(v) => self.bytes[at..at + 4].copy_from_slice(&v.to_le_bytes()),
            Constant::I64(v) => self.bytes[at..at + 8].copy_from_slice(&v.to_le_bytes()),
            Constant::F32Bits(v) => self.bytes[at..at + 4].copy_from_slice(&v.to_le_bytes()),
            Constant::F64Bits(v) => self.bytes[at..at + 8].copy_from_slice(&v.to_le_bytes()),
        }
        Ok(())
    }

    /// Read back a buffer as `f64`s.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] for a dangling or foreign
    /// [`Buffer`] whose range falls outside this memory's allocations —
    /// like [`GlobalMemory::alloc`], host-side readback reports faults
    /// instead of panicking.
    pub fn read_f64(&self, b: Buffer) -> Result<Vec<f64>, MemError> {
        if let Some(w) = self.read_window(b.addr, b.len / 8 * 8) {
            return Ok(w
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect());
        }
        (0..b.len / 8)
            .map(|i| {
                self.read_scalar(b.addr + i * 8, Type::F64)
                    .map(|c| c.as_f64().unwrap())
            })
            .collect()
    }

    /// Read back a buffer as `i64`s.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] for dangling/foreign buffers.
    pub fn read_i64(&self, b: Buffer) -> Result<Vec<i64>, MemError> {
        if let Some(w) = self.read_window(b.addr, b.len / 8 * 8) {
            return Ok(w
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                .collect());
        }
        (0..b.len / 8)
            .map(|i| {
                self.read_scalar(b.addr + i * 8, Type::I64)
                    .map(|c| c.as_i64().unwrap())
            })
            .collect()
    }

    /// Read back a buffer as `f32`s.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] for dangling/foreign buffers.
    pub fn read_f32(&self, b: Buffer) -> Result<Vec<f32>, MemError> {
        if let Some(w) = self.read_window(b.addr, b.len / 4 * 4) {
            return Ok(w
                .chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                .collect());
        }
        (0..b.len / 4)
            .map(|i| {
                self.read_scalar(b.addr + i * 4, Type::F32)
                    .map(|c| c.as_f64().unwrap() as f32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut m = GlobalMemory::new(1 << 20);
        let b = m.alloc_f64(&[1.0, 2.5, -3.0]).unwrap();
        assert_eq!(m.read_f64(b).unwrap(), vec![1.0, 2.5, -3.0]);
        let c = m.alloc_i64(&[7, -9]).unwrap();
        assert_eq!(m.read_i64(c).unwrap(), vec![7, -9]);
        assert_ne!(b.addr, c.addr);
        let e = m.alloc_f32(&[0.5]).unwrap();
        assert_eq!(m.read_f32(e).unwrap(), vec![0.5]);
    }

    #[test]
    fn dangling_and_foreign_buffers_fault_instead_of_panicking() {
        let mut m = GlobalMemory::new(1 << 12);
        // A buffer that was never allocated here (e.g. from another Gpu
        // with more memory in use) must report OutOfBounds on readback.
        let foreign = Buffer {
            addr: m.used() + 4096,
            len: 64,
        };
        assert!(matches!(
            m.read_i64(foreign),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(m.read_f64(foreign).is_err());
        assert!(m.read_f32(foreign).is_err());
        // A buffer overhanging the end of the heap faults too.
        let b = m.alloc(16).unwrap();
        let overhang = Buffer {
            addr: b.addr,
            len: m.used() - b.addr + 8,
        };
        assert!(m.read_i64(overhang).is_err());
        // Null-page reads fault.
        assert!(m.read_i64(Buffer { addr: 0, len: 8 }).is_err());
    }

    #[test]
    fn alignment_and_null_page() {
        let mut m = GlobalMemory::new(1 << 20);
        let b = m.alloc(10).unwrap();
        assert!(b.addr >= 256);
        assert_eq!(b.addr % 256, 0);
        // Null page traps.
        assert!(m.read_scalar(0, Type::I64).is_err());
        assert!(m.write_scalar(8, Constant::I64(1)).is_err());
    }

    #[test]
    fn bounds_checked() {
        let mut m = GlobalMemory::new(1 << 12);
        let b = m.alloc(16).unwrap();
        assert!(m.read_scalar(b.addr + 8, Type::I64).is_ok());
        assert!(m.read_scalar(m.used(), Type::I64).is_err());
        assert!(m.alloc(1 << 13).is_err());
    }

    #[test]
    fn injected_fault_fires_once_at_the_armed_access() {
        let mut m = GlobalMemory::new(1 << 12);
        let b = m.alloc_i64(&[1, 2, 3, 4]).unwrap();
        m.inject_fault_after(2);
        assert!(m.read_scalar(b.addr, Type::I64).is_ok());
        assert!(m.read_scalar(b.addr + 8, Type::I64).is_ok());
        assert_eq!(
            m.read_scalar(b.addr + 16, Type::I64),
            Err(MemError::Injected)
        );
        // One-shot: the countdown disarms after firing.
        assert!(m.read_scalar(b.addr + 16, Type::I64).is_ok());
    }

    #[test]
    fn typed_readwrite() {
        let mut m = GlobalMemory::new(1 << 12);
        let b = m.alloc(64).unwrap();
        m.write_scalar(b.addr, Constant::I1(true)).unwrap();
        assert_eq!(m.read_scalar(b.addr, Type::I1).unwrap(), Constant::I1(true));
        m.write_scalar(b.addr + 8, Constant::f32(1.5)).unwrap();
        assert_eq!(
            m.read_scalar(b.addr + 8, Type::F32).unwrap(),
            Constant::f32(1.5)
        );
    }
}
