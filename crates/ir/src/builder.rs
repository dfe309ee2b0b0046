//! Ergonomic construction of IR functions.

use crate::entities::{BlockId, InstId, Value};
use crate::function::Function;
use crate::inst::{BinOp, CastOp, FCmpPred, ICmpPred, Inst, InstKind, Intrinsic};
use crate::types::Type;

/// A cursor-style builder appending instructions to a current block.
///
/// # Examples
///
/// ```
/// use uu_ir::{Function, FunctionBuilder, Param, Type, Value};
/// let mut f = Function::new("addone", vec![Param::new("x", Type::I64)], Type::I64);
/// let entry = f.entry();
/// let mut b = FunctionBuilder::new(&mut f);
/// b.switch_to(entry);
/// let one = Value::imm(1i64);
/// let sum = b.add(Value::Arg(0), one);
/// b.ret(Some(sum));
/// ```
#[derive(Debug)]
pub struct FunctionBuilder<'f> {
    func: &'f mut Function,
    current: Option<BlockId>,
}

impl<'f> FunctionBuilder<'f> {
    /// Create a builder over `func` with no current block selected.
    pub fn new(func: &'f mut Function) -> Self {
        FunctionBuilder {
            func,
            current: None,
        }
    }

    /// The function being built.
    pub fn func(&self) -> &Function {
        self.func
    }

    /// Create a new block (does not change the insertion point).
    pub fn create_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Set the insertion point to the end of `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = Some(block);
    }

    /// The current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been selected with [`FunctionBuilder::switch_to`].
    pub fn current(&self) -> BlockId {
        self.current.expect("builder has no current block")
    }

    fn emit(&mut self, kind: InstKind, ty: Type) -> InstId {
        let cur = self.current();
        self.func.append_inst(cur, Inst::new(kind, ty))
    }

    fn emit_value(&mut self, kind: InstKind, ty: Type) -> Value {
        Value::Inst(self.emit(kind, ty))
    }

    /// Emit a binary operation; the result type is the type of `lhs`.
    pub fn bin(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Value {
        let ty = self.func.value_type(lhs);
        self.emit_value(InstKind::Bin { op, lhs, rhs }, ty)
    }

    /// Integer/pointer addition.
    pub fn add(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Add, lhs, rhs)
    }

    /// Integer subtraction.
    pub fn sub(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Sub, lhs, rhs)
    }

    /// Integer multiplication.
    pub fn mul(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Mul, lhs, rhs)
    }

    /// Signed division.
    pub fn sdiv(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::SDiv, lhs, rhs)
    }

    /// Unsigned division.
    pub fn udiv(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::UDiv, lhs, rhs)
    }

    /// Signed remainder.
    pub fn srem(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::SRem, lhs, rhs)
    }

    /// Shift left.
    pub fn shl(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Shl, lhs, rhs)
    }

    /// Logical shift right.
    pub fn lshr(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::LShr, lhs, rhs)
    }

    /// Arithmetic shift right.
    pub fn ashr(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::AShr, lhs, rhs)
    }

    /// Bitwise and.
    pub fn and(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::And, lhs, rhs)
    }

    /// Bitwise or.
    pub fn or(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Or, lhs, rhs)
    }

    /// Bitwise xor.
    pub fn xor(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::Xor, lhs, rhs)
    }

    /// Float addition.
    pub fn fadd(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FAdd, lhs, rhs)
    }

    /// Float subtraction.
    pub fn fsub(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FSub, lhs, rhs)
    }

    /// Float multiplication.
    pub fn fmul(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FMul, lhs, rhs)
    }

    /// Float division.
    pub fn fdiv(&mut self, lhs: Value, rhs: Value) -> Value {
        self.bin(BinOp::FDiv, lhs, rhs)
    }

    /// Integer comparison.
    pub fn icmp(&mut self, pred: ICmpPred, lhs: Value, rhs: Value) -> Value {
        self.emit_value(InstKind::ICmp { pred, lhs, rhs }, Type::I1)
    }

    /// Float comparison.
    pub fn fcmp(&mut self, pred: FCmpPred, lhs: Value, rhs: Value) -> Value {
        self.emit_value(InstKind::FCmp { pred, lhs, rhs }, Type::I1)
    }

    /// Predicated select.
    pub fn select(&mut self, cond: Value, on_true: Value, on_false: Value) -> Value {
        let ty = self.func.value_type(on_true);
        self.emit_value(
            InstKind::Select {
                cond,
                on_true,
                on_false,
            },
            ty,
        )
    }

    /// Type cast to `to`.
    pub fn cast(&mut self, op: CastOp, value: Value, to: Type) -> Value {
        self.emit_value(InstKind::Cast { op, value }, to)
    }

    /// Load a value of type `ty` from `ptr`.
    pub fn load(&mut self, ty: Type, ptr: Value) -> Value {
        self.emit_value(InstKind::Load { ptr }, ty)
    }

    /// Store `value` to `ptr`.
    pub fn store(&mut self, ptr: Value, value: Value) {
        self.emit(InstKind::Store { ptr, value }, Type::Void);
    }

    /// Address computation `base + index * scale`.
    pub fn gep(&mut self, base: Value, index: Value, scale: u64) -> Value {
        self.emit_value(InstKind::Gep { base, index, scale }, Type::Ptr)
    }

    /// Emit an empty phi of type `ty`; fill incomings later via
    /// [`FunctionBuilder::add_phi_incoming`]. The phi is placed at the block
    /// head.
    pub fn phi(&mut self, ty: Type) -> Value {
        let cur = self.current();
        let id = self
            .func
            .prepend_inst(cur, Inst::new(InstKind::Phi { incomings: vec![] }, ty));
        Value::Inst(id)
    }

    /// Append an incoming `(pred, value)` pair to a phi created by
    /// [`FunctionBuilder::phi`].
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a phi instruction of this function.
    pub fn add_phi_incoming(&mut self, phi: Value, pred: BlockId, value: Value) {
        let id = phi.as_inst().expect("phi must be an instruction");
        match &mut self.func.inst_mut(id).kind {
            InstKind::Phi { incomings } => incomings.push((pred, value)),
            _ => panic!("add_phi_incoming on non-phi"),
        }
    }

    /// Call an intrinsic. `fw` selects the float width of math intrinsics
    /// (ignored by thread-geometry intrinsics).
    pub fn intr(&mut self, which: Intrinsic, args: Vec<Value>, fw: Type) -> Value {
        let ty = which.result_type(fw);
        self.emit_value(InstKind::Intr { which, args }, ty)
    }

    /// `threadIdx.x` as an `i32`.
    pub fn thread_idx(&mut self) -> Value {
        self.intr(Intrinsic::ThreadIdxX, vec![], Type::I32)
    }

    /// `blockIdx.x` as an `i32`.
    pub fn block_idx(&mut self) -> Value {
        self.intr(Intrinsic::BlockIdxX, vec![], Type::I32)
    }

    /// `blockDim.x` as an `i32`.
    pub fn block_dim(&mut self) -> Value {
        self.intr(Intrinsic::BlockDimX, vec![], Type::I32)
    }

    /// The global thread id `blockIdx.x * blockDim.x + threadIdx.x`, widened
    /// to `i64`.
    pub fn global_thread_id(&mut self) -> Value {
        let tid = self.thread_idx();
        let bid = self.block_idx();
        let bdim = self.block_dim();
        let base = self.mul(bid, bdim);
        let gid = self.add(base, tid);
        self.cast(CastOp::Sext, gid, Type::I64)
    }

    /// `__syncthreads()`.
    pub fn syncthreads(&mut self) {
        let cur = self.current();
        self.func.append_inst(
            cur,
            Inst::new(
                InstKind::Intr {
                    which: Intrinsic::Syncthreads,
                    args: vec![],
                },
                Type::Void,
            ),
        );
    }

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.emit(InstKind::Br { target }, Type::Void);
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: Value, if_true: BlockId, if_false: BlockId) {
        self.emit(
            InstKind::CondBr {
                cond,
                if_true,
                if_false,
            },
            Type::Void,
        );
    }

    /// Return.
    pub fn ret(&mut self, value: Option<Value>) {
        self.emit(InstKind::Ret { value }, Type::Void);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Param;

    #[test]
    fn builds_straightline() {
        let mut f = Function::new(
            "k",
            vec![Param::new("a", Type::I64), Param::new("b", Type::I64)],
            Type::I64,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let s = b.add(Value::Arg(0), Value::Arg(1));
        let d = b.mul(s, Value::imm(2i64));
        b.ret(Some(d));
        assert_eq!(f.num_insts(), 3);
        assert!(f.terminator(entry).is_some());
    }

    #[test]
    fn builds_loop_with_phi() {
        // i = 0; while (i < n) i++; return i
        let mut f = Function::new("count", vec![Param::new("n", Type::I64)], Type::I64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::imm(0i64));
        let c = b.icmp(ICmpPred::Slt, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i1 = b.add(i, Value::imm(1i64));
        b.add_phi_incoming(i, body, i1);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(i));

        assert_eq!(f.num_blocks(), 4);
        let phis = f.phis(header);
        assert_eq!(phis.len(), 1);
        match &f.inst(phis[0]).kind {
            InstKind::Phi { incomings } => assert_eq!(incomings.len(), 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn global_thread_id_shape() {
        let mut f = Function::new("k", vec![], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let gid = b.global_thread_id();
        assert_eq!(f.value_type(gid), Type::I64);
    }

    #[test]
    fn types_flow_through() {
        let mut f = Function::new("k", vec![Param::new("p", Type::Ptr)], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let addr = b.gep(Value::Arg(0), Value::imm(2i64), 8);
        assert_eq!(f.value_type(addr), Type::Ptr);
        let mut b = FunctionBuilder::new(&mut f);
        b.switch_to(entry);
        let v = b.load(Type::F64, addr);
        assert_eq!(f.value_type(v), Type::F64);
    }

    #[test]
    #[should_panic(expected = "no current block")]
    fn panics_without_block() {
        let mut f = Function::new("k", vec![], Type::Void);
        let mut b = FunctionBuilder::new(&mut f);
        b.ret(None);
    }
}
