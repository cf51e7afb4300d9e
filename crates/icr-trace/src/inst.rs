//! The dynamic-instruction record that flows from a workload generator into
//! the out-of-order timing model.

/// Operation class, mirroring the functional-unit classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (1-cycle, 4 units in the paper's machine).
    IntAlu,
    /// Integer multiply/divide (long latency, 1 unit).
    IntMul,
    /// Floating-point add/compare (2-cycle, 4 units).
    FpAlu,
    /// Floating-point multiply/divide (long latency, 1 unit).
    FpMul,
    /// Memory load (issues through the LSQ to the dL1).
    Load,
    /// Memory store (issues through the LSQ; retires via a write buffer).
    Store,
    /// Conditional branch (resolved at execute; mispredictions flush).
    Branch,
}

impl OpClass {
    /// `true` for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// An architectural register name. The machine has 32 integer + 32 FP
/// registers; the generator hands out indices `0..64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// One dynamic instruction.
///
/// This is a *timing* record: it names the registers it reads/writes (for
/// dependence tracking), the memory address it touches (for the cache
/// model), and its branch outcome (for the predictor) — everything
/// `sim-outorder` would extract from a real instruction, minus the
/// semantics the reliability study doesn't need.
///
/// A record is 24 bytes. A load or store has an effective address and no
/// branch target; a branch has a target and no effective address; every
/// other op has neither. So one word, `addr`, private to this crate,
/// holds whichever of the two the op has (or 0), read through
/// [`mem_addr`](Self::mem_addr) and [`target`](Self::target). Both stay
/// full 64-bit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Fetch address of this instruction.
    pub pc: u64,
    /// A load's or store's effective address, a branch's target, else 0.
    pub(crate) addr: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if the op writes one.
    pub dest: Option<Reg>,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// For branches: whether the branch is taken.
    pub taken: bool,
}

const _: () = assert!(std::mem::size_of::<Inst>() == 24);

impl Inst {
    /// A non-memory, non-branch op writing `dest`, if any.
    pub fn alu(pc: u64, op: OpClass, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        debug_assert!(!op.is_mem() && op != OpClass::Branch);
        Inst {
            pc,
            addr: 0,
            op,
            dest,
            srcs,
            taken: false,
        }
    }

    /// A load of `addr` into `dest`, if any, with address operands `srcs`.
    pub fn load(pc: u64, addr: u64, dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> Self {
        Inst {
            pc,
            addr,
            op: OpClass::Load,
            dest,
            srcs,
            taken: false,
        }
    }

    /// A store to `addr` reading `srcs` (the stored value, then the base).
    pub fn store(pc: u64, addr: u64, srcs: [Option<Reg>; 2]) -> Self {
        Inst {
            pc,
            addr,
            op: OpClass::Store,
            dest: None,
            srcs,
            taken: false,
        }
    }

    /// A branch at `pc` to `target`, `taken` or not, linking into `dest`
    /// if any (a RISC-V `jal ra, f`).
    pub fn branch(
        pc: u64,
        target: u64,
        taken: bool,
        dest: Option<Reg>,
        srcs: [Option<Reg>; 2],
    ) -> Self {
        Inst {
            pc,
            addr: target,
            op: OpClass::Branch,
            dest,
            srcs,
            taken,
        }
    }

    /// Effective address of a load or store; `None` for every other op.
    #[inline]
    pub fn mem_addr(&self) -> Option<u64> {
        self.op.is_mem().then_some(self.addr)
    }

    /// A branch's target when taken; 0 for every other op.
    #[inline]
    pub fn target(&self) -> u64 {
        if self.op == OpClass::Branch {
            self.addr
        } else {
            0
        }
    }
}

/// Highest architectural register index, exclusive: 32 integer + 32 FP.
pub const REG_LIMIT: u8 = 64;

/// Why an [`Inst`] violates the stream contract; see [`validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstError {
    /// A register index is ≥ [`REG_LIMIT`].
    RegOutOfRange {
        /// Which field held the bad index (`"dest"`, `"src0"`, `"src1"`).
        field: &'static str,
        /// The offending index.
        reg: u8,
    },
    /// An op that is neither a memory op nor a branch, carrying a nonzero
    /// address word (only reachable by rewriting a record's `op`).
    AddressOnNonMemOp(OpClass),
    /// A non-branch with `taken` set.
    BranchFieldsOnNonBranch(OpClass),
    /// A branch whose [`Inst::target`] is zero (no code lives at address 0).
    BranchWithoutTarget,
}

impl std::fmt::Display for InstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstError::RegOutOfRange { field, reg } => {
                write!(f, "{field} register index {reg} is outside 0..{REG_LIMIT}")
            }
            InstError::AddressOnNonMemOp(op) => {
                write!(
                    f,
                    "{op:?} is neither a memory op nor a branch but carries an address"
                )
            }
            InstError::BranchFieldsOnNonBranch(op) => {
                write!(f, "{op:?} is not a branch but has taken set")
            }
            InstError::BranchWithoutTarget => write!(f, "branch with target 0"),
        }
    }
}

impl std::error::Error for InstError {}

/// Checks the invariants every trace producer — the synthetic
/// [`crate::generator::TraceGenerator`], the `icr-isa` interpreter, and
/// the on-disk reader in [`crate::disk`] — must uphold before handing an
/// instruction to the timing model:
///
/// * every named register index is `< 64` (32 integer + 32 FP);
/// * an op that is neither a load, a store nor a branch has a zero
///   address word;
/// * only branches set `taken`, and a branch's `target` is nonzero
///   (jumps and conditional branches both record the would-be-taken
///   target).
///
/// A load or store always has an address (its type cannot hold one
/// without), so no check is needed for it. Branches *may* write a
/// destination register (a RISC-V `jal ra, f` links), so `dest` is
/// unconstrained beyond the index range.
pub fn validate(inst: &Inst) -> Result<(), InstError> {
    for (field, reg) in [
        ("dest", inst.dest),
        ("src0", inst.srcs[0]),
        ("src1", inst.srcs[1]),
    ] {
        if let Some(Reg(r)) = reg {
            if r >= REG_LIMIT {
                return Err(InstError::RegOutOfRange { field, reg: r });
            }
        }
    }
    if inst.op == OpClass::Branch {
        if inst.addr == 0 {
            return Err(InstError::BranchWithoutTarget);
        }
        return Ok(());
    }
    if !inst.op.is_mem() && inst.addr != 0 {
        return Err(InstError::AddressOnNonMemOp(inst.op));
    }
    if inst.taken {
        return Err(InstError::BranchFieldsOnNonBranch(inst.op));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_mem_predicate() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(!OpClass::Branch.is_mem());
    }

    #[test]
    fn constructors_fill_fields() {
        let ld = Inst::load(0x100, 0x2000, Some(Reg(3)), [Some(Reg(4)), None]);
        assert_eq!(ld.op, OpClass::Load);
        assert_eq!(ld.mem_addr(), Some(0x2000));
        assert_eq!(ld.target(), 0);
        assert_eq!(ld.dest, Some(Reg(3)));

        let st = Inst::store(0x104, 0x2008, [Some(Reg(3)), None]);
        assert_eq!(st.op, OpClass::Store);
        assert_eq!(st.mem_addr(), Some(0x2008));
        assert_eq!(st.dest, None);
        assert_eq!(st.srcs[0], Some(Reg(3)));

        let br = Inst::branch(0x108, 0x80, true, None, [Some(Reg(1)), None]);
        assert!(br.taken);
        assert_eq!(br.target(), 0x80);
        assert_eq!(br.mem_addr(), None);

        let alu = Inst::alu(0x10c, OpClass::IntMul, Some(Reg(2)), [None, None]);
        assert_eq!((alu.mem_addr(), alu.target()), (None, 0));
    }

    #[test]
    fn addresses_and_targets_stay_exact_at_full_width() {
        for wide in [u64::MAX, 1 << 63, 0xdead_beef_cafe_f00d] {
            let ld = Inst::load(0, wide, None, [None, None]);
            assert_eq!(ld.mem_addr(), Some(wide));
            let br = Inst::branch(0, wide, false, None, [None, None]);
            assert_eq!(br.target(), wide);
        }
        // A load of address 0 still has an address.
        assert_eq!(Inst::load(0, 0, None, [None, None]).mem_addr(), Some(0));
    }

    #[test]
    fn constructors_validate() {
        validate(&Inst::alu(
            0x100,
            OpClass::IntAlu,
            Some(Reg(5)),
            [Some(Reg(1)), None],
        ))
        .unwrap();
        validate(&Inst::load(
            0x100,
            0x2000,
            Some(Reg(3)),
            [Some(Reg(4)), None],
        ))
        .unwrap();
        validate(&Inst::store(0x104, 0x2008, [Some(Reg(3)), None])).unwrap();
        validate(&Inst::branch(0x108, 0x80, true, None, [Some(Reg(1)), None])).unwrap();
    }

    #[test]
    fn validate_rejects_each_broken_invariant() {
        let mut bad_reg = Inst::alu(0, OpClass::IntAlu, Some(Reg(64)), [None, None]);
        assert_eq!(
            validate(&bad_reg),
            Err(InstError::RegOutOfRange {
                field: "dest",
                reg: 64
            })
        );
        bad_reg.dest = Some(Reg(2));
        bad_reg.srcs[1] = Some(Reg(200));
        assert_eq!(
            validate(&bad_reg),
            Err(InstError::RegOutOfRange {
                field: "src1",
                reg: 200
            })
        );

        let mut stray_addr = Inst::load(0, 0x2000, Some(Reg(40)), [None, None]);
        stray_addr.op = OpClass::FpMul;
        assert_eq!(
            validate(&stray_addr),
            Err(InstError::AddressOnNonMemOp(OpClass::FpMul))
        );

        let mut stray_target = Inst::branch(0x100, 0x80, false, None, [None, None]);
        stray_target.op = OpClass::IntAlu;
        assert_eq!(
            validate(&stray_target),
            Err(InstError::AddressOnNonMemOp(OpClass::IntAlu))
        );

        let mut stray_taken = Inst::alu(0, OpClass::IntAlu, Some(Reg(1)), [None, None]);
        stray_taken.taken = true;
        assert_eq!(
            validate(&stray_taken),
            Err(InstError::BranchFieldsOnNonBranch(OpClass::IntAlu))
        );
        let mut taken_store = Inst::store(0, 0x2000, [Some(Reg(1)), None]);
        taken_store.taken = true;
        assert_eq!(
            validate(&taken_store),
            Err(InstError::BranchFieldsOnNonBranch(OpClass::Store))
        );

        let untargeted = Inst::branch(0x100, 0, false, None, [None, None]);
        assert_eq!(validate(&untargeted), Err(InstError::BranchWithoutTarget));
    }
}
