//! The deterministic RV32IM interpreter.
//!
//! A [`Machine`] is a flat little-endian memory, 32 integer registers
//! with `x0` hardwired to zero, and a program counter. Each [`step`]
//! fetches the word at `pc` from memory, decodes it, executes it
//! architecturally, and returns the [`icr_trace::Inst`] timing record
//! the downstream cache/pipeline stack consumes — PC, op class,
//! dest/source registers (with `x0` elided, since nothing depends on
//! it), the effective address for loads/stores, and taken/target for
//! control flow. `ecall` retires one final record and halts.
//!
//! [`step`]: Machine::step

use crate::decode::{self, AluOp, BranchCond, Decoded, MulOp};
use icr_trace::{Inst, OpClass, Reg};

/// Bytes of flat memory (1 MiB).
pub const MEM_SIZE: usize = 1 << 20;
/// Load address of the program image; execution starts here.
pub const CODE_BASE: u32 = 0x1000;
/// Initial stack pointer, at the top of memory.
pub const STACK_TOP: u32 = (MEM_SIZE - 16) as u32;

/// An architectural execution fault. The embedded kernels never fault;
/// hitting one of these means the program (or the interpreter) is wrong,
/// so the error carries enough context to debug the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// `pc` is misaligned or outside memory.
    BadFetch {
        /// The faulting program counter.
        pc: u32,
    },
    /// The fetched word does not decode.
    BadDecode {
        /// The faulting program counter.
        pc: u32,
        /// The decoder's complaint.
        cause: decode::DecodeError,
    },
    /// A load/store is misaligned or outside memory.
    BadAccess {
        /// The faulting program counter.
        pc: u32,
        /// The effective address.
        addr: u32,
        /// Access size in bytes.
        len: u32,
    },
    /// The instruction budget ran out before `ecall`.
    NoHalt {
        /// Instructions retired before giving up.
        retired: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadFetch { pc } => write!(f, "bad fetch at pc {pc:#010x}"),
            ExecError::BadDecode { pc, cause } => write!(f, "at pc {pc:#010x}: {cause}"),
            ExecError::BadAccess { pc, addr, len } => {
                write!(f, "bad {len}-byte access to {addr:#010x} at pc {pc:#010x}")
            }
            ExecError::NoHalt { retired } => {
                write!(f, "no ecall after {retired} retired instructions")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// `x0`-elided register mapping into the shared 0..64 `Reg` space (the
/// interpreter only populates the 32 integer names).
fn r(index: u8) -> Option<Reg> {
    (index != 0).then_some(Reg(index))
}

/// The interpreter state.
pub struct Machine {
    mem: Vec<u8>,
    /// Integer register file; `regs[0]` is forced to zero after every
    /// step.
    pub regs: [u32; 32],
    /// Next fetch address.
    pub pc: u32,
    /// Set once `ecall` retires.
    pub halted: bool,
    /// Instructions retired so far.
    pub retired: u64,
}

impl Machine {
    /// A machine with `program` loaded at [`CODE_BASE`], `pc` at its
    /// first word, the stack pointer at [`STACK_TOP`], and the kernel
    /// seed in `a0`. Memory is otherwise zero.
    pub fn new(program: &[u32], seed: u64) -> Self {
        assert!(
            CODE_BASE as usize + program.len() * 4 <= MEM_SIZE,
            "program too large"
        );
        let mut mem = vec![0u8; MEM_SIZE];
        for (i, word) in program.iter().enumerate() {
            let at = CODE_BASE as usize + i * 4;
            mem[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        let mut regs = [0u32; 32];
        regs[2] = STACK_TOP;
        regs[10] = (seed ^ (seed >> 32)) as u32;
        Machine {
            mem,
            regs,
            pc: CODE_BASE,
            halted: false,
            retired: 0,
        }
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, ExecError> {
        let a = addr as usize;
        if !addr.is_multiple_of(len) || a + len as usize > MEM_SIZE {
            return Err(ExecError::BadAccess {
                pc: self.pc,
                addr,
                len,
            });
        }
        Ok(a)
    }

    fn load(&self, addr: u32, width: decode::LoadWidth) -> Result<u32, ExecError> {
        use decode::LoadWidth::*;
        let a = self.check(addr, width.bytes())?;
        Ok(match width {
            Byte => self.mem[a] as i8 as i32 as u32,
            ByteU => u32::from(self.mem[a]),
            Half => i32::from(i16::from_le_bytes([self.mem[a], self.mem[a + 1]])) as u32,
            HalfU => u32::from(u16::from_le_bytes([self.mem[a], self.mem[a + 1]])),
            Word => u32::from_le_bytes(self.mem[a..a + 4].try_into().expect("4 bytes")),
        })
    }

    fn store(&mut self, addr: u32, width: decode::StoreWidth, value: u32) -> Result<(), ExecError> {
        use decode::StoreWidth::*;
        let a = self.check(addr, width.bytes())?;
        match width {
            Byte => self.mem[a] = value as u8,
            Half => self.mem[a..a + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            Word => self.mem[a..a + 4].copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    fn alu(op: AluOp, a: u32, b: u32) -> u32 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 0x1f),
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 0x1f),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }

    fn mul(op: MulOp, a: u32, b: u32) -> u32 {
        let (sa, sb) = (a as i32, b as i32);
        match op {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Mulh => ((i64::from(sa) * i64::from(sb)) >> 32) as u32,
            MulOp::Mulhsu => ((i64::from(sa) * i64::from(b)) >> 32) as u32,
            MulOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
            // RISC-V division never traps: /0 gives all-ones (or 0 for
            // rem), and INT_MIN / -1 wraps to INT_MIN.
            MulOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    sa.wrapping_div(sb) as u32
                }
            }
            MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            MulOp::Rem => {
                if b == 0 {
                    a
                } else {
                    sa.wrapping_rem(sb) as u32
                }
            }
            MulOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    fn write(&mut self, rd: u8, value: u32) {
        self.regs[usize::from(rd)] = value;
        self.regs[0] = 0;
    }

    /// Fetch–decode–execute one instruction; returns its timing record.
    /// Calling `step` on a halted machine is a bug in the driver.
    pub fn step(&mut self) -> Result<Inst, ExecError> {
        assert!(!self.halted, "step on a halted machine");
        let pc = self.pc;
        if !pc.is_multiple_of(4) || pc as usize + 4 > MEM_SIZE {
            return Err(ExecError::BadFetch { pc });
        }
        let word = u32::from_le_bytes(
            self.mem[pc as usize..pc as usize + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let decoded = decode::decode(word).map_err(|cause| ExecError::BadDecode { pc, cause })?;
        let mut next_pc = pc.wrapping_add(4);
        let record = match decoded {
            Decoded::Lui { rd, imm } => {
                self.write(rd, imm);
                Inst::alu(u64::from(pc), OpClass::IntAlu, r(rd), [None, None])
            }
            Decoded::Auipc { rd, imm } => {
                self.write(rd, pc.wrapping_add(imm));
                Inst::alu(u64::from(pc), OpClass::IntAlu, r(rd), [None, None])
            }
            Decoded::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u32);
                self.write(rd, pc.wrapping_add(4));
                next_pc = target;
                Inst::branch(u64::from(pc), u64::from(target), true, r(rd), [None, None])
            }
            Decoded::Jalr { rd, rs1, offset } => {
                let target = self.regs[usize::from(rs1)].wrapping_add(offset as u32) & !1;
                self.write(rd, pc.wrapping_add(4));
                next_pc = target;
                Inst::branch(
                    u64::from(pc),
                    u64::from(target),
                    true,
                    r(rd),
                    [r(rs1), None],
                )
            }
            Decoded::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.regs[usize::from(rs1)], self.regs[usize::from(rs2)]);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                let target = pc.wrapping_add(offset as u32);
                if taken {
                    next_pc = target;
                }
                Inst::branch(
                    u64::from(pc),
                    u64::from(target),
                    taken,
                    None,
                    [r(rs1), r(rs2)],
                )
            }
            Decoded::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.regs[usize::from(rs1)].wrapping_add(offset as u32);
                let value = self.load(addr, width)?;
                self.write(rd, value);
                Inst::load(u64::from(pc), u64::from(addr), r(rd), [r(rs1), None])
            }
            Decoded::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.regs[usize::from(rs1)].wrapping_add(offset as u32);
                self.store(addr, width, self.regs[usize::from(rs2)])?;
                Inst::store(u64::from(pc), u64::from(addr), [r(rs2), r(rs1)])
            }
            Decoded::OpImm { op, rd, rs1, imm } => {
                let value = Self::alu(op, self.regs[usize::from(rs1)], imm as u32);
                self.write(rd, value);
                Inst::alu(u64::from(pc), OpClass::IntAlu, r(rd), [r(rs1), None])
            }
            Decoded::Op { op, rd, rs1, rs2 } => {
                let value = Self::alu(op, self.regs[usize::from(rs1)], self.regs[usize::from(rs2)]);
                self.write(rd, value);
                Inst::alu(u64::from(pc), OpClass::IntAlu, r(rd), [r(rs1), r(rs2)])
            }
            Decoded::OpMul { op, rd, rs1, rs2 } => {
                let value = Self::mul(op, self.regs[usize::from(rs1)], self.regs[usize::from(rs2)]);
                self.write(rd, value);
                Inst::alu(u64::from(pc), OpClass::IntMul, r(rd), [r(rs1), r(rs2)])
            }
            Decoded::Ecall => {
                // The only environment call is "exit with a0"; retire it
                // as an ALU op that reads a0, then halt.
                self.halted = true;
                Inst::alu(u64::from(pc), OpClass::IntAlu, None, [Some(Reg(10)), None])
            }
        };
        self.pc = next_pc;
        self.retired += 1;
        Ok(record)
    }

    /// Runs until `ecall` or `max` retired instructions, feeding each
    /// record to `sink`. Errs with [`ExecError::NoHalt`] if the budget
    /// runs out first.
    pub fn run(&mut self, max: u64, mut sink: impl FnMut(Inst)) -> Result<(), ExecError> {
        while !self.halted {
            if self.retired >= max {
                return Err(ExecError::NoHalt {
                    retired: self.retired,
                });
            }
            sink(self.step()?);
        }
        Ok(())
    }

    /// The exit value (`a0`), meaningful once halted.
    pub fn exit_value(&self) -> u32 {
        self.regs[10]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_src(src: &str, seed: u64) -> (Machine, Vec<Inst>) {
        let program = assemble(src, CODE_BASE).unwrap();
        let mut m = Machine::new(&program, seed);
        let mut trace = Vec::new();
        m.run(1_000_000, |i| trace.push(i)).unwrap();
        (m, trace)
    }

    #[test]
    fn li_materialises_exact_constants() {
        for v in [
            0u32,
            1,
            0xffff_ffff,
            0x2_0000,
            0x7fff_ffff,
            0x8000_0000,
            0xdead_beef,
            2047,
            2048,
        ] {
            let (m, _) = run_src(&format!("li a0, {v}\necall\n"), 0);
            assert_eq!(m.exit_value(), v, "li {v:#x}");
        }
    }

    #[test]
    fn x0_is_hardwired() {
        let (m, _) = run_src("addi zero, zero, 5\nmv a0, zero\necall\n", 0);
        assert_eq!(m.exit_value(), 0);
    }

    #[test]
    fn loads_stores_roundtrip_with_extension() {
        let (m, trace) = run_src(
            "li t0, 0x20000\n\
             li t1, -2\n\
             sb t1, 0(t0)\n\
             lb t2, 0(t0)\n\
             lbu t3, 0(t0)\n\
             sub a0, t3, t2\n\
             ecall\n",
            0,
        );
        // 0xfe zero-extended minus 0xfe sign-extended: 0xfe - 0xfffffffe.
        assert_eq!(m.exit_value(), 0xfeu32.wrapping_sub(0xffff_fffe));
        let mems: Vec<_> = trace.iter().filter(|i| i.op.is_mem()).collect();
        assert_eq!(mems.len(), 3);
        assert!(mems.iter().all(|i| i.mem_addr() == Some(0x2_0000)));
    }

    #[test]
    fn division_edge_cases_follow_riscv() {
        let (m, _) = run_src(
            "li t0, -2147483648\n\
             li t1, -1\n\
             div t2, t0, t1\n\
             li t3, 7\n\
             div t4, t3, zero\n\
             rem t5, t3, zero\n\
             xor a0, t2, t4\n\
             xor a0, a0, t5\n\
             ecall\n",
            0,
        );
        // INT_MIN/-1 = INT_MIN; 7/0 = 0xffffffff; 7%0 = 7.
        assert_eq!(m.exit_value(), 0x8000_0000u32 ^ 0xffff_ffff ^ 7);
    }

    #[test]
    fn branch_records_carry_taken_and_target() {
        let (_, trace) = run_src(
            "li t0, 3\n\
             mv t1, zero\n\
             loop:\n\
             addi t1, t1, 1\n\
             blt t1, t0, loop\n\
             mv a0, t1\n\
             ecall\n",
            0,
        );
        let branches: Vec<_> = trace.iter().filter(|i| i.op == OpClass::Branch).collect();
        assert_eq!(branches.len(), 3);
        let loop_pc = branches[0].target();
        assert!(branches[0].taken && branches[1].taken && !branches[2].taken);
        assert!(branches.iter().all(|b| b.target() == loop_pc));
    }

    #[test]
    fn call_ret_links_through_ra() {
        let (m, trace) = run_src(
            "call f\n\
             addi a0, a0, 1\n\
             ecall\n\
             f:\n\
             li a0, 41\n\
             ret\n",
            0,
        );
        assert_eq!(m.exit_value(), 42);
        // call = jal ra: a Branch with a destination register.
        let call = trace.iter().find(|i| i.op == OpClass::Branch).unwrap();
        assert_eq!(call.dest, Some(Reg(1)));
        assert!(call.taken);
    }

    #[test]
    fn faults_are_precise() {
        let program = assemble("lw t0, 1(zero)\necall\n", CODE_BASE).unwrap();
        let mut m = Machine::new(&program, 0);
        assert_eq!(
            m.step(),
            Err(ExecError::BadAccess {
                pc: CODE_BASE,
                addr: 1,
                len: 4
            })
        );

        // A jump into zeroed memory decodes to opcode 0 and faults.
        let program = assemble("j 0x100\n", CODE_BASE).unwrap();
        let mut m = Machine::new(&program, 0);
        m.step().unwrap();
        assert!(matches!(m.step(), Err(ExecError::BadDecode { .. })));
    }

    #[test]
    fn same_seed_same_stream() {
        let src = "ori t0, a0, 1\nslli t1, t0, 13\nxor a0, t0, t1\necall\n";
        let (m1, t1) = run_src(src, 0xdead_beef_0042);
        let (m2, t2) = run_src(src, 0xdead_beef_0042);
        assert_eq!(t1, t2);
        assert_eq!(m1.exit_value(), m2.exit_value());
        // This straight-line program's *timing* records are seed-blind
        // (no data-dependent branches or addresses), but its
        // architectural result is not.
        let (m3, _) = run_src(src, 7);
        assert_ne!(m1.exit_value(), m3.exit_value());
    }
}
