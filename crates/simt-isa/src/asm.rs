//! A text assembler for the virtual ISA.
//!
//! Parses the exact syntax the [`Display`](std::fmt::Display)
//! implementation of [`Instruction`] and [`Kernel::disassemble`] emit, so
//! kernels round-trip through text:
//!
//! ```text
//! // kernel example
//! 0x0000  s2r %tid.x R0
//! 0x0008  shl R1, R0, 0x2
//! 0x0010  ld.global R2, [R1+0x40]
//! 0x0018  setp.lt.s32 P0, R0, 0x10
//! 0x0020  @P0 bra 0x30
//! 0x0028  st.global [R1], R2
//! 0x0030  exit
//! ```
//!
//! Leading byte addresses and `DR`/`CR`/`V` marking tags (from
//! [`annotated_disassembly`]) are accepted and ignored / returned.
//!
//! [`annotated_disassembly`]: ../simt_compiler/struct.CompiledKernel.html

use crate::instruction::{Guard, Instruction, Operand};
use crate::kernel::Kernel;
use crate::op::{AtomOp, CmpOp, MemSpace, Op};
use crate::reg::{Pred, Reg, SpecialReg};
use crate::{Marking, INSTR_BYTES};
use std::fmt;

/// Errors produced by the assembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { line, message: message.into() })
}

fn parse_u32(line: usize, tok: &str) -> Result<u32, AsmError> {
    let tok = tok.trim();
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = if let Some(hex) = body.strip_prefix("0x") {
        u32::from_str_radix(hex, 16)
    } else {
        body.parse::<u32>()
    };
    match v {
        Ok(v) => Ok(if neg { (v as i32).wrapping_neg() as u32 } else { v }),
        Err(_) => err(line, format!("bad integer `{tok}`")),
    }
}

fn parse_reg(line: usize, tok: &str) -> Result<Reg, AsmError> {
    let tok = tok.trim();
    match tok.strip_prefix('R').and_then(|n| n.parse::<u8>().ok()) {
        Some(n) => Ok(Reg(n)),
        None => err(line, format!("expected register, found `{tok}`")),
    }
}

fn parse_pred(line: usize, tok: &str) -> Result<Pred, AsmError> {
    let tok = tok.trim();
    match tok.strip_prefix('P').and_then(|n| n.parse::<u8>().ok()) {
        Some(n) => Ok(Pred(n)),
        None => err(line, format!("expected predicate, found `{tok}`")),
    }
}

fn parse_operand(line: usize, tok: &str) -> Result<Operand, AsmError> {
    let tok = tok.trim();
    if tok.starts_with('R') {
        parse_reg(line, tok).map(Operand::Reg)
    } else {
        parse_u32(line, tok).map(Operand::Imm)
    }
}

/// Parses `[base]` or `[base+0x10]` / `[base+-0x10]`.
fn parse_addr(line: usize, tok: &str) -> Result<(Operand, i32), AsmError> {
    let tok = tok.trim();
    let inner = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| AsmError { line, message: format!("expected [address], found `{tok}`") })?;
    match inner.split_once('+') {
        Some((base, off)) => {
            let b = parse_operand(line, base)?;
            let o = parse_u32(line, off)? as i32;
            Ok((b, o))
        }
        None => Ok((parse_operand(line, inner)?, 0)),
    }
}

fn parse_cmp(line: usize, tok: &str) -> Result<CmpOp, AsmError> {
    CmpOp::ALL
        .iter()
        .copied()
        .find(|c| c.to_string() == tok)
        .ok_or_else(|| AsmError { line, message: format!("unknown comparison `{tok}`") })
}

fn parse_special(line: usize, tok: &str) -> Result<SpecialReg, AsmError> {
    SpecialReg::ALL
        .iter()
        .copied()
        .find(|s| s.to_string() == tok)
        .ok_or_else(|| AsmError { line, message: format!("unknown special register `{tok}`") })
}

/// Splits a comma-separated operand list, respecting `[...]` brackets.
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parses one instruction line (without address/marking prefixes).
///
/// # Errors
///
/// Returns an [`AsmError`] describing the first syntax problem.
pub fn parse_instruction(line_no: usize, text: &str) -> Result<Instruction, AsmError> {
    let mut rest = text.trim();

    // Optional guard.
    let mut guard = None;
    if let Some(g) = rest.strip_prefix('@') {
        let (gtok, tail) = g
            .split_once(char::is_whitespace)
            .ok_or_else(|| AsmError { line: line_no, message: "guard without opcode".into() })?;
        let (negate, ptok) = match gtok.strip_prefix('!') {
            Some(p) => (true, p),
            None => (false, gtok),
        };
        guard = Some(Guard { pred: parse_pred(line_no, ptok)?, negate });
        rest = tail.trim();
    }

    let (mnemonic, operands_text) = match rest.split_once(char::is_whitespace) {
        Some((m, t)) => (m, t.trim()),
        None => (rest, ""),
    };
    let ops = split_operands(operands_text);
    let opn = |i: usize| -> Result<&String, AsmError> {
        ops.get(i).ok_or_else(|| AsmError {
            line: line_no,
            message: format!("`{mnemonic}` missing operand {i}"),
        })
    };

    let simple = |op: Op, n_src: usize| -> Result<Instruction, AsmError> {
        let dst = parse_reg(line_no, opn(0)?)?;
        let mut srcs = Vec::with_capacity(n_src);
        for i in 0..n_src {
            srcs.push(parse_operand(line_no, opn(1 + i)?)?);
        }
        Ok(Instruction::new(op, Some(dst), None, srcs))
    };

    let mut instr = match mnemonic {
        "iadd" => simple(Op::IAdd, 2)?,
        "isub" => simple(Op::ISub, 2)?,
        "imul" => simple(Op::IMul, 2)?,
        "imul.hi" => simple(Op::IMulHi, 2)?,
        "imad" => simple(Op::IMad, 3)?,
        "imin" => simple(Op::IMin, 2)?,
        "imax" => simple(Op::IMax, 2)?,
        "shl" => simple(Op::Shl, 2)?,
        "shr" => simple(Op::Shr, 2)?,
        "sra" => simple(Op::Sra, 2)?,
        "and" => simple(Op::And, 2)?,
        "or" => simple(Op::Or, 2)?,
        "xor" => simple(Op::Xor, 2)?,
        "not" => simple(Op::Not, 1)?,
        "fadd" => simple(Op::FAdd, 2)?,
        "fsub" => simple(Op::FSub, 2)?,
        "fmul" => simple(Op::FMul, 2)?,
        "ffma" => simple(Op::FFma, 3)?,
        "fmin" => simple(Op::FMin, 2)?,
        "fmax" => simple(Op::FMax, 2)?,
        "fdiv" => simple(Op::FDiv, 2)?,
        "frcp" => simple(Op::FRcp, 1)?,
        "fsqrt" => simple(Op::FSqrt, 1)?,
        "fexp2" => simple(Op::FExp2, 1)?,
        "flog2" => simple(Op::FLog2, 1)?,
        "mov" => simple(Op::Mov, 1)?,
        "i2f" => simple(Op::I2F, 1)?,
        "f2i" => simple(Op::F2I, 1)?,
        "s2r" => {
            // Display form: `s2r %tid.x R0` (space-separated).
            let mut it = operands_text.split_whitespace();
            let s = parse_special(line_no, it.next().unwrap_or(""))?;
            let dst = parse_reg(line_no, it.next().unwrap_or(""))?;
            Instruction::new(Op::S2R(s), Some(dst), None, vec![])
        }
        "bar.sync" => Instruction::new(Op::Bar, None, None, vec![]),
        "exit" => Instruction::new(Op::Exit, None, None, vec![]),
        "bra" => {
            let target_bytes = parse_u32(line_no, opn(0)?)? as u64;
            if !target_bytes.is_multiple_of(INSTR_BYTES) {
                return err(line_no, "branch target is not instruction-aligned");
            }
            Instruction::new(
                Op::Bra { target: (target_bytes / INSTR_BYTES) as usize },
                None,
                None,
                vec![],
            )
        }
        m if m.starts_with("setp.") => {
            // setp.<cmp>.<s32|f32>
            let mut parts = m.split('.');
            let _ = parts.next();
            let cmp = parse_cmp(line_no, parts.next().unwrap_or(""))?;
            let ty = parts.next().unwrap_or("s32");
            let op = if ty == "f32" { Op::SetpF(cmp) } else { Op::Setp(cmp) };
            let pdst = parse_pred(line_no, opn(0)?)?;
            let a = parse_operand(line_no, opn(1)?)?;
            let b = parse_operand(line_no, opn(2)?)?;
            Instruction::new(op, None, Some(pdst), vec![a, b])
        }
        m if m.starts_with("sel.") => {
            let p = parse_pred(line_no, &m[4..])?;
            let dst = parse_reg(line_no, opn(0)?)?;
            let a = parse_operand(line_no, opn(1)?)?;
            let b = parse_operand(line_no, opn(2)?)?;
            Instruction::new(Op::Sel(p), Some(dst), None, vec![a, b])
        }
        m if m.starts_with("ld.") => {
            let space = match &m[3..] {
                "global" => MemSpace::Global,
                "shared" => MemSpace::Shared,
                "param" => MemSpace::Param,
                other => return err(line_no, format!("unknown memory space `{other}`")),
            };
            let dst = parse_reg(line_no, opn(0)?)?;
            let (addr, off) = parse_addr(line_no, opn(1)?)?;
            Instruction::new(Op::Ld(space), Some(dst), None, vec![addr]).with_offset(off)
        }
        m if m.starts_with("st.") => {
            let space = match &m[3..] {
                "global" => MemSpace::Global,
                "shared" => MemSpace::Shared,
                other => return err(line_no, format!("cannot store to space `{other}`")),
            };
            let (addr, off) = parse_addr(line_no, opn(0)?)?;
            let val = parse_operand(line_no, opn(1)?)?;
            Instruction::new(Op::St(space), None, None, vec![addr, val]).with_offset(off)
        }
        m if m.starts_with("atom.") => {
            let a = match &m[5..] {
                "add" => AtomOp::Add,
                "max" => AtomOp::Max,
                "min" => AtomOp::Min,
                "exch" => AtomOp::Exch,
                other => return err(line_no, format!("unknown atomic `{other}`")),
            };
            let dst = parse_reg(line_no, opn(0)?)?;
            let (addr, off) = parse_addr(line_no, opn(1)?)?;
            let val = parse_operand(line_no, opn(2)?)?;
            Instruction::new(Op::Atom(a), Some(dst), None, vec![addr, val]).with_offset(off)
        }
        other => return err(line_no, format!("unknown mnemonic `{other}`")),
    };
    instr.guard = guard;
    Ok(instr)
}

/// Parses a whole kernel listing. Accepts (and strips) `//` comments, blank
/// lines, leading `DR`/`CR`/`V` marking tags, and leading `0x...` byte
/// addresses. Returns the kernel plus any markings found (padded with
/// [`Marking::Vector`] when absent).
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered.
pub fn parse_kernel(name: &str, text: &str) -> Result<(Kernel, Vec<Marking>), AsmError> {
    let mut instrs = Vec::new();
    let mut markings = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let mut line = raw.trim();
        if let Some(pos) = line.find("//") {
            line = line[..pos].trim();
        }
        if line.is_empty() {
            continue;
        }
        // Optional marking tag.
        let mut marking = Marking::Vector;
        for (tag, m) in [
            ("DR", Marking::Redundant),
            ("CR", Marking::ConditionallyRedundant),
            ("V", Marking::Vector),
        ] {
            if let Some(rest) = line.strip_prefix(tag) {
                if rest.starts_with(char::is_whitespace) {
                    marking = m;
                    line = rest.trim();
                    break;
                }
            }
        }
        // Optional leading byte address followed by two spaces or more.
        if line.starts_with("0x") {
            if let Some((addr, rest)) = line.split_once(char::is_whitespace) {
                if u64::from_str_radix(addr.trim_start_matches("0x"), 16).is_ok()
                    && !rest.trim().is_empty()
                {
                    line = rest.trim();
                }
            }
        }
        instrs.push(parse_instruction(line_no, line)?);
        markings.push(marking);
    }
    Ok((Kernel::new(name, instrs), markings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_alu() {
        let i = parse_instruction(1, "iadd R1, R2, 0x10")
            .expect("well-formed binary ALU asm must parse");
        assert_eq!(i.to_string(), "iadd R1, R2, 0x10");
        let i = parse_instruction(1, "imad R0, R1, R2, 0x7")
            .expect("well-formed three-source ALU asm must parse");
        assert_eq!(i.op, Op::IMad);
        assert_eq!(i.srcs.len(), 3);
    }

    #[test]
    fn parse_guard_and_branch() {
        let i = parse_instruction(1, "@!P0 bra 0x20")
            .expect("guarded branch with an aligned target must parse");
        assert_eq!(i.guard, Some(Guard::if_false(Pred(0))));
        assert_eq!(i.op, Op::Bra { target: 4 });
        assert!(parse_instruction(1, "bra 0x21").is_err(), "unaligned target");
    }

    #[test]
    fn parse_memory_forms() {
        let i = parse_instruction(1, "ld.shared R3, [R7+0x80]")
            .expect("load with a bracketed address and offset must parse");
        assert_eq!(i.op, Op::Ld(MemSpace::Shared));
        assert_eq!(i.offset, 0x80);
        let i = parse_instruction(1, "st.global [R2], R9")
            .expect("store with a bracketed address must parse");
        assert_eq!(i.op, Op::St(MemSpace::Global));
        let i = parse_instruction(1, "atom.add R1, [R2], R3")
            .expect("atomic with destination and bracketed address must parse");
        assert_eq!(i.op, Op::Atom(AtomOp::Add));
    }

    #[test]
    fn parse_setp_sel_s2r() {
        let i = parse_instruction(1, "setp.lt.s32 P2, R0, 0x8")
            .expect("integer setp with a predicate destination must parse");
        assert_eq!(i.op, Op::Setp(CmpOp::Lt));
        assert_eq!(i.pdst, Some(Pred(2)));
        let i = parse_instruction(1, "setp.ge.f32 P0, R1, R2")
            .expect("float setp with a predicate destination must parse");
        assert_eq!(i.op, Op::SetpF(CmpOp::Ge));
        let i = parse_instruction(1, "sel.P3 R5, R1, R2")
            .expect("sel naming its predicate in the mnemonic must parse");
        assert_eq!(i.op, Op::Sel(Pred(3)));
        let i = parse_instruction(1, "s2r %tid.x R0")
            .expect("s2r naming a special register must parse");
        assert_eq!(i.op, Op::S2R(SpecialReg::TidX));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_kernel("t", "iadd R0, R1, R2\nbogus R1\nexit").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn kernel_roundtrip_through_disassembly() {
        use crate::builder::KernelBuilder;
        use crate::reg::SpecialReg;
        let mut b = KernelBuilder::new("rt");
        let t = b.special(SpecialReg::TidX);
        let p0 = b.param(0);
        let o = b.shl_imm(t, 2);
        let a = b.iadd(p0, o);
        let v = b.load(MemSpace::Global, a, 0);
        let q = b.setp(CmpOp::Lt, t, 16u32);
        b.if_then(Guard::if_true(q), |b| {
            b.store(MemSpace::Global, a, v, 4);
        });
        b.barrier();
        let k = b.finish();

        let text = k.disassemble();
        let (k2, _) = parse_kernel("rt", &text).expect("parses its own disassembly");
        assert_eq!(k.instrs, k2.instrs);
    }

    #[test]
    fn accepts_marking_tags_and_comments() {
        let src = "\
// a tiny kernel
DR 0x0000  mov R0, 0x1
CR 0x0008  iadd R1, R0, 0x2   // comment
V  0x0010  exit
";
        let (k, m) = parse_kernel("tagged", src)
            .expect("marking tags, byte PCs and comments are all skippable");
        assert_eq!(k.len(), 3);
        assert_eq!(m, vec![Marking::Redundant, Marking::ConditionallyRedundant, Marking::Vector]);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn negative_offsets_parse() {
        let i = parse_instruction(1, "ld.global R1, [R2+-0x4]")
            .expect("negative load offsets are valid asm and must parse");
        assert_eq!(i.offset, -4);
    }
}
