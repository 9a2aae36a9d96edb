//! The random structured-kernel recipe shared by the `random_kernels`
//! and `symex_differential` property suites: both draw statements from
//! the same strategy and run them under the same launch shapes.

use gpu_sim::GlobalMemory;
use proptest::prelude::*;
use simt_compiler::{compile, CompiledKernel};
use simt_isa::{CmpOp, Dim3, Guard, KernelBuilder, MemSpace, SpecialReg, Value};

/// One generated straight-line or guarded statement. Register operands
/// are indices into the value pool modulo its current length, so any
/// index is valid whatever the pool size.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `pool.push(pool[a] + pool[b])`
    Add(usize, usize),
    /// `pool.push(pool[a] - pool[b])`
    Sub(usize, usize),
    /// `pool.push(pool[a] + imm)`
    AddImm(usize, u32),
    /// `pool.push(min(pool[a], pool[b] + imm))`
    MinImm(usize, usize, u32),
    /// `pool.push(pool[a] & mask)` — deliberately non-affine.
    And(usize, u32),
    /// `pool.push(pool[a] << n)`, `n < 4`.
    Shl(usize, u32),
    /// `if (pool[c] cmp imm) { pool[d] += pool[a] }` — a guarded update
    /// of an existing value behind a possibly divergent branch.
    IfAdd { c: usize, lt: bool, imm: u32, d: usize, a: usize },
    /// `if (pool[c] cmp imm) { fresh += pool[a] }` where `fresh` is a
    /// never-otherwise-written register: exercises the entry-uniform
    /// refinement against register-file zero-init.
    IfFresh { c: usize, lt: bool, imm: u32, a: usize },
}

/// Builds kernel `name` from a statement recipe. The pool starts with
/// `tid.x`, `tid.y`, `warpid` and a value loaded from `in[tid.x]`, so
/// generated dataflow mixes affine, vector and memory-derived sources.
/// The kernel ends by storing the last pool value to `out[linear tid]`.
pub fn build(name: &str, stmts: &[Stmt], block: Dim3) -> CompiledKernel {
    let mut b = KernelBuilder::new(name);
    let tx = b.special(SpecialReg::TidX);
    let ty = b.special(SpecialReg::TidY);
    let w = b.special(SpecialReg::WarpId);
    let inp = b.param(1);
    let off = b.shl_imm(tx, 2);
    let laddr = b.iadd(inp, off);
    let ld = b.load(MemSpace::Global, laddr, 0);
    let mut pool = vec![tx, ty, w, ld];
    let pick = |pool: &Vec<simt_isa::Reg>, i: usize| pool[i % pool.len()];
    for s in stmts {
        match *s {
            Stmt::Add(a, c) => {
                let r = b.iadd(pick(&pool, a), pick(&pool, c));
                pool.push(r);
            }
            Stmt::Sub(a, c) => {
                let r = b.isub(pick(&pool, a), pick(&pool, c));
                pool.push(r);
            }
            Stmt::AddImm(a, imm) => {
                let r = b.iadd(pick(&pool, a), imm);
                pool.push(r);
            }
            Stmt::MinImm(a, c, imm) => {
                let shifted = b.iadd(pick(&pool, c), imm);
                let r = b.imin(pick(&pool, a), shifted);
                pool.push(r);
            }
            Stmt::And(a, mask) => {
                let r = b.and(pick(&pool, a), mask);
                pool.push(r);
            }
            Stmt::Shl(a, n) => {
                let r = b.shl_imm(pick(&pool, a), n % 4);
                pool.push(r);
            }
            Stmt::IfAdd { c, lt, imm, d, a } => {
                let cmp = if lt { CmpOp::Lt } else { CmpOp::Eq };
                let p = b.setp(cmp, pick(&pool, c), imm);
                let dst = pick(&pool, d);
                let src = pick(&pool, a);
                b.if_then(Guard::if_true(p), |b| {
                    b.iadd_to(dst, src, 1u32);
                });
            }
            Stmt::IfFresh { c, lt, imm, a } => {
                let cmp = if lt { CmpOp::Lt } else { CmpOp::Eq };
                let p = b.setp(cmp, pick(&pool, c), imm);
                let fresh = b.alloc();
                let src = pick(&pool, a);
                b.if_then(Guard::if_true(p), |b| {
                    b.iadd_to(fresh, src, 0u32);
                });
                pool.push(fresh);
            }
        }
    }
    let last = *pool.last().unwrap();
    let lin = b.imad(ty, block.x, tx);
    let soff = b.shl_imm(lin, 2);
    let out = b.param(0);
    let saddr = b.iadd(out, soff);
    b.store(MemSpace::Global, saddr, last, 0);
    compile(b.finish())
}

pub fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let ix = || 0usize..8;
    prop_oneof![
        (ix(), ix()).prop_map(|(a, c)| Stmt::Add(a, c)),
        (ix(), ix()).prop_map(|(a, c)| Stmt::Sub(a, c)),
        (ix(), 0u32..64).prop_map(|(a, imm)| Stmt::AddImm(a, imm)),
        (ix(), ix(), 0u32..64).prop_map(|(a, c, imm)| Stmt::MinImm(a, c, imm)),
        (ix(), 1u32..16).prop_map(|(a, mask)| Stmt::And(a, mask)),
        (ix(), 0u32..4).prop_map(|(a, n)| Stmt::Shl(a, n)),
        (ix(), any::<bool>(), 0u32..64, ix(), ix()).prop_map(|(c, lt, imm, d, a)| Stmt::IfAdd {
            c,
            lt,
            imm,
            d,
            a
        }),
        (ix(), any::<bool>(), 0u32..64, ix()).prop_map(|(c, lt, imm, a)| Stmt::IfFresh {
            c,
            lt,
            imm,
            a
        }),
    ]
}

/// The catalog's launch shapes: a plain 1D block, a `tid.y`-promoting
/// square-ish block, and the `(16,4)` block that promotes conditional
/// redundancy but not the y dimension.
pub fn launches() -> Vec<Dim3> {
    vec![Dim3::one_d(64), Dim3::two_d(16, 4), Dim3::two_d(8, 4)]
}

/// A 64-word `out` buffer and a 64-word `in` buffer holding `input`, and
/// the `[out, in]` kernel parameters.
pub fn memory_with_input(input: &[u32]) -> (GlobalMemory, Vec<Value>) {
    let mut memory = GlobalMemory::new();
    let out = memory.alloc(64 * 4);
    let inp = memory.alloc(64 * 4);
    memory.write_slice_u32(inp, input);
    (memory, vec![Value(out as u32), Value(inp as u32)])
}
