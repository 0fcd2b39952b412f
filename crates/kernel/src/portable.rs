//! The wire form of a compiled kernel: what crosses rank boundaries.
//!
//! A [`PortableKernel`] is the serializable, fingerprint-stamped form of a
//! compiled plan — the validated program of **any kernel family** (see
//! [`crate::family`]), the block shape its plan is resolved for, the
//! optimization level, and (for the stencil family's *compiled* form) the
//! sender's **optimized DAG**.  It is what the cluster's plan-sharing
//! protocol ships between service nodes: ranks never share address space
//! (see `aohpc_runtime::comm`), so a plan travels as bytes and is
//! **re-lowered** on the receiving rank — but only the address-space-local
//! stages re-run.  [`PortableKernel::hydrate`] of a compiled stencil form
//! skips `Dag::lower` entirely (the optimizer pipeline — CSE, constant
//! folding, algebraic simplification — runs once per cluster, on the
//! compiling rank) and only re-resolves the access plan and re-lowers the
//! execution tape.  Every stage is deterministic for every family, so
//! hydration yields an artifact bit-identical to the sender's — the
//! property the cluster equivalence tests assert.
//!
//! Two forms share the codec:
//!
//! * [`PortableKernel::pack`] — the *request* form (program + shape + level,
//!   no DAG): cheap to build, enough for a peer to compile a plan it has
//!   never seen.
//! * [`PortableKernel::from_compiled`] — the *compiled* form: for stencils
//!   it adds the optimized DAG cloned out of an existing kernel (no
//!   re-lowering on the sending side); the particle and usgrid families'
//!   lowering is a deterministic constant-time step, so their compiled form
//!   coincides with the request form.
//!
//! The encoding is versioned and self-validating:
//!
//! * a magic/version header rejects frames from foreign protocols or future
//!   incompatible releases, and a **family tag** right after the version
//!   routes the payload decoder — a frame can never hydrate under the wrong
//!   family;
//! * the sender's [`ProgramFingerprint`] is stamped into the frame, and
//!   [`PortableKernel::from_bytes`] recomputes the fingerprint of the decoded
//!   program and refuses the frame on mismatch — a corrupted or mis-routed
//!   plan can never hydrate into the wrong kernel;
//! * an embedded DAG is checked for structural soundness (topological child
//!   order, in-range root) and consistency with the stamped program (every
//!   DAG load offset appears in the program, every DAG parameter is
//!   declared);
//! * a whole-frame integrity digest (trailing 16 bytes) catches in-transit
//!   corruption the structural checks cannot see — a flipped DAG constant
//!   in particular — and claimed block extents are bounded so a malformed
//!   request cannot make the serving rank compile a terabyte-scale plan.
//!
//! No external serialization dependency exists in this offline workspace, so
//! the codec is a small hand-rolled little-endian format reusing each
//! family's canonical encoding (the same bytes the fingerprint is computed
//! over, which is what makes the stamp verifiable).

use crate::expr::KernelExpr;
use crate::family::{
    FamilyArtifact, FamilyProgram, KernelFamilyId, PairLaw, ParticleProgram, UsGridProgram,
    MAX_USGRID_NEIGHBORS,
};
use crate::opt::{Dag, Node, OptLevel, OptStats};
use crate::program::{ProgramFingerprint, StencilProgram};
use crate::spec::SpecializationId;
use aohpc_env::Extent;
use std::fmt;

/// Frame magic: "AOPK" (AOhpc Portable Kernel).
const MAGIC: [u8; 4] = *b"AOPK";
/// The wire-format version, and the only one accepted: the cluster is always
/// homogeneous, so there is no compatibility shim.  Version 2 added the
/// family tag byte to the header; version 3 appends a three-byte
/// specialization annotation (`[tag, neighbors, form]`, see
/// [`crate::spec::SpecializationId`]) after the family payload.
const VERSION: u16 = 3;
/// Upper bound on wire-claimed DAG sizes (a hostility guard far above any
/// real subkernel, not a functional limit).
const MAX_DAG_NODES: usize = 1 << 20;
/// Upper bound on either side of a wire-claimed block extent.  Compiling a
/// plan walks every cell, and a request frame's extent is compiled *by the
/// owner's single fabric thread* — an unbounded claim would let one
/// malformed frame wedge a node's whole control plane.
const MAX_EXTENT_SIDE: usize = 1 << 16;
/// Upper bound on total wire-claimed block cells (same rationale; far above
/// the paper-scale 64x64 blocks).
const MAX_EXTENT_CELLS: usize = 1 << 24;

/// Why a byte frame failed to decode into a [`PortableKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortableError {
    /// The frame is shorter than its fields claim.
    Truncated,
    /// The frame does not start with the portable-kernel magic.
    BadMagic,
    /// The frame's version is not the one this build speaks.
    UnsupportedVersion(u16),
    /// The frame's family tag names a kernel family this build does not
    /// implement.
    UnsupportedFamily(u8),
    /// The optimization-level byte is out of range.
    BadLevel(u8),
    /// The claimed block extent is degenerate or implausibly large
    /// (compiling it would be a denial of service on the serving rank).
    BadExtent {
        /// Claimed block width.
        nx: usize,
        /// Claimed block height.
        ny: usize,
    },
    /// The frame decoded but its integrity digest does not match: modified
    /// in transit (the digest covers the whole frame, including DAG
    /// constants that no structural check can verify).
    CorruptFrame,
    /// The embedded expression failed to decode (reason inside).
    BadExpr(String),
    /// The decoded program payload failed validation (reason inside).
    BadProgram(String),
    /// The embedded DAG is malformed or inconsistent with the program
    /// (reason inside).
    BadDag(String),
    /// The stamped fingerprint does not match the decoded program — the
    /// frame was corrupted or mis-assembled and must not be hydrated.
    FingerprintMismatch {
        /// Fingerprint stamped into the frame by the sender.
        stamped: ProgramFingerprint,
        /// Fingerprint recomputed from the decoded program.
        actual: ProgramFingerprint,
    },
    /// Bytes remain after the last field (frame boundary confusion).
    TrailingBytes(usize),
}

impl fmt::Display for PortableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortableError::Truncated => write!(f, "portable kernel frame is truncated"),
            PortableError::BadMagic => write!(f, "not a portable kernel frame (bad magic)"),
            PortableError::UnsupportedVersion(v) => {
                write!(f, "portable kernel version {v} is not supported (this build: {VERSION})")
            }
            PortableError::UnsupportedFamily(t) => {
                write!(f, "unknown kernel family tag {t}")
            }
            PortableError::BadLevel(b) => write!(f, "unknown optimization level byte {b}"),
            PortableError::BadExtent { nx, ny } => {
                write!(f, "block extent {nx}x{ny} is degenerate or implausibly large")
            }
            PortableError::CorruptFrame => {
                write!(f, "frame integrity digest mismatch (modified in transit)")
            }
            PortableError::BadExpr(reason) => write!(f, "bad expression payload: {reason}"),
            PortableError::BadProgram(reason) => write!(f, "decoded program is invalid: {reason}"),
            PortableError::BadDag(reason) => write!(f, "bad DAG payload: {reason}"),
            PortableError::FingerprintMismatch { stamped, actual } => write!(
                f,
                "fingerprint mismatch: frame stamped {stamped}, decoded program is {actual}"
            ),
            PortableError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the portable kernel frame")
            }
        }
    }
}

impl std::error::Error for PortableError {}

/// A serializable, fingerprint-stamped compiled-kernel form of any family.
///
/// See the [module docs](self) for the two forms and the role they play in
/// cluster plan sharing.  Ship via [`PortableKernel::to_bytes`], rebuild
/// with [`PortableKernel::from_bytes`], and turn back into an executable
/// plan with [`PortableKernel::hydrate`].
#[derive(Debug, Clone, PartialEq)]
pub struct PortableKernel {
    program: FamilyProgram,
    nx: usize,
    ny: usize,
    level: OptLevel,
    fingerprint: ProgramFingerprint,
    /// The sender's optimized DAG (stencil compiled form only): hydration
    /// reuses it instead of re-running the optimizer.
    dag: Option<Dag>,
    /// The sender's specialization verdict (v3 frames; advisory).  The
    /// receiving rank re-derives specialization during hydration — the
    /// matcher is deterministic, so a mismatch can only mean frame
    /// tampering the digest already catches, never a semantic drift.
    spec: SpecializationId,
}

impl PortableKernel {
    /// Capture the *request* form of `(program, extent, level)` — the exact
    /// key the plan caches compile under, with no compiled artifact
    /// attached.  Cheap: no lowering happens here.
    pub fn pack(program: &FamilyProgram, extent: Extent, level: OptLevel) -> Self {
        PortableKernel {
            fingerprint: program.fingerprint(),
            program: program.clone(),
            nx: extent.nx,
            ny: extent.ny,
            level,
            dag: None,
            spec: SpecializationId::Generic,
        }
    }

    /// Capture the *compiled* form: the request fields plus — for the
    /// stencil family — the optimized DAG cloned out of `artifact`, so the
    /// receiver skips the optimizer.  No re-lowering happens on this side
    /// either.  For the particle and usgrid families, whose lowering is a
    /// constant-time deterministic step, the compiled form equals the
    /// request form.
    pub fn from_compiled(
        program: &FamilyProgram,
        artifact: &FamilyArtifact,
        level: OptLevel,
    ) -> Self {
        PortableKernel {
            fingerprint: program.fingerprint(),
            program: program.clone(),
            nx: artifact.extent().nx,
            ny: artifact.extent().ny,
            level,
            dag: artifact.as_stencil().map(|k| k.dag().clone()),
            spec: artifact
                .as_stencil()
                .map(|k| k.specialization())
                .unwrap_or(SpecializationId::Generic),
        }
    }

    /// The frame's kernel family.
    pub fn family(&self) -> KernelFamilyId {
        self.program.family()
    }

    /// The stamped structural fingerprint.
    pub fn fingerprint(&self) -> ProgramFingerprint {
        self.fingerprint
    }

    /// The embedded program.
    pub fn program(&self) -> &FamilyProgram {
        &self.program
    }

    /// Block shape the plan targets.
    pub fn extent(&self) -> Extent {
        Extent::new2d(self.nx, self.ny)
    }

    /// Optimization level the plan is lowered at.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Whether this is the compiled stencil form (carries the sender's DAG).
    pub fn carries_dag(&self) -> bool {
        self.dag.is_some()
    }

    /// The sender's specialization verdict carried by the frame (v3).
    ///
    /// Advisory: [`PortableKernel::hydrate`] re-runs the deterministic
    /// shape matcher, so the hydrated artifact's specialization is always
    /// recomputed locally.  Version-2 frames are refused by
    /// [`PortableKernel::from_bytes`], so every decoded frame carries one.
    pub fn specialization(&self) -> SpecializationId {
        self.spec
    }

    /// Serialize to the versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96 + self.program.name().len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.program.family().tag());
        out.push(match self.level {
            OptLevel::None => 0,
            OptLevel::Full => 1,
        });
        out.extend_from_slice(&(self.nx as u64).to_le_bytes());
        out.extend_from_slice(&(self.ny as u64).to_le_bytes());
        out.extend_from_slice(&self.fingerprint.as_u128().to_le_bytes());
        out.extend_from_slice(&(self.program.num_params() as u64).to_le_bytes());
        let name = self.program.name().as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        match &self.program {
            FamilyProgram::Stencil(p) => {
                p.expr().encode_canonical(&mut |bytes| out.extend_from_slice(bytes));
                match &self.dag {
                    None => out.push(0),
                    Some(dag) => {
                        out.push(1);
                        encode_dag(dag, &mut out);
                    }
                }
            }
            FamilyProgram::Particle(p) => {
                out.push(p.law().tag());
                out.push(p.neighbor_reach());
            }
            FamilyProgram::UsGrid(p) => {
                out.extend_from_slice(&(p.neighbors().len() as u32).to_le_bytes());
                for &(dx, dy) in p.neighbors() {
                    out.extend_from_slice(&dx.to_le_bytes());
                    out.extend_from_slice(&dy.to_le_bytes());
                }
            }
        }
        // v3: specialization annotation `[tag, neighbors, form]`, digest
        // covered.  Advisory — receivers re-derive it during hydration.
        match self.spec {
            SpecializationId::Generic => out.extend_from_slice(&[0, 0, 0]),
            SpecializationId::WeightedSum { neighbors, form } => {
                out.extend_from_slice(&[1, neighbors, form]);
            }
        }
        // Integrity digest over everything above.  The fingerprint stamp
        // only covers the *program*; the digest covers the whole frame —
        // in particular the DAG, whose constants the program-consistency
        // checks cannot see — so in-transit corruption can never hydrate
        // into a kernel computing different mathematics.  (Integrity, not
        // authentication: a peer is trusted, the wire is not.)
        let digest = frame_digest(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Decode and fully validate a frame: magic, version, family, program
    /// validity, the fingerprint stamp (recomputed from the decoded
    /// payload), and — for the compiled stencil form — DAG soundness and
    /// program consistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PortableError> {
        let mut pos = 0usize;
        if take(bytes, &mut pos, 4)? != MAGIC {
            return Err(PortableError::BadMagic);
        }
        let version = u16::from_le_bytes(take(bytes, &mut pos, 2)?.try_into().expect("two bytes"));
        if version != VERSION {
            return Err(PortableError::UnsupportedVersion(version));
        }
        let family_tag = take(bytes, &mut pos, 1)?[0];
        let family = KernelFamilyId::from_tag(family_tag)
            .ok_or(PortableError::UnsupportedFamily(family_tag))?;
        let level = match take(bytes, &mut pos, 1)?[0] {
            0 => OptLevel::None,
            1 => OptLevel::Full,
            b => return Err(PortableError::BadLevel(b)),
        };
        let nx = take_u64(bytes, &mut pos)? as usize;
        let ny = take_u64(bytes, &mut pos)? as usize;
        if !(1..=MAX_EXTENT_SIDE).contains(&nx)
            || !(1..=MAX_EXTENT_SIDE).contains(&ny)
            || nx.saturating_mul(ny) > MAX_EXTENT_CELLS
        {
            return Err(PortableError::BadExtent { nx, ny });
        }
        let stamped = ProgramFingerprint::from_u128(u128::from_le_bytes(
            take(bytes, &mut pos, 16)?.try_into().expect("sixteen bytes"),
        ));
        let num_params = take_u64(bytes, &mut pos)? as usize;
        let name_len = take_u32(bytes, &mut pos)? as usize;
        let name = String::from_utf8_lossy(take(bytes, &mut pos, name_len)?).into_owned();
        let mut dag = None;
        let program = match family {
            KernelFamilyId::Stencil => {
                let expr = KernelExpr::decode_canonical(bytes, &mut pos)
                    .map_err(PortableError::BadExpr)?;
                dag = match take(bytes, &mut pos, 1)?[0] {
                    0 => None,
                    1 => Some(decode_dag(bytes, &mut pos)?),
                    b => {
                        return Err(PortableError::BadDag(format!("unknown DAG presence flag {b}")))
                    }
                };
                FamilyProgram::Stencil(
                    StencilProgram::new(name, expr, num_params)
                        .map_err(|e| PortableError::BadProgram(e.to_string()))?,
                )
            }
            KernelFamilyId::Particle => {
                let payload = take(bytes, &mut pos, 2)?;
                let law = PairLaw::from_tag(payload[0]).ok_or_else(|| {
                    PortableError::BadProgram(format!("unknown pair-law tag {}", payload[0]))
                })?;
                FamilyProgram::Particle(
                    ParticleProgram::new(name, law, payload[1], num_params)
                        .map_err(|e| PortableError::BadProgram(e.to_string()))?,
                )
            }
            KernelFamilyId::UsGrid => {
                let count = take_u32(bytes, &mut pos)? as usize;
                if count > MAX_USGRID_NEIGHBORS {
                    return Err(PortableError::BadProgram(format!(
                        "{count} neighbours exceeds the frame bound"
                    )));
                }
                let mut neighbors = Vec::with_capacity(count);
                for _ in 0..count {
                    let dx = i64::from_le_bytes(take(bytes, &mut pos, 8)?.try_into().expect("8"));
                    let dy = i64::from_le_bytes(take(bytes, &mut pos, 8)?.try_into().expect("8"));
                    neighbors.push((dx, dy));
                }
                FamilyProgram::UsGrid(
                    UsGridProgram::new(name, neighbors, num_params)
                        .map_err(|e| PortableError::BadProgram(e.to_string()))?,
                )
            }
        };
        // The specialization annotation (advisory: hydration re-specializes).
        let payload = take(bytes, &mut pos, 3)?;
        let spec = match payload[0] {
            0 => SpecializationId::Generic,
            1 => SpecializationId::WeightedSum { neighbors: payload[1], form: payload[2] },
            t => return Err(PortableError::BadProgram(format!("unknown specialization tag {t}"))),
        };
        let stated = u128::from_le_bytes(take(bytes, &mut pos, 16)?.try_into().expect("sixteen"));
        if pos != bytes.len() {
            return Err(PortableError::TrailingBytes(bytes.len() - pos));
        }
        let actual = program.fingerprint();
        if actual != stamped {
            return Err(PortableError::FingerprintMismatch { stamped, actual });
        }
        if let (Some(dag), FamilyProgram::Stencil(p)) = (&dag, &program) {
            verify_dag_against(dag, p)?;
        }
        // Whole-frame integrity last: anything that decoded cleanly but was
        // modified in transit — most importantly a DAG constant, which no
        // structural check can catch — is refused here.
        if frame_digest(&bytes[..bytes.len() - 16]) != stated {
            return Err(PortableError::CorruptFrame);
        }
        Ok(PortableKernel { program, nx, ny, level, fingerprint: stamped, dag, spec })
    }

    /// Turn the portable form back into an executable plan on this rank.
    ///
    /// A compiled stencil form reuses the embedded optimized DAG and only
    /// re-resolves the access plan and re-lowers the tape
    /// ([`crate::plan::CompiledKernel::from_parts`]); every other path falls
    /// back to the family's deterministic compile.  All paths are
    /// deterministic, so the resulting artifact is bit-identical to the
    /// sending rank's.  Returns the embedded program alongside the artifact
    /// so caches can store it for structural hit verification.
    pub fn hydrate(&self) -> (FamilyProgram, FamilyArtifact) {
        let artifact = match (&self.dag, &self.program) {
            (Some(dag), FamilyProgram::Stencil(p)) => FamilyArtifact::Stencil(std::sync::Arc::new(
                crate::plan::CompiledKernel::from_parts(
                    p.name(),
                    p.num_params(),
                    dag.clone(),
                    self.extent(),
                ),
            )),
            _ => self.program.compile(self.extent(), self.level),
        };
        (self.program.clone(), artifact)
    }
}

fn take<'b>(bytes: &'b [u8], pos: &mut usize, n: usize) -> Result<&'b [u8], PortableError> {
    let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
    let end = end.ok_or(PortableError::Truncated)?;
    let slice = &bytes[*pos..end];
    *pos = end;
    Ok(slice)
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, PortableError> {
    Ok(u64::from_le_bytes(take(bytes, pos, 8)?.try_into().expect("eight bytes")))
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, PortableError> {
    Ok(u32::from_le_bytes(take(bytes, pos, 4)?.try_into().expect("four bytes")))
}

/// 128-bit integrity digest over a frame's bytes: the same
/// independently-seeded double-FNV-1a construction the program fingerprint
/// uses (stable across processes, not collision-resistant — corruption
/// detection, not authentication).
fn frame_digest(bytes: &[u8]) -> u128 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lo = FNV_OFFSET ^ 0x5bd1_e995_7b93_b1a5;
    let mut hi = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
    for &b in bytes {
        lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        hi = (hi ^ u64::from(b ^ 0xa5)).wrapping_mul(FNV_PRIME);
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

fn encode_dag(dag: &Dag, out: &mut Vec<u8>) {
    out.extend_from_slice(&(dag.len() as u32).to_le_bytes());
    for node in dag.nodes() {
        match node {
            Node::Load { dx, dy } => {
                out.push(1);
                out.extend_from_slice(&dx.to_le_bytes());
                out.extend_from_slice(&dy.to_le_bytes());
            }
            Node::Const(bits) => {
                out.push(2);
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Node::Param(i) => {
                out.push(3);
                out.extend_from_slice(&(*i as u64).to_le_bytes());
            }
            Node::Unary { op, a } => {
                out.push(4);
                out.push(*op as u8);
                out.extend_from_slice(&(*a as u32).to_le_bytes());
            }
            Node::Binary { op, a, b } => {
                out.push(5);
                out.push(*op as u8);
                out.extend_from_slice(&(*a as u32).to_le_bytes());
                out.extend_from_slice(&(*b as u32).to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&(dag.root() as u32).to_le_bytes());
    let stats = dag.stats();
    for v in [
        stats.tree_nodes,
        stats.dag_nodes,
        stats.cse_merges,
        stats.constants_folded,
        stats.identities_simplified,
    ] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
}

fn decode_dag(bytes: &[u8], pos: &mut usize) -> Result<Dag, PortableError> {
    use crate::expr::{BinOp, UnaryOp};
    let count = take_u32(bytes, pos)? as usize;
    if count > MAX_DAG_NODES {
        return Err(PortableError::BadDag(format!("{count} nodes exceeds the frame bound")));
    }
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let node = match take(bytes, pos, 1)?[0] {
            1 => {
                let dx = i64::from_le_bytes(take(bytes, pos, 8)?.try_into().expect("8"));
                let dy = i64::from_le_bytes(take(bytes, pos, 8)?.try_into().expect("8"));
                Node::Load { dx, dy }
            }
            2 => Node::Const(take_u64(bytes, pos)?),
            3 => Node::Param(take_u64(bytes, pos)? as usize),
            4 => {
                let op = match take(bytes, pos, 1)?[0] {
                    0 => UnaryOp::Neg,
                    1 => UnaryOp::Abs,
                    2 => UnaryOp::Sqrt,
                    b => return Err(PortableError::BadDag(format!("unknown unary op {b}"))),
                };
                Node::Unary { op, a: take_u32(bytes, pos)? as usize }
            }
            5 => {
                let op = match take(bytes, pos, 1)?[0] {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Div,
                    4 => BinOp::Min,
                    5 => BinOp::Max,
                    b => return Err(PortableError::BadDag(format!("unknown binary op {b}"))),
                };
                Node::Binary {
                    op,
                    a: take_u32(bytes, pos)? as usize,
                    b: take_u32(bytes, pos)? as usize,
                }
            }
            t => return Err(PortableError::BadDag(format!("unknown node tag {t}"))),
        };
        nodes.push(node);
    }
    let root = take_u32(bytes, pos)? as usize;
    let stats = OptStats {
        tree_nodes: take_u64(bytes, pos)? as usize,
        dag_nodes: take_u64(bytes, pos)? as usize,
        cse_merges: take_u64(bytes, pos)? as usize,
        constants_folded: take_u64(bytes, pos)? as usize,
        identities_simplified: take_u64(bytes, pos)? as usize,
    };
    Dag::from_parts(nodes, root, stats).map_err(PortableError::BadDag)
}

/// The DAG must be *derivable* from the stamped program: the optimizer only
/// removes or merges loads (never invents offsets) and never references
/// undeclared parameters.  A frame violating either was not produced by
/// compiling this program and must not hydrate.
fn verify_dag_against(dag: &Dag, program: &StencilProgram) -> Result<(), PortableError> {
    for node in dag.nodes() {
        match node {
            Node::Load { dx, dy } if !program.offsets().contains(&(*dx, *dy)) => {
                return Err(PortableError::BadDag(format!(
                    "DAG loads ({dx},{dy}), which the program never references"
                )));
            }
            Node::Param(i) if *i >= program.num_params() => {
                return Err(PortableError::BadDag(format!(
                    "DAG references parameter {i}, but only {} are declared",
                    program.num_params()
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{load, param};
    use crate::plan::CompiledKernel;
    use std::sync::Arc;

    fn jacobi_compiled() -> (StencilProgram, CompiledKernel) {
        let p = StencilProgram::jacobi_5pt();
        let k = CompiledKernel::compile(&p, Extent::new2d(16, 8), OptLevel::Full);
        (p, k)
    }

    fn jacobi_portable() -> PortableKernel {
        let (p, k) = jacobi_compiled();
        PortableKernel::from_compiled(
            &FamilyProgram::from(p),
            &FamilyArtifact::Stencil(Arc::new(k)),
            OptLevel::Full,
        )
    }

    #[test]
    fn both_stencil_forms_roundtrip() {
        for program in [
            StencilProgram::jacobi_5pt(),
            StencilProgram::smooth_9pt(),
            StencilProgram::new("edgy", (load(0, 0) - load(-3, 2)).abs().sqrt() / param(1), 3)
                .unwrap(),
        ] {
            for level in [OptLevel::None, OptLevel::Full] {
                let extent = Extent::new2d(12, 5);
                let wrapped = FamilyProgram::from(program.clone());
                let request = PortableKernel::pack(&wrapped, extent, level);
                assert!(!request.carries_dag());
                let kernel = CompiledKernel::compile(&program, extent, level);
                let compiled = PortableKernel::from_compiled(
                    &wrapped,
                    &FamilyArtifact::Stencil(Arc::new(kernel)),
                    level,
                );
                assert!(compiled.carries_dag());
                for packed in [request, compiled] {
                    let decoded =
                        PortableKernel::from_bytes(&packed.to_bytes()).expect("roundtrip");
                    assert_eq!(decoded, packed);
                    assert_eq!(decoded.family(), KernelFamilyId::Stencil);
                    assert_eq!(decoded.program().name(), program.name());
                    assert!(decoded.program().same_structure(&wrapped));
                    assert_eq!(decoded.extent(), extent);
                    assert_eq!(decoded.level(), level);
                    assert_eq!(decoded.fingerprint(), program.fingerprint());
                }
            }
        }
    }

    #[test]
    fn particle_and_usgrid_frames_roundtrip() {
        let extent = Extent::new2d(8, 8);
        for program in [
            FamilyProgram::from(ParticleProgram::pair_sweep()),
            FamilyProgram::from(UsGridProgram::jacobi4()),
        ] {
            for level in [OptLevel::None, OptLevel::Full] {
                let request = PortableKernel::pack(&program, extent, level);
                assert!(!request.carries_dag());
                let artifact = program.compile(extent, level);
                let compiled = PortableKernel::from_compiled(&program, &artifact, level);
                assert!(!compiled.carries_dag(), "only stencils carry a DAG");
                for packed in [request, compiled] {
                    let decoded =
                        PortableKernel::from_bytes(&packed.to_bytes()).expect("roundtrip");
                    assert_eq!(decoded, packed);
                    assert_eq!(decoded.family(), program.family());
                    assert!(decoded.program().same_structure(&program));
                    assert_eq!(decoded.extent(), extent);
                    assert_eq!(decoded.level(), level);
                    assert_eq!(decoded.fingerprint(), program.fingerprint());
                }
            }
        }
    }

    #[test]
    fn particle_hydration_matches_a_local_compile() {
        let program = FamilyProgram::from(ParticleProgram::pair_sweep());
        let wire = PortableKernel::pack(&program, Extent::new2d(8, 8), OptLevel::Full).to_bytes();
        let decoded = PortableKernel::from_bytes(&wire).unwrap();
        let (hydrated_program, artifact) = decoded.hydrate();
        assert!(hydrated_program.same_structure(&program));
        let remote = artifact.as_particle().expect("particle artifact");
        let local = program.compile(Extent::new2d(8, 8), OptLevel::Full);
        assert_eq!(remote.as_ref(), local.as_particle().unwrap().as_ref());
    }

    #[test]
    fn usgrid_hydration_matches_a_local_compile() {
        let program = FamilyProgram::from(UsGridProgram::jacobi4());
        let wire = PortableKernel::pack(&program, Extent::new2d(8, 8), OptLevel::Full).to_bytes();
        let decoded = PortableKernel::from_bytes(&wire).unwrap();
        let (hydrated_program, artifact) = decoded.hydrate();
        assert!(hydrated_program.same_structure(&program));
        let remote = artifact.as_usgrid().expect("usgrid artifact");
        let local = program.compile(Extent::new2d(8, 8), OptLevel::Full);
        assert_eq!(remote.as_ref(), local.as_usgrid().unwrap().as_ref());
    }

    #[test]
    fn hydration_reuses_the_dag_and_is_bit_identical() {
        let (_, local) = jacobi_compiled();
        let wire = jacobi_portable().to_bytes();
        let decoded = PortableKernel::from_bytes(&wire).unwrap();
        assert!(decoded.carries_dag(), "the compiled form travelled");
        let (program, artifact) = decoded.hydrate();
        let remote = artifact.as_stencil().expect("stencil artifact");
        // The sender's DAG — optimization statistics included — arrived
        // verbatim: the optimizer did not re-run on this side.
        assert_eq!(remote.dag(), local.dag(), "DAG reused, not re-lowered");
        assert_eq!(remote.tape(), local.tape(), "re-lowered tape is bit-identical");
        assert_eq!(remote.plan(), local.plan(), "access plan resolves identically");
        assert!(program.same_structure(&FamilyProgram::from(StencilProgram::jacobi_5pt())));
    }

    #[test]
    fn specialization_annotation_travels_and_matches_recomputation() {
        // jacobi qualifies for the weighted-sum specialization; the v3
        // frame carries the sender's verdict, and hydration re-derives the
        // exact same one on the receiving rank.
        let packed = jacobi_portable();
        assert_ne!(packed.specialization(), SpecializationId::Generic);
        let decoded = PortableKernel::from_bytes(&packed.to_bytes()).expect("roundtrip");
        assert_eq!(decoded.specialization(), packed.specialization());
        let (_, artifact) = decoded.hydrate();
        assert_eq!(
            artifact.as_stencil().expect("stencil").specialization(),
            decoded.specialization(),
            "carried annotation must match the receiver's recomputation"
        );

        // A shape the matcher refuses stays Generic on the wire too.
        let edgy =
            StencilProgram::new("edgy", (load(0, 0) - load(-3, 2)).abs().sqrt() / param(1), 3)
                .unwrap();
        let kernel = CompiledKernel::compile(&edgy, Extent::new2d(12, 5), OptLevel::Full);
        let packed = PortableKernel::from_compiled(
            &FamilyProgram::from(edgy),
            &FamilyArtifact::Stencil(Arc::new(kernel)),
            OptLevel::Full,
        );
        assert_eq!(packed.specialization(), SpecializationId::Generic);
        let decoded = PortableKernel::from_bytes(&packed.to_bytes()).unwrap();
        assert_eq!(decoded.specialization(), SpecializationId::Generic);
    }

    #[test]
    fn a_version2_frame_is_refused() {
        // A well-formed pre-specialization v2 frame: version bytes rewound,
        // the three-byte spec annotation dropped, digest recomputed over the
        // shortened body.  No fleet ever ran v2, so it is not accepted.
        let wire = jacobi_portable().to_bytes();
        let body_len = wire.len() - 16 - 3;
        let mut v2 = wire[..body_len].to_vec();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        let digest = frame_digest(&v2);
        v2.extend_from_slice(&digest.to_le_bytes());

        assert_eq!(PortableKernel::from_bytes(&v2), Err(PortableError::UnsupportedVersion(2)));
    }

    #[test]
    fn unknown_specialization_tags_are_refused() {
        let wire = jacobi_portable().to_bytes();
        let tag_pos = wire.len() - 16 - 3;
        let mut forged = wire[..tag_pos].to_vec();
        forged.extend_from_slice(&[9, 0, 0]);
        let digest = frame_digest(&forged);
        forged.extend_from_slice(&digest.to_le_bytes());
        let err = PortableKernel::from_bytes(&forged).unwrap_err();
        assert!(matches!(err, PortableError::BadProgram(ref m) if m.contains("specialization")));
    }

    #[test]
    fn request_form_hydrates_by_compiling() {
        let p = StencilProgram::jacobi_5pt();
        let packed = PortableKernel::pack(
            &FamilyProgram::from(p.clone()),
            Extent::new2d(8, 8),
            OptLevel::Full,
        );
        let decoded = PortableKernel::from_bytes(&packed.to_bytes()).unwrap();
        let (_, artifact) = decoded.hydrate();
        let local = CompiledKernel::compile(&p, Extent::new2d(8, 8), OptLevel::Full);
        assert_eq!(artifact.as_stencil().unwrap().tape(), local.tape());
    }

    #[test]
    fn deep_expressions_roundtrip() {
        // A 700-term chain nests 699 binary ops deep: the iterative decoder
        // must handle what the encoder produced, at any depth.
        let mut expr = load(0, 0);
        for _ in 0..699 {
            expr = expr + load(0, 0);
        }
        let program = FamilyProgram::from(StencilProgram::new("deep", expr, 0).unwrap());
        let packed = PortableKernel::pack(&program, Extent::new2d(4, 4), OptLevel::Full);
        let decoded = PortableKernel::from_bytes(&packed.to_bytes()).expect("deep roundtrip");
        assert!(decoded.program().same_structure(&program));
    }

    #[test]
    fn negative_zero_constants_survive_the_wire() {
        // The canonical encoding is bit-level: -0.0 and 0.0 are different
        // programs to the fingerprint, and the wire must keep them apart.
        let neg = StencilProgram::new("z", load(0, 0) + crate::expr::lit(-0.0), 0).unwrap();
        let packed = PortableKernel::pack(
            &FamilyProgram::from(neg.clone()),
            Extent::new2d(4, 4),
            OptLevel::None,
        );
        let decoded = PortableKernel::from_bytes(&packed.to_bytes()).unwrap();
        assert_eq!(decoded.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let wire = jacobi_portable().to_bytes();

        assert_eq!(PortableKernel::from_bytes(&[]), Err(PortableError::Truncated));
        assert_eq!(PortableKernel::from_bytes(&wire[..10]), Err(PortableError::Truncated));
        assert_eq!(
            PortableKernel::from_bytes(b"NOPEnopenopenopenope"),
            Err(PortableError::BadMagic)
        );

        let mut versioned = wire.clone();
        versioned[4] = 0xFF; // version low byte
        assert!(matches!(
            PortableKernel::from_bytes(&versioned),
            Err(PortableError::UnsupportedVersion(_))
        ));

        let mut familied = wire.clone();
        familied[6] = 0x7F; // family tag
        assert_eq!(
            PortableKernel::from_bytes(&familied),
            Err(PortableError::UnsupportedFamily(0x7F))
        );

        let mut leveled = wire.clone();
        leveled[7] = 9;
        assert_eq!(PortableKernel::from_bytes(&leveled), Err(PortableError::BadLevel(9)));

        let mut trailing = wire.clone();
        trailing.push(0);
        assert_eq!(PortableKernel::from_bytes(&trailing), Err(PortableError::TrailingBytes(1)));

        // Flipping a bit inside the expression payload changes the decoded
        // program, so validation refuses the frame one way or another.
        let mut flipped = wire.clone();
        let expr_start = 4 + 2 + 1 + 1 + 8 + 8 + 16 + 8 + 4 + "jacobi-5pt".len();
        flipped[expr_start + 5] ^= 0x40; // inside the first node's operand

        let err = PortableKernel::from_bytes(&flipped).unwrap_err();
        assert!(
            matches!(
                err,
                PortableError::FingerprintMismatch { .. }
                    | PortableError::BadExpr(_)
                    | PortableError::BadProgram(_)
                    | PortableError::BadDag(_)
                    | PortableError::Truncated
                    | PortableError::TrailingBytes(_)
            ),
            "corruption must surface as a decode/verify error, got {err}"
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn any_single_byte_corruption_is_refused() {
        // Every byte of the frame is covered by either a structural check,
        // the fingerprint stamp, or the whole-frame digest — including DAG
        // constants, which no structural check can see.  Flip one bit at
        // every position (digest bytes included) and demand rejection —
        // for every family's frame shape.
        for wire in [
            jacobi_portable().to_bytes(),
            PortableKernel::pack(
                &FamilyProgram::from(ParticleProgram::pair_sweep()),
                Extent::new2d(8, 8),
                OptLevel::Full,
            )
            .to_bytes(),
            PortableKernel::pack(
                &FamilyProgram::from(UsGridProgram::jacobi4()),
                Extent::new2d(8, 8),
                OptLevel::Full,
            )
            .to_bytes(),
        ] {
            for i in 0..wire.len() {
                let mut flipped = wire.clone();
                flipped[i] ^= 0x10;
                assert!(
                    PortableKernel::from_bytes(&flipped).is_err(),
                    "flipping byte {i} of {} produced an accepted frame",
                    wire.len()
                );
            }
        }
    }

    #[test]
    fn implausible_extents_are_refused() {
        let p = FamilyProgram::from(StencilProgram::jacobi_5pt());
        let base = PortableKernel::pack(&p, Extent::new2d(8, 8), OptLevel::Full);
        // A frame claiming a terabyte-scale block: the serving rank must
        // refuse before attempting to compile it.
        for (nx, ny) in [(1usize << 40, 8usize), (8, 1 << 40), (0, 8), (8, 0), (1 << 15, 1 << 15)] {
            let mut forged = base.clone();
            forged.nx = nx;
            forged.ny = ny;
            let err = PortableKernel::from_bytes(&forged.to_bytes()).unwrap_err();
            assert!(matches!(err, PortableError::BadExtent { .. }), "{nx}x{ny}: {err}");
        }
    }

    #[test]
    fn mismatched_stamp_is_refused() {
        // Stamp the frame with a different program's fingerprint: decoding
        // must refuse to hand out a kernel under the wrong identity.
        let packed = jacobi_portable();
        let mut wire = packed.to_bytes();
        let other = StencilProgram::smooth_9pt().fingerprint().as_u128().to_le_bytes();
        wire[24..40].copy_from_slice(&other);
        let err = PortableKernel::from_bytes(&wire).unwrap_err();
        assert!(matches!(err, PortableError::FingerprintMismatch { .. }), "{err}");
    }

    #[test]
    fn cross_family_stamp_confusion_is_refused() {
        // A frame whose family byte is rewritten to another (valid) family
        // cannot decode into that family's program and pass the stamp.
        let wire = PortableKernel::pack(
            &FamilyProgram::from(ParticleProgram::pair_sweep()),
            Extent::new2d(8, 8),
            OptLevel::Full,
        )
        .to_bytes();
        let mut forged = wire.clone();
        forged[6] = KernelFamilyId::UsGrid.tag();
        assert!(PortableKernel::from_bytes(&forged).is_err());
        let mut forged = wire;
        forged[6] = KernelFamilyId::Stencil.tag();
        assert!(PortableKernel::from_bytes(&forged).is_err());
    }

    #[test]
    fn expression_decoder_rejects_garbage_tags() {
        // A frame whose expression payload starts with an unknown tag.
        let packed = jacobi_portable();
        let name_len = "jacobi-5pt".len();
        let expr_start = 4 + 2 + 1 + 1 + 8 + 8 + 16 + 8 + 4 + name_len;
        let mut wire = packed.to_bytes();
        wire[expr_start] = 99;
        assert!(matches!(PortableKernel::from_bytes(&wire), Err(PortableError::BadExpr(_))));
    }

    #[test]
    fn inconsistent_dags_are_refused() {
        use crate::expr::BinOp;
        let p = FamilyProgram::from(StencilProgram::jacobi_5pt());
        let nx_ny = Extent::new2d(8, 8);

        // A DAG loading an offset the program never references.
        let alien = Dag::from_parts(vec![Node::Load { dx: 7, dy: 7 }], 0, OptStats::default())
            .expect("structurally sound");
        let mut forged = PortableKernel::pack(&p, nx_ny, OptLevel::Full);
        forged.dag = Some(alien);
        let err = PortableKernel::from_bytes(&forged.to_bytes()).unwrap_err();
        assert!(matches!(err, PortableError::BadDag(ref m) if m.contains("never references")));

        // A DAG referencing an undeclared parameter.
        let greedy = Dag::from_parts(vec![Node::Param(9)], 0, OptStats::default()).unwrap();
        let mut forged = PortableKernel::pack(&p, nx_ny, OptLevel::Full);
        forged.dag = Some(greedy);
        let err = PortableKernel::from_bytes(&forged.to_bytes()).unwrap_err();
        assert!(matches!(err, PortableError::BadDag(ref m) if m.contains("parameter")));

        // Structural unsoundness (forward reference) is caught by
        // Dag::from_parts during decode.
        assert!(Dag::from_parts(
            vec![Node::Binary { op: BinOp::Add, a: 0, b: 1 }],
            0,
            OptStats::default()
        )
        .is_err());
        assert!(Dag::from_parts(vec![], 0, OptStats::default()).is_err());
        assert!(Dag::from_parts(vec![Node::Param(0)], 3, OptStats::default()).is_err());
    }
}
