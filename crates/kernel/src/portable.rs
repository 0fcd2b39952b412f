//! The wire form of a kernel plan: a program, its block shape and its
//! optimization level as bytes.
//!
//! A [`PortableKernel`] is the serializable, fingerprint-stamped request for
//! a plan of **any kernel family** (see [`crate::family`]): the validated
//! program, the block extent and the optimization level — exactly the key a
//! plan cache compiles under.  Nothing in the product ships it: every cluster
//! node compiles its own plans.  It stays, with its frame checks, because the
//! layer ledger under `benchmark/` still times a pack → bytes → decode →
//! hydrate round trip; it waits for ROADMAP B1, which stops that import.
//! [`PortableKernel::hydrate`] compiles the decoded program, so the artifact
//! is bit-identical to a local compile.
//!
//! The encoding is versioned and self-validating:
//!
//! * a magic/version header rejects frames from foreign protocols or other
//!   releases, and a **family tag** right after the version routes the
//!   payload decoder — a frame can never hydrate under the wrong family;
//! * the sender's [`ProgramFingerprint`] is stamped into the frame, and
//!   [`PortableKernel::from_bytes`] recomputes the fingerprint of the decoded
//!   program and refuses the frame on mismatch;
//! * a whole-frame integrity digest (trailing 16 bytes) catches corruption
//!   the structural checks cannot see, and claimed block extents are bounded
//!   so a malformed frame cannot ask for a terabyte-scale plan.
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
use crate::opt::OptLevel;
use crate::program::{ProgramFingerprint, StencilProgram};
use aohpc_env::Extent;
use std::fmt;

/// Frame magic: "AOPK" (AOhpc Portable Kernel).
const MAGIC: [u8; 4] = *b"AOPK";
/// The wire-format version, and the only one accepted (there is no
/// compatibility shim).  Version 4 dropped version 3's compiled form: the
/// optimized DAG and the specialization annotation no longer travel.
const VERSION: u16 = 4;
/// Upper bound on either side of a wire-claimed block extent.  Hydrating a
/// frame compiles its plan, which walks every cell — an unbounded claim
/// would let one malformed frame stall its reader.
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
    /// (compiling it would be a denial of service on the reader).
    BadExtent {
        /// Claimed block width.
        nx: usize,
        /// Claimed block height.
        ny: usize,
    },
    /// The frame decoded but its integrity digest does not match: modified
    /// in transit (the digest covers the whole frame).
    CorruptFrame,
    /// The embedded expression failed to decode (reason inside).
    BadExpr(String),
    /// The decoded program payload failed validation (reason inside).
    BadProgram(String),
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

/// A serializable, fingerprint-stamped plan request of any family.
///
/// Serialize with [`PortableKernel::to_bytes`], rebuild with
/// [`PortableKernel::from_bytes`], and compile into an executable plan with
/// [`PortableKernel::hydrate`].  See the [module docs](self) for why it
/// stays.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableKernel {
    program: FamilyProgram,
    nx: usize,
    ny: usize,
    level: OptLevel,
    fingerprint: ProgramFingerprint,
}

impl PortableKernel {
    /// Capture `(program, extent, level)` — the exact key the plan caches
    /// compile under.  Cheap: no lowering happens here.  Waits for ROADMAP
    /// B1: the ledger's portable round trip is its only caller.
    pub fn pack(program: &FamilyProgram, extent: Extent, level: OptLevel) -> Self {
        PortableKernel {
            fingerprint: program.fingerprint(),
            program: program.clone(),
            nx: extent.nx,
            ny: extent.ny,
            level,
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

    /// Serialize to the versioned wire format.  Waits for ROADMAP B1.
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
        // Integrity digest over everything above.  The fingerprint stamp
        // only covers the *program*; the digest covers the whole frame —
        // shape and level included.  (Integrity, not authentication.)
        let digest = frame_digest(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Decode and fully validate a frame: magic, version, family, level,
    /// extent bounds, program validity, the fingerprint stamp (recomputed
    /// from the decoded payload) and the whole-frame digest.  Waits for
    /// ROADMAP B1, with every one of these checks.
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
        let program = match family {
            KernelFamilyId::Stencil => {
                let expr = KernelExpr::decode_canonical(bytes, &mut pos)
                    .map_err(PortableError::BadExpr)?;
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
        let stated = u128::from_le_bytes(take(bytes, &mut pos, 16)?.try_into().expect("sixteen"));
        if pos != bytes.len() {
            return Err(PortableError::TrailingBytes(bytes.len() - pos));
        }
        let actual = program.fingerprint();
        if actual != stamped {
            return Err(PortableError::FingerprintMismatch { stamped, actual });
        }
        // Whole-frame integrity last: anything that decoded cleanly but was
        // modified in transit is refused here.
        if frame_digest(&bytes[..bytes.len() - 16]) != stated {
            return Err(PortableError::CorruptFrame);
        }
        Ok(PortableKernel { program, nx, ny, level, fingerprint: stamped })
    }

    /// Compile the frame into an executable plan: the family's
    /// deterministic compile of the embedded program, so the artifact is
    /// bit-identical to a local compile.  Returns the embedded program
    /// alongside the artifact.  Waits for ROADMAP B1.
    pub fn hydrate(&self) -> (FamilyProgram, FamilyArtifact) {
        (self.program.clone(), self.program.compile(self.extent(), self.level))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{load, param};
    use crate::plan::CompiledKernel;

    fn jacobi_portable() -> PortableKernel {
        let p = FamilyProgram::from(StencilProgram::jacobi_5pt());
        PortableKernel::pack(&p, Extent::new2d(16, 8), OptLevel::Full)
    }

    #[test]
    fn stencil_frames_roundtrip() {
        for program in [
            StencilProgram::jacobi_5pt(),
            StencilProgram::smooth_9pt(),
            StencilProgram::new("edgy", (load(0, 0) - load(-3, 2)).abs().sqrt() / param(1), 3)
                .unwrap(),
        ] {
            for level in [OptLevel::None, OptLevel::Full] {
                let extent = Extent::new2d(12, 5);
                let wrapped = FamilyProgram::from(program.clone());
                let packed = PortableKernel::pack(&wrapped, extent, level);
                let decoded = PortableKernel::from_bytes(&packed.to_bytes()).expect("roundtrip");
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

    #[test]
    fn particle_and_usgrid_frames_roundtrip() {
        let extent = Extent::new2d(8, 8);
        for program in [
            FamilyProgram::from(ParticleProgram::pair_sweep()),
            FamilyProgram::from(UsGridProgram::jacobi4()),
        ] {
            for level in [OptLevel::None, OptLevel::Full] {
                let packed = PortableKernel::pack(&program, extent, level);
                let decoded = PortableKernel::from_bytes(&packed.to_bytes()).expect("roundtrip");
                assert_eq!(decoded, packed);
                assert_eq!(decoded.family(), program.family());
                assert!(decoded.program().same_structure(&program));
                assert_eq!(decoded.extent(), extent);
                assert_eq!(decoded.level(), level);
                assert_eq!(decoded.fingerprint(), program.fingerprint());
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
    fn a_version3_frame_is_refused() {
        // A frame relabelled as version 3 (the compiled form's format),
        // digest recomputed so only the version is wrong: there is no
        // decoder for it.
        let wire = jacobi_portable().to_bytes();
        let mut v3 = wire[..wire.len() - 16].to_vec();
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let digest = frame_digest(&v3);
        v3.extend_from_slice(&digest.to_le_bytes());
        assert_eq!(PortableKernel::from_bytes(&v3), Err(PortableError::UnsupportedVersion(3)));
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
        // the fingerprint stamp, or the whole-frame digest.  Flip one bit at
        // every position (digest bytes included) and demand rejection — for
        // every family's frame shape.
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
}
