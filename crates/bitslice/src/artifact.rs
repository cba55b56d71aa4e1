//! Versioned, endian-stable binary serialization of compiled kernels —
//! the on-disk format behind the content-addressed kernel cache.
//!
//! The expensive part of building a sampler is the offline synthesis
//! chain (Boolean minimization, lowering, tiling); the artifact captures
//! everything that chain produced for one sampler so a later process can
//! cold-start straight into execution:
//!
//! * the source [`Program`] (the SSA oracle used for audits and load-time
//!   probe checks),
//! * the [`TiledKernel`], stored as its micro-op stream
//!   ([`TiledKernel::micro_instrs`]) + tile stream + slot map + outputs.
//!   The [`CompiledKernel`](crate::CompiledKernel) it was tiled from is a
//!   build-time IR and is not stored,
//! * an opaque `meta` section for the embedding application (the core
//!   crate stores its build report and stage fingerprints there).
//!
//! # Wire format
//!
//! All integers are little-endian, fixed width; the layout is therefore
//! stable across platforms and compilers.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "CTGKERN\0"
//! 8       4     format version (u32) — bump on ANY layout or synthesis
//!               change; see the policy note below
//! 12      8     content fingerprint (u64) — the sampler spec's identity of
//!               the synthesis inputs; the cache addresses files by it
//! 20      8     payload length (u64)
//! 28      8     checksum (u64) — FNV-1a over bytes [0, 28) ++ payload
//! 36      ...   payload: program / tiled kernel / meta
//! ```
//!
//! # Load-time validation
//!
//! [`KernelArtifact::from_bytes`] refuses to produce a kernel unless the
//! whole file proves itself well-formed:
//!
//! 1. exact length, magic, version, and checksum (FNV-1a detects every
//!    single-byte substitution, so no flipped byte can reach execution);
//! 2. the program section is well-formed SSA (operands strictly before
//!    their use, input indices and output registers in range);
//! 3. every micro-op's slot and input ids are in bounds, with unused
//!    operand fields zero (the canonical encoding the lowering emits);
//! 4. the tile stream decodes to exactly the micro-op stream: tile widths
//!    sum to the stream length and each tile's baked-in opcode pattern
//!    matches in place.
//!
//! What this module deliberately does **not** check is that the kernel
//! computes the program's function — that is semantic, not structural.
//! The embedding cache layer covers it with the content fingerprint (same
//! synthesis inputs ⇒ same artifact, by the determinism the pipeline
//! pins) plus a probe-batch equivalence check on load.
//!
//! # Version-bump policy
//!
//! `ARTIFACT_VERSION` must be bumped whenever the wire layout changes
//! **or** any synthesis stage starts producing different bytes for the
//! same spec (minimization, scheduling, slot allocation, tiling
//! inventory). A stale artifact then fails the version gate and the cache
//! falls back to fresh synthesis — never to a kernel from an older
//! pipeline.

use core::fmt;

use crate::kernel::{Instr, Opcode};
use crate::program::{Op, Program};
use crate::tile::{Tile, TiledKernel};

/// The artifact file magic.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"CTGKERN\0";

/// The artifact format version (see the module-level bump policy).
pub const ARTIFACT_VERSION: u32 = 2;

/// Bytes before the payload: magic, version, fingerprint, payload length,
/// checksum.
const HEADER_LEN: usize = 36;

/// Offset of the checksum field inside the header.
const CHECKSUM_OFFSET: usize = 28;

/// Why an artifact failed to load. Every variant means "synthesize
/// fresh"; none is recoverable by retrying the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactError {
    /// The buffer ends before the declared content does.
    Truncated,
    /// The buffer continues past the declared content.
    TrailingBytes,
    /// The file does not start with [`ARTIFACT_MAGIC`].
    BadMagic,
    /// The file's format version is not [`ARTIFACT_VERSION`].
    BadVersion(u32),
    /// The stored checksum does not match the content.
    ChecksumMismatch,
    /// A structural validation rule failed (reason attached).
    Malformed(&'static str),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated => write!(f, "artifact is truncated"),
            ArtifactError::TrailingBytes => write!(f, "artifact has trailing bytes"),
            ArtifactError::BadMagic => write!(f, "not a kernel artifact (bad magic)"),
            ArtifactError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (want {ARTIFACT_VERSION})"
                )
            }
            ArtifactError::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// FNV-1a over a sequence of byte chunks. Not cryptographic — the cache
/// is a local trust domain — but it provably detects every single-byte
/// substitution: the state difference introduced at the first differing
/// byte survives the remaining steps (multiply by an odd prime and XOR
/// are bijections on `u64`).
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Little-endian byte serializer used for artifact payloads; public so
/// embedding layers can encode their `meta` sections with the same
/// conventions.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (length is *not* prefixed).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed (`u32`) string in UTF-8.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds `u32::MAX` bytes.
    pub fn str(&mut self, v: &str) {
        self.u32(u32::try_from(v.len()).expect("string fits u32 length"));
        self.bytes(v.as_bytes());
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Checked little-endian reader over a byte slice; every read reports
/// [`ArtifactError::Truncated`] instead of panicking, so corrupted files
/// degrade into load errors.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self.pos.checked_add(n).ok_or(ArtifactError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(ArtifactError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.take(n)
    }

    /// Reads a length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, ArtifactError> {
        let len = self.u32()? as usize;
        core::str::from_utf8(self.take(len)?)
            .map_err(|_| ArtifactError::Malformed("string section is not UTF-8"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(self) -> Result<(), ArtifactError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ArtifactError::TrailingBytes)
        }
    }
}

/// One sampler's serialized synthesis products: source program, tiled
/// kernel, and an application-owned `meta` section, addressed by a
/// content fingerprint.
///
/// # Examples
///
/// ```
/// use ctgauss_bitslice::artifact::KernelArtifact;
/// use ctgauss_bitslice::{CompiledKernel, Op, Program, TiledKernel};
///
/// let p = Program::new(
///     2,
///     vec![Op::Input(0), Op::Input(1), Op::Not(1), Op::And(0, 2)],
///     vec![3],
/// );
/// let tiled = TiledKernel::lower(&CompiledKernel::lower(&p));
/// let artifact = KernelArtifact::new(7, p, tiled, b"meta".to_vec());
/// let bytes = artifact.to_bytes();
/// let back = KernelArtifact::from_bytes(&bytes).unwrap();
/// assert_eq!(back.fingerprint(), 7);
/// assert_eq!(back.tiled().run(&[0b11u64, 0b01]), vec![0b10]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelArtifact {
    fingerprint: u64,
    program: Program,
    tiled: TiledKernel,
    meta: Vec<u8>,
}

impl KernelArtifact {
    /// Wraps the products of one synthesis run.
    ///
    /// # Panics
    ///
    /// Panics unless the program and the kernel agree in shape: equal
    /// input counts and one program output per kernel output.
    pub fn new(fingerprint: u64, program: Program, tiled: TiledKernel, meta: Vec<u8>) -> Self {
        check_parts(&program, &tiled);
        KernelArtifact {
            fingerprint,
            program,
            tiled,
            meta,
        }
    }

    /// The content fingerprint the artifact is addressed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The source SSA program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The tiled production kernel.
    pub fn tiled(&self) -> &TiledKernel {
        &self.tiled
    }

    /// The application-owned meta section.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Decomposes the artifact into its parts, in declaration order.
    pub fn into_parts(self) -> (u64, Program, TiledKernel, Vec<u8>) {
        (self.fingerprint, self.program, self.tiled, self.meta)
    }

    /// Serializes to the wire format described in the module docs.
    /// Equivalent to [`encode`] over the artifact's parts.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self.fingerprint, &self.program, &self.tiled, &self.meta)
    }

    /// Deserializes and fully validates an artifact (see the module-level
    /// validation rules). Any failure means the bytes can never execute.
    ///
    /// # Errors
    ///
    /// Returns the first [`ArtifactError`] encountered; the checksum gate
    /// guarantees in particular that any single corrupted byte is
    /// rejected.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        // Header gates: length, magic, version, checksum.
        if bytes.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated);
        }
        let mut head = ByteReader::new(&bytes[..HEADER_LEN]);
        if head.bytes(8)? != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = head.u32()?;
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::BadVersion(version));
        }
        let fingerprint = head.u64()?;
        let payload_len = head.u64()?;
        let stored_checksum = head.u64()?;
        let declared = (payload_len as usize)
            .checked_add(HEADER_LEN)
            .ok_or(ArtifactError::Truncated)?;
        match bytes.len().cmp(&declared) {
            core::cmp::Ordering::Less => return Err(ArtifactError::Truncated),
            core::cmp::Ordering::Greater => return Err(ArtifactError::TrailingBytes),
            core::cmp::Ordering::Equal => {}
        }
        let payload = &bytes[HEADER_LEN..];
        if fnv1a(&[&bytes[..CHECKSUM_OFFSET], payload]) != stored_checksum {
            return Err(ArtifactError::ChecksumMismatch);
        }

        let mut r = ByteReader::new(payload);

        // Program section: well-formed SSA or bust.
        let num_inputs = r.u32()?;
        if num_inputs > u16::MAX as u32 {
            return Err(ArtifactError::Malformed("input count exceeds u16 range"));
        }
        let num_ops = r.u32()? as usize;
        let mut ops = Vec::with_capacity(num_ops.min(payload.len()));
        for idx in 0..num_ops {
            let (tag, a, b) = (r.u8()?, r.u32()?, r.u32()?);
            let reg = |x: u32| {
                if (x as usize) < idx {
                    Ok(x)
                } else {
                    Err(ArtifactError::Malformed("operand register not yet defined"))
                }
            };
            let zero = |x: u32| {
                if x == 0 {
                    Ok(())
                } else {
                    Err(ArtifactError::Malformed("unused operand field is nonzero"))
                }
            };
            let op = match tag {
                0 => {
                    if a >= num_inputs {
                        return Err(ArtifactError::Malformed("input index out of range"));
                    }
                    zero(b)?;
                    Op::Input(a)
                }
                1 | 2 => {
                    zero(a)?;
                    zero(b)?;
                    Op::Const(tag == 2)
                }
                3 => {
                    zero(b)?;
                    Op::Not(reg(a)?)
                }
                4 => Op::And(reg(a)?, reg(b)?),
                5 => Op::Or(reg(a)?, reg(b)?),
                6 => Op::Xor(reg(a)?, reg(b)?),
                _ => return Err(ArtifactError::Malformed("unknown program opcode tag")),
            };
            ops.push(op);
        }
        let num_outputs = r.u32()? as usize;
        let mut outputs = Vec::with_capacity(num_outputs.min(payload.len()));
        for _ in 0..num_outputs {
            let o = r.u32()?;
            if o as usize >= ops.len() {
                return Err(ArtifactError::Malformed("output register does not exist"));
            }
            outputs.push(o);
        }
        // Every `Program::new` panic condition was checked above.
        let program = Program::new(num_inputs, ops, outputs);

        // Tiled-kernel section: operand bounds, canonical zero fields.
        let num_slots_raw = r.u32()?;
        let num_slots = u16::try_from(num_slots_raw)
            .map_err(|_| ArtifactError::Malformed("slot count exceeds u16 range"))?;
        let num_instrs = r.u32()? as usize;
        let mut instrs = Vec::with_capacity(num_instrs.min(payload.len()));
        for _ in 0..num_instrs {
            let (code, dst, a, b) = (r.u8()?, r.u16()?, r.u16()?, r.u16()?);
            let op =
                Opcode::from_code(code).ok_or(ArtifactError::Malformed("unknown kernel opcode"))?;
            if dst >= num_slots {
                return Err(ArtifactError::Malformed("destination slot out of range"));
            }
            let slot = |x: u16| {
                if x < num_slots {
                    Ok(())
                } else {
                    Err(ArtifactError::Malformed("operand slot out of range"))
                }
            };
            let zero = |x: u16| {
                if x == 0 {
                    Ok(())
                } else {
                    Err(ArtifactError::Malformed("unused operand field is nonzero"))
                }
            };
            match op {
                Opcode::Input => {
                    if u32::from(a) >= num_inputs {
                        return Err(ArtifactError::Malformed("input index out of range"));
                    }
                    zero(b)?;
                }
                Opcode::Zero | Opcode::One => {
                    zero(a)?;
                    zero(b)?;
                }
                Opcode::Not => {
                    slot(a)?;
                    zero(b)?;
                }
                _ => {
                    slot(a)?;
                    slot(b)?;
                }
            }
            instrs.push(Instr { op, dst, a, b });
        }

        // Tile stream: must decode to exactly the micro-op stream.
        let num_tiles = r.u32()? as usize;
        let mut tiles = Vec::with_capacity(num_tiles.min(payload.len()));
        let mut cursor = 0usize;
        for _ in 0..num_tiles {
            let tile =
                Tile::from_code(r.u8()?).ok_or(ArtifactError::Malformed("unknown tile code"))?;
            let pattern = tile.ops();
            let end = cursor + pattern.len();
            if end > instrs.len()
                || !instrs[cursor..end]
                    .iter()
                    .map(|i| i.op)
                    .eq(pattern.iter().copied())
            {
                return Err(ArtifactError::Malformed(
                    "tile stream does not decode to the micro-op stream",
                ));
            }
            cursor = end;
            tiles.push(tile);
        }
        if cursor != instrs.len() {
            return Err(ArtifactError::Malformed(
                "tile stream does not cover the micro-op stream",
            ));
        }

        let num_out_slots = r.u32()? as usize;
        if num_out_slots != program.outputs().len() {
            return Err(ArtifactError::Malformed(
                "kernel output count disagrees with the program",
            ));
        }
        let mut output_slots = Vec::with_capacity(num_out_slots.min(payload.len()));
        for _ in 0..num_out_slots {
            let o = r.u16()?;
            if o >= num_slots {
                return Err(ArtifactError::Malformed("output slot out of range"));
            }
            output_slots.push(o);
        }

        // Meta section.
        let meta_len = r.u32()? as usize;
        let meta = r.bytes(meta_len)?.to_vec();
        r.finish()?;

        let tiled = TiledKernel::from_parts(num_inputs, num_slots, tiles, &instrs, output_slots);
        Ok(KernelArtifact {
            fingerprint,
            program,
            tiled,
            meta,
        })
    }
}

/// The consistency gate shared by [`KernelArtifact::new`] and [`encode`]:
/// the program and the kernel must agree in shape.
fn check_parts(program: &Program, tiled: &TiledKernel) {
    assert_eq!(program.num_inputs(), tiled.num_inputs(), "input counts");
    assert_eq!(
        program.outputs().len(),
        tiled.num_outputs(),
        "output counts"
    );
}

/// Serializes one synthesis run's products to the wire format described
/// in the module docs, without taking ownership — the store path's
/// entry point (the sampler keeps its kernel; nothing is cloned).
///
/// # Panics
///
/// Panics unless the parts form one consistent lowering chain (same
/// conditions as [`KernelArtifact::new`]).
pub fn encode(fingerprint: u64, program: &Program, tiled: &TiledKernel, meta: &[u8]) -> Vec<u8> {
    check_parts(program, tiled);
    let mut w = ByteWriter::new();

    // Program section.
    w.u32(program.num_inputs());
    w.u32(program.ops().len() as u32);
    for &op in program.ops() {
        let (tag, a, b) = match op {
            Op::Input(i) => (0u8, i, 0),
            Op::Const(false) => (1, 0, 0),
            Op::Const(true) => (2, 0, 0),
            Op::Not(a) => (3, a, 0),
            Op::And(a, b) => (4, a, b),
            Op::Or(a, b) => (5, a, b),
            Op::Xor(a, b) => (6, a, b),
        };
        w.u8(tag);
        w.u32(a);
        w.u32(b);
    }
    w.u32(program.outputs().len() as u32);
    for &o in program.outputs() {
        w.u32(o);
    }

    // Tiled-kernel section: slot map size, micro-op stream, tile
    // stream, output slots.
    w.u32(tiled.num_slots() as u32);
    let instrs = tiled.micro_instrs();
    w.u32(instrs.len() as u32);
    for i in &instrs {
        w.u8(i.op.code());
        w.u16(i.dst);
        w.u16(i.a);
        w.u16(i.b);
    }
    w.u32(tiled.tiles().len() as u32);
    for t in tiled.tiles() {
        w.u8(t.code());
    }
    w.u32(tiled.output_slots().len() as u32);
    for &o in tiled.output_slots() {
        w.u16(o);
    }

    // Meta section.
    w.u32(meta.len() as u32);
    w.bytes(meta);

    let payload = w.into_bytes();
    let mut head = ByteWriter::new();
    head.bytes(&ARTIFACT_MAGIC);
    head.u32(ARTIFACT_VERSION);
    head.u64(fingerprint);
    head.u64(payload.len() as u64);
    let head = head.into_bytes();
    debug_assert_eq!(head.len(), CHECKSUM_OFFSET);
    let checksum = fnv1a(&[&head, &payload]);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&head);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interpret, CompiledKernel, Op, Program};

    fn sample_artifact() -> KernelArtifact {
        let mut ops = vec![Op::Input(0), Op::Input(1), Op::Const(true)];
        for i in 0..12u32 {
            let prev = (ops.len() - 1) as u32;
            ops.push(match i % 4 {
                0 => Op::And(prev, 0),
                1 => Op::Or(prev, 1),
                2 => Op::Xor(prev, 2),
                _ => Op::Not(prev),
            });
        }
        let out = (ops.len() - 1) as u32;
        let program = Program::new(2, ops, vec![out, 2]);
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&program));
        KernelArtifact::new(0xfeed_beef, program, tiled, b"report".to_vec())
    }

    #[test]
    fn round_trip_is_identity() {
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes();
        let back = KernelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back, artifact);
        // And re-serialization is byte-identical (canonical encoding).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn round_trip_executes_identically() {
        let artifact = sample_artifact();
        let back = KernelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        let inputs = [0x0123_4567_89ab_cdefu64, 0xfedc_ba98_7654_3210];
        let expected = interpret(artifact.program(), &inputs);
        assert_eq!(back.tiled().run(&inputs), expected);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample_artifact().to_bytes();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x5a;
            assert!(
                KernelArtifact::from_bytes(&corrupt).is_err(),
                "corruption at byte {pos} was accepted"
            );
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = sample_artifact().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                KernelArtifact::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_artifact().to_bytes();
        bytes.push(0);
        assert_eq!(
            KernelArtifact::from_bytes(&bytes),
            Err(ArtifactError::TrailingBytes)
        );
    }

    #[test]
    fn version_and_magic_are_gated() {
        let good = sample_artifact().to_bytes();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            KernelArtifact::from_bytes(&bad_magic),
            Err(ArtifactError::BadMagic)
        );
        // A future version must be rejected even with a fixed-up checksum.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        let checksum = fnv1a(&[&future[..CHECKSUM_OFFSET], &future[HEADER_LEN..]]);
        future[CHECKSUM_OFFSET..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            KernelArtifact::from_bytes(&future),
            Err(ArtifactError::BadVersion(ARTIFACT_VERSION + 1))
        );
    }

    #[test]
    fn empty_program_round_trips() {
        let program = Program::new(0, vec![], vec![]);
        let tiled = TiledKernel::lower(&CompiledKernel::lower(&program));
        let artifact = KernelArtifact::new(1, program, tiled, Vec::new());
        let back = KernelArtifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.tiled().run::<u64>(&[]), Vec::<u64>::new());
    }

    #[test]
    fn reader_writer_round_trip_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xabcd);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.str("sigma = 2");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xabcd);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.str().unwrap(), "sigma = 2");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_overruns() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(ArtifactError::Truncated));
        let mut r = ByteReader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
