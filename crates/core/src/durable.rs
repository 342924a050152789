//! Durable, crash-safe checkpoint snapshots.
//!
//! The in-memory `CheckpointStore`
//! gives the supervised runtime *in-process* recovery; this module makes
//! the same CSP-watermark consistent cuts survive a process death. The
//! contract mirrors the in-memory one: a snapshot at watermark `W` is
//! exactly the state a sequential run holds after training subnets
//! `0..W`, so resuming from disk continues to a final parameter hash
//! bitwise-equal to an uninterrupted run.
//!
//! # Fulls, deltas and chains
//!
//! A cut's file `ckpt-<watermark>.snap` is one of two kinds. A *full*
//! ([`SNAP_MAGIC`]) holds the whole cut. A *delta* ([`DELTA_MAGIC`])
//! holds, per stage, only the layers written since its parent cut, the
//! optimizer state of those layers and the new loss entries, and names
//! its parent by watermark and by the parent file's trailing checksum.
//! A subnet activates one choice per block, so a checkpoint interval
//! writes a small share of the supernet and a delta is that share of a
//! full. [`DurableStore::persist_cut`] writes a delta when the newest
//! cut this store persisted is the one the delta extends, and a full
//! when the store was just opened, its previous persist failed, or the
//! deltas since the last full would outweigh one full — so loading a
//! cut never reads more than two fulls' worth of bytes. A cut loads
//! through its *chain*: deltas down to a full, every link checked.
//!
//! # Durability model
//!
//! * **Atomic writes.** A snapshot is encoded in 64 KiB pieces straight
//!   into a `*.tmp` sibling (new, or a recycled old file — see retention),
//!   its checksum taken as the pieces leave, so a persist never holds the
//!   whole encoding; then flushed (`sync_all`) and atomically renamed to its
//!   final `ckpt-<watermark>.snap` name. A crash at any byte of the write
//!   leaves either the previous snapshot set intact or an orphaned tmp
//!   file the loader never reads — torn snapshots are impossible by
//!   construction.
//! * **Checksums.** Every file ends in a 64-bit word-wise FNV-1a checksum
//!   ([`fnv1a_words`]) of all preceding bytes; any corruption confined to
//!   one 8-byte word is always detected at load.
//! * **Fingerprints.** Every file carries the [`run_fingerprint`] of the
//!   training run that wrote it (space shape, subnet stream, training
//!   config, stage count, checkpoint interval). A snapshot from a
//!   different run is rejected as
//!   [`DurableError::FingerprintMismatch`] — resuming it would silently
//!   break bitwise identity.
//! * **Retention.** The directory listing is the index: persisting a cut
//!   keeps it and the newest `keep - 1` loadable cuts below it, and every
//!   file their chains need; it prunes the other files below it. The
//!   loader prefers the newest loadable cut and falls back cut by cut, so
//!   one corrupt file never loses the run. A pruned file is not unlinked
//!   but becomes a later cut's tmp file, rewritten in place: a pruned
//!   chain loses its full, and its deltas, which then load no more, wait
//!   for the next writes; a pruned loadable file is recycled only while
//!   another loadable cut stays on disk for the whole write. The bytes
//!   written are the same either way.
//! * **Off the stage threads.** [`crate::runtime`] hands each completed
//!   cut, with the layers its stages wrote since the previous one, to one
//!   writer thread that owns the [`DurableStore`]: cut `W` is on disk
//!   before cut `W + interval` is handed over.
//!
//! The v2 snapshot grammar, both kinds, is documented in `DESIGN.md` §3g.

use crate::checkpoint::{Checkpoint, StageSnapshot, Written};
use crate::train::TrainConfig;
use naspipe_obs::SpanId;
use naspipe_supernet::layer::LayerRef;
use naspipe_supernet::space::SearchSpace;
use naspipe_supernet::subnet::Subnet;
use naspipe_tensor::hash::{fnv1a, fnv1a_words, WordHasher, FNV_OFFSET};
use naspipe_tensor::layers::{DenseGrads, DenseParams};
use naspipe_tensor::model::{NumericSupernet, Optimizer};
use naspipe_tensor::optim::{MomentumSgd, Sgd};
use naspipe_tensor::tensor::Tensor;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Magic prefix of every snapshot file.
pub const SNAP_MAGIC: &[u8; 12] = b"NASPIPE-SNAP";
/// Snapshot format version this build writes and reads (v1 had a
/// byte-serial checksum; its files are [`DurableError::UnsupportedVersion`]).
pub const SNAP_VERSION: u32 = 2;
/// Magic, version, fingerprint, watermark, stage count.
const HEADER_LEN: usize = SNAP_MAGIC.len() + 4 + 8 + 8 + 4;
/// Magic prefix of every delta file: format v2's second kind, a cut
/// stored as the layers written since its parent cut.
pub const DELTA_MAGIC: &[u8; 12] = b"NASPIPE-DLTA";
/// Magic, version, fingerprint, watermark, parent watermark, parent
/// trailer, stage count.
const DELTA_HEADER_LEN: usize = DELTA_MAGIC.len() + 4 + 8 + 8 + 8 + 8 + 4;
/// Default number of complete cuts retained on disk.
pub const DEFAULT_KEEP: usize = 3;
/// Pruned deltas kept on disk for later writes to recycle: dead ones,
/// whose chain's full is gone, so no loadable cut.
const MAX_DEAD: usize = 8;

/// Counts [`DurableStore::persist`] calls process-wide, so the
/// `NASPIPE_CRASH_WRITE=<n>` chaos hook can abort deterministically in
/// the middle of the n-th write (exercising the atomic-rename path from
/// outside the process).
static PERSIST_CALLS: AtomicU64 = AtomicU64::new(0);

/// Typed failures of the durable layer. Never panics: a corrupt disk must
/// degrade into a recoverable error the supervisor (or operator) can act
/// on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An OS-level I/O failure (`op` names the operation, e.g. `rename`).
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Operation that failed.
        op: &'static str,
        /// Stringified OS error.
        detail: String,
    },
    /// No valid snapshot exists in the directory. `skipped` lists files
    /// that were present but rejected, so an all-corrupt directory is
    /// distinguishable from an empty one.
    NoSnapshot {
        /// The directory searched.
        dir: PathBuf,
        /// Rejected candidate files and why, newest first.
        skipped: Vec<(PathBuf, String)>,
    },
    /// Structural parse failure: truncation, bad magic, or malformed
    /// fields.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// The offending file.
        path: PathBuf,
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the actual bytes.
        actual: u64,
    },
    /// The snapshot was written by a different run configuration.
    FingerprintMismatch {
        /// The offending file.
        path: PathBuf,
        /// Fingerprint of the current run.
        expected: u64,
        /// Fingerprint recorded in the file.
        actual: u64,
    },
    /// The snapshot format version is other than v[`SNAP_VERSION`], the
    /// one this build reads (older builds' files included).
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// Version recorded in the file.
        version: u32,
    },
    /// A delta whose chain does not lead down to a full snapshot: its
    /// parent's file is missing or unreadable, or is not the file the
    /// delta was written on.
    BrokenChain {
        /// The delta that cannot be loaded.
        path: PathBuf,
        /// Which link failed.
        detail: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, op, detail } => {
                write!(f, "{op} {} failed: {detail}", path.display())
            }
            DurableError::NoSnapshot { dir, skipped } => {
                if skipped.is_empty() {
                    write!(f, "no snapshot in {}", dir.display())
                } else {
                    write!(
                        f,
                        "no valid snapshot in {} ({} file(s) rejected, newest: {})",
                        dir.display(),
                        skipped.len(),
                        skipped[0].1
                    )
                }
            }
            DurableError::Corrupt { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            DurableError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {}: file says {expected:016x}, contents hash to {actual:016x}",
                path.display()
            ),
            DurableError::FingerprintMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "snapshot {} belongs to a different run: fingerprint {actual:016x}, \
                 this run is {expected:016x}",
                path.display()
            ),
            DurableError::UnsupportedVersion { path, version } => write!(
                f,
                "snapshot {} has format version {version}, other than v{SNAP_VERSION} (the one this build reads)",
                path.display()
            ),
            DurableError::BrokenChain { path, detail } => {
                write!(f, "broken chain at {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for DurableError {}

fn io_err(path: &Path, op: &'static str, e: &std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.to_path_buf(),
        op,
        detail: e.to_string(),
    }
}

/// Fingerprint of everything that determines a training run's state
/// trajectory: the space shape, the exact subnet stream, the numeric
/// training configuration, the stage count, and the checkpoint interval.
///
/// `TrainConfig::threads` is deliberately excluded — the compute pool
/// never affects results, so snapshots are portable across pool sizes
/// (just like results are).
pub fn run_fingerprint(
    space: &SearchSpace,
    subnets: &[Subnet],
    cfg: &TrainConfig,
    gpus: u32,
    checkpoint_interval: u64,
) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, SNAP_MAGIC);
    let domain_tag: u8 = match space.domain() {
        naspipe_supernet::layer::Domain::Nlp => 0,
        naspipe_supernet::layer::Domain::Cv => 1,
    };
    h = fnv1a(h, &[domain_tag]);
    h = fnv1a(h, &(space.num_blocks() as u64).to_le_bytes());
    for block in space.blocks() {
        h = fnv1a(h, &block.num_choices().to_le_bytes());
    }
    h = fnv1a(h, &gpus.to_le_bytes());
    h = fnv1a(h, &checkpoint_interval.to_le_bytes());
    h = fnv1a(h, &(cfg.dim as u64).to_le_bytes());
    h = fnv1a(h, &(cfg.rows as u64).to_le_bytes());
    h = fnv1a(h, &cfg.lr.to_bits().to_le_bytes());
    h = fnv1a(h, &cfg.residual_scale.to_bits().to_le_bytes());
    h = fnv1a(h, &cfg.momentum.to_bits().to_le_bytes());
    h = fnv1a(h, &cfg.weight_decay.to_bits().to_le_bytes());
    h = fnv1a(h, &cfg.seed.to_le_bytes());
    h = fnv1a(h, &(subnets.len() as u64).to_le_bytes());
    for s in subnets {
        h = fnv1a(h, &s.seq_id().0.to_le_bytes());
        for &c in s.choices() {
            h = fnv1a(h, &c.to_le_bytes());
        }
    }
    h
}

// ---------------------------------------------------------------------------
// v2 encoding
// ---------------------------------------------------------------------------

/// Bytes the encoder gathers before handing them on: persisting a cut
/// holds about this much of its encoding, never the whole of it.
const ENC_CHUNK: usize = 1 << 16;

/// Builds the v2 encoding in `buf`. With an `out`, the whole words move
/// on to it, checksummed as they leave, whenever `buf` holds a chunk
/// ([`ENC_CHUNK`]); without one, `buf` ends holding the whole encoding.
/// The first write error is kept, later writes are skipped, and
/// [`finish`](Self::finish) returns it.
struct Enc<'a> {
    buf: Vec<u8>,
    out: Option<&'a mut dyn Write>,
    sum: WordHasher,
    sent: usize,
    err: Option<std::io::Error>,
}

/// What an encoder leaves: the bytes it still holds (the whole encoding
/// when it had no `out`), the encoding's length and its trailing
/// checksum.
struct Encoded {
    buf: Vec<u8>,
    len: usize,
    trailer: u64,
}

impl<'a> Enc<'a> {
    fn spill(&mut self) {
        if self.buf.len() < ENC_CHUNK {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        let words = self.buf.len() & !7;
        self.sum.update(&self.buf[..words]);
        if self.err.is_none() {
            self.err = out.write_all(&self.buf[..words]).err();
        }
        self.sent += words;
        self.buf.drain(..words);
    }

    fn new(out: Option<&'a mut dyn Write>, capacity: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(capacity),
            out,
            sum: WordHasher::new(FNV_OFFSET),
            sent: 0,
            err: None,
        }
    }

    /// Appends the trailing checksum and writes what `out` has not had
    /// yet.
    fn finish(mut self) -> std::io::Result<Encoded> {
        let trailer = self.sum.finish(&self.buf);
        self.buf.extend_from_slice(&trailer.to_le_bytes());
        if let (Some(out), None) = (self.out, &self.err) {
            self.err = out.write_all(&self.buf).err();
        }
        let len = self.sent + self.buf.len();
        let encoded = Encoded {
            buf: self.buf,
            len,
            trailer,
        };
        self.err.map_or(Ok(encoded), Err)
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    /// Shape, then the payload as one little-endian slab: on a
    /// little-endian host the loop below is a `memcpy`.
    fn tensor(&mut self, t: &Tensor) {
        let shape = t.shape();
        self.u32(shape.len() as u32);
        for &d in shape {
            self.u32(d as u32);
        }
        let start = self.buf.len();
        self.buf.resize(start + 4 * t.data().len(), 0);
        for (dst, x) in self.buf[start..].chunks_exact_mut(4).zip(t.data()) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
        self.spill();
    }
    fn dense(&mut self, p: &DenseParams) {
        self.tensor(&p.weight);
        self.tensor(&p.bias);
    }
    fn losses<'l>(&mut self, losses: impl ExactSizeIterator<Item = (&'l u64, &'l f32)>) {
        self.u32(losses.len() as u32);
        for (&step, &loss) in losses {
            self.u64(step);
            self.f32(loss);
        }
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "truncated: wanted {n} byte(s) at offset {}, {} left",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn len(&mut self, what: &str, cap: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        // Every element of every collection takes >= 1 encoded byte, so a
        // length exceeding the remaining bytes is structurally impossible
        // — reject it before trying to allocate.
        let cap = cap.min(self.bytes.len() - self.pos);
        if n > cap {
            return Err(format!("{what} length {n} exceeds plausible bound {cap}"));
        }
        Ok(n)
    }
    fn tensor(&mut self) -> Result<Tensor, String> {
        let ndim = self.len("tensor rank", 8)?;
        let mut shape = Vec::with_capacity(ndim);
        let mut numel = Some(1usize);
        for _ in 0..ndim {
            let d = self.u32()? as usize;
            numel = numel.and_then(|n| n.checked_mul(d));
            shape.push(d);
        }
        let slab = numel
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| format!("tensor shape {shape:?} overflows"))?;
        let data = self
            .take(slab)?
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes(b.try_into().expect("chunks_exact(4)"))))
            .collect();
        Ok(Tensor::from_vec(data, &shape))
    }
    fn dense(&mut self) -> Result<DenseParams, String> {
        Ok(DenseParams {
            weight: self.tensor()?,
            bias: self.tensor()?,
        })
    }
    /// A count, then that many `(step, loss)` pairs in ascending step
    /// order.
    fn losses(&mut self) -> Result<Vec<(u64, f32)>, String> {
        let n = self.len("loss count", usize::MAX)?;
        let mut losses = Vec::with_capacity(n);
        for _ in 0..n {
            let step = self.u64()?;
            if losses.last().is_some_and(|&(prev, _)| prev >= step) {
                return Err("loss steps out of order".into());
            }
            losses.push((step, self.f32()?));
        }
        Ok(losses)
    }
    fn done(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing byte(s) after the snapshot body",
                self.bytes.len() - self.pos
            ))
        }
    }
}

/// The engine with `velocity` standing for its optimizer's velocity map:
/// all of it in a full, the written layers' entries in a delta.
fn encode_engine<'v>(
    enc: &mut Enc,
    engine: &NumericSupernet,
    velocity: impl ExactSizeIterator<Item = (&'v LayerRef, &'v DenseGrads)>,
) {
    enc.f32(engine.residual_scale());
    match engine.optimizer() {
        Optimizer::Sgd(o) => {
            enc.u8(0);
            enc.f32(o.lr);
        }
        Optimizer::Momentum(o) => {
            enc.u8(1);
            enc.f32(o.lr());
            enc.f32(o.momentum());
            enc.f32(o.weight_decay());
            enc.u32(velocity.len() as u32);
            for (layer, v) in velocity {
                enc.u32(layer.block);
                enc.u32(layer.choice);
                enc.tensor(&v.weight);
                enc.tensor(&v.bias);
            }
        }
    }
}

fn decode_engine(dec: &mut Dec<'_>) -> Result<NumericSupernet, String> {
    let residual_scale = dec.f32()?;
    if !(residual_scale.is_finite() && residual_scale > 0.0) {
        return Err(format!("residual scale {residual_scale} is not positive"));
    }
    let optimizer = match dec.u8()? {
        0 => {
            let lr = dec.f32()?;
            if !(lr.is_finite() && lr > 0.0) {
                return Err(format!("sgd learning rate {lr} is not positive"));
            }
            Optimizer::Sgd(Sgd::new(lr))
        }
        1 => {
            let lr = dec.f32()?;
            let mu = dec.f32()?;
            let wd = dec.f32()?;
            if !(lr.is_finite() && lr > 0.0) {
                return Err(format!("momentum learning rate {lr} is not positive"));
            }
            if !(0.0..1.0).contains(&mu) || !(0.0..1.0).contains(&wd) {
                return Err(format!(
                    "momentum coefficients out of range: mu {mu}, wd {wd}"
                ));
            }
            let n = dec.len("velocity entries", usize::MAX)?;
            let mut velocity = BTreeMap::new();
            let mut prev: Option<LayerRef> = None;
            for _ in 0..n {
                let layer = LayerRef::new(dec.u32()?, dec.u32()?);
                if prev.is_some_and(|p| p >= layer) {
                    return Err("velocity layers out of order".into());
                }
                prev = Some(layer);
                let weight = dec.tensor()?;
                let bias = dec.tensor()?;
                velocity.insert(layer, DenseGrads { weight, bias });
            }
            Optimizer::Momentum(MomentumSgd::from_state(lr, mu, wd, velocity))
        }
        tag => return Err(format!("unknown optimizer tag {tag}")),
    };
    Ok(NumericSupernet::from_parts(optimizer, residual_scale))
}

fn tensor_len(t: &Tensor) -> usize {
    4 + 4 * t.shape().len() + 4 * t.data().len()
}

fn dense_len(p: &DenseParams) -> usize {
    tensor_len(&p.weight) + tensor_len(&p.bias)
}

/// Encoded size of [`encode_engine`]'s output.
fn engine_len<'v>(
    engine: &NumericSupernet,
    velocity: impl Iterator<Item = &'v DenseGrads>,
) -> usize {
    let optimizer = match engine.optimizer() {
        Optimizer::Sgd(_) => 4,
        Optimizer::Momentum(_) => {
            let velocity = velocity.map(|v| 8 + tensor_len(&v.weight) + tensor_len(&v.bias));
            12 + 4 + velocity.sum::<usize>()
        }
    };
    4 + 1 + optimizer
}

/// The engine's whole velocity map (empty under plain SGD).
fn velocity_of(engine: &NumericSupernet) -> &BTreeMap<LayerRef, DenseGrads> {
    static NONE: BTreeMap<LayerRef, DenseGrads> = BTreeMap::new();
    match engine.optimizer() {
        Optimizer::Sgd(_) => &NONE,
        Optimizer::Momentum(o) => o.velocity(),
    }
}

/// Exact encoded size of `ckpt`, trailer included — the grammar of
/// [`encode_to`] with every field replaced by its width.
fn encoded_len(ckpt: &Checkpoint) -> usize {
    let stage = |s: &StageSnapshot| {
        let params: usize = s.params.iter().flatten().map(dense_len).sum();
        let engine = engine_len(&s.engine, velocity_of(&s.engine).values());
        4 + 4 * s.params.len() + params + engine + 4 + 12 * s.losses.len()
    };
    HEADER_LEN + ckpt.stages.iter().map(stage).sum::<usize>() + 8
}

/// Encodes `ckpt` (trailing checksum included) into `out` in pieces of
/// about [`ENC_CHUNK`] bytes, or without an `out` into the returned
/// buffer; returns the buffer and the encoding's length.
fn encode_to(
    out: Option<&mut dyn Write>,
    ckpt: &Checkpoint,
    fingerprint: u64,
) -> std::io::Result<Encoded> {
    let capacity = if out.is_some() {
        2 * ENC_CHUNK
    } else {
        encoded_len(ckpt)
    };
    let mut enc = Enc::new(out, capacity);
    enc.buf.extend_from_slice(SNAP_MAGIC);
    enc.u32(SNAP_VERSION);
    enc.u64(fingerprint);
    enc.u64(ckpt.watermark);
    enc.u32(ckpt.stages.len() as u32);
    for stage in &ckpt.stages {
        enc.u32(stage.params.len() as u32);
        for block in &stage.params {
            enc.u32(block.len() as u32);
            for p in block {
                enc.dense(p);
            }
        }
        encode_engine(&mut enc, &stage.engine, velocity_of(&stage.engine).iter());
        enc.losses(stage.losses.iter());
    }
    let encoded = enc.finish()?;
    debug_assert_eq!(
        encoded.len,
        encoded_len(ckpt),
        "encoded_len disagrees with the encoder"
    );
    Ok(encoded)
}

/// Encodes `ckpt` into the v2 byte format (including trailing checksum).
/// `fingerprint` stamps the run the snapshot belongs to.
///
/// Exposed for tests; use [`DurableStore::persist`] to write files.
pub fn encode_snapshot(ckpt: &Checkpoint, fingerprint: u64) -> Vec<u8> {
    let encoded = encode_to(None, ckpt, fingerprint).expect("nothing is written");
    encoded.buf
}

/// Reads the version and the fingerprint that follow a file's magic,
/// verifying the trailing checksum `tail` over the body between them:
/// what the checksum *is* depends on the version, so another version's
/// file is [`DurableError::UnsupportedVersion`], not a checksum mismatch.
fn check_envelope(
    dec: &mut Dec<'_>,
    tail: &[u8],
    path: &Path,
    expect_fingerprint: Option<u64>,
) -> Result<u64, DurableError> {
    let corrupt = |detail: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let version = dec.u32().map_err(corrupt)?;
    if version != SNAP_VERSION {
        return Err(DurableError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let expected = u64::from_le_bytes(tail.try_into().expect("an 8-byte trailer"));
    let actual = fnv1a_words(FNV_OFFSET, dec.bytes);
    if expected != actual {
        return Err(DurableError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    let fingerprint = dec.u64().map_err(corrupt)?;
    match expect_fingerprint {
        Some(expect) if fingerprint != expect => Err(DurableError::FingerprintMismatch {
            path: path.to_path_buf(),
            expected: expect,
            actual: fingerprint,
        }),
        _ => Ok(fingerprint),
    }
}

/// Parses a v2 snapshot, validating magic, version, checksum, and (when
/// `expect_fingerprint` is `Some`) the run fingerprint. Magic and version
/// are read before the checksum is verified — what the checksum *is*
/// depends on the version, so another version's file is
/// [`DurableError::UnsupportedVersion`], not a checksum mismatch. The
/// returned checkpoint's `cut_span` is [`SpanId::EXTERNAL`] — causal
/// spans do not survive the process boundary.
///
/// # Errors
///
/// Every malformed input maps to a typed [`DurableError`]; this function
/// never panics on untrusted bytes.
pub fn decode_snapshot(
    bytes: &[u8],
    path: &Path,
    expect_fingerprint: Option<u64>,
) -> Result<(Checkpoint, u64), DurableError> {
    let corrupt = |detail: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < HEADER_LEN + 8 {
        return Err(corrupt(format!("{} byte(s) is too short", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut dec = Dec::new(body);
    let magic = dec.take(SNAP_MAGIC.len()).map_err(&corrupt)?;
    if magic != SNAP_MAGIC {
        let what = if magic == DELTA_MAGIC {
            "a delta, not a full snapshot"
        } else {
            "bad magic"
        };
        return Err(corrupt(what.into()));
    }
    let fingerprint = check_envelope(&mut dec, tail, path, expect_fingerprint)?;
    let watermark = dec.u64().map_err(&corrupt)?;
    let num_stages = dec.len("stage count", 4096).map_err(&corrupt)?;
    if num_stages == 0 {
        return Err(corrupt("snapshot has zero stages".into()));
    }
    let mut stages = Vec::with_capacity(num_stages);
    for _ in 0..num_stages {
        let num_blocks = dec.len("block count", usize::MAX).map_err(&corrupt)?;
        let mut params = Vec::with_capacity(num_blocks);
        for _ in 0..num_blocks {
            let num_choices = dec.len("choice count", usize::MAX).map_err(&corrupt)?;
            let mut block = Vec::with_capacity(num_choices);
            for _ in 0..num_choices {
                block.push(dec.dense().map_err(&corrupt)?);
            }
            params.push(block);
        }
        let engine = decode_engine(&mut dec).map_err(&corrupt)?;
        let losses = dec.losses().map_err(&corrupt)?.into_iter().collect();
        stages.push(StageSnapshot {
            params,
            engine,
            losses,
        });
    }
    dec.done().map_err(&corrupt)?;
    Ok((
        Checkpoint {
            watermark,
            stages,
            cut_span: SpanId::EXTERNAL,
        },
        fingerprint,
    ))
}

// ---------------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------------

/// A cut to encode as a delta on `parent`.
struct DeltaPlan<'a> {
    ckpt: &'a Checkpoint,
    parent: u64,
    parent_trailer: u64,
    stages: Vec<StagePlan<'a>>,
}

/// One stage of a [`DeltaPlan`]: the layers written since the parent,
/// ascending, their velocity entries, and how many of the stage's losses
/// (its first ones) the parent already holds.
struct StagePlan<'a> {
    layers: Cow<'a, [(usize, usize)]>,
    velocity: Vec<(&'a LayerRef, &'a DenseGrads)>,
    old_losses: usize,
}

impl DeltaPlan<'_> {
    /// Exact encoded size, trailer included — the grammar of
    /// [`encode`](Self::encode) with every field replaced by its width.
    fn len(&self) -> usize {
        let stage = |(s, p): (&StageSnapshot, &StagePlan)| {
            let layers = p
                .layers
                .iter()
                .map(|&(b, c)| 8 + dense_len(&s.params[b][c]));
            let engine = engine_len(&s.engine, p.velocity.iter().map(|e| e.1));
            let losses = 4 + 4 + 12 * (s.losses.len() - p.old_losses);
            4 + layers.sum::<usize>() + engine + 4 + losses
        };
        let stages = self.ckpt.stages.iter().zip(&self.stages).map(stage);
        DELTA_HEADER_LEN + stages.sum::<usize>() + 8
    }

    /// Encodes the delta like [`encode_to`] encodes a full.
    fn encode(&self, out: Option<&mut dyn Write>, fingerprint: u64) -> std::io::Result<Encoded> {
        let capacity = if out.is_some() {
            2 * ENC_CHUNK
        } else {
            self.len()
        };
        let mut enc = Enc::new(out, capacity);
        enc.buf.extend_from_slice(DELTA_MAGIC);
        enc.u32(SNAP_VERSION);
        enc.u64(fingerprint);
        enc.u64(self.ckpt.watermark);
        enc.u64(self.parent);
        enc.u64(self.parent_trailer);
        enc.u32(self.ckpt.stages.len() as u32);
        for (s, p) in self.ckpt.stages.iter().zip(&self.stages) {
            enc.u32(p.layers.len() as u32);
            for &(b, c) in p.layers.iter() {
                enc.u32(b as u32);
                enc.u32(c as u32);
                enc.dense(&s.params[b][c]);
            }
            encode_engine(&mut enc, &s.engine, p.velocity.iter().copied());
            enc.u32(velocity_of(&s.engine).len() as u32);
            enc.u32(s.losses.len() as u32);
            enc.losses(s.losses.iter().skip(p.old_losses));
        }
        let encoded = enc.finish()?;
        debug_assert_eq!(encoded.len, self.len(), "len disagrees with the encoder");
        Ok(encoded)
    }
}

/// A decoded delta, checksummed and structurally valid, not yet applied.
struct Delta {
    watermark: u64,
    parent: u64,
    parent_trailer: u64,
    stages: Vec<DeltaStage>,
}

struct DeltaStage {
    layers: Vec<(usize, usize, DenseParams)>,
    /// The stage's engine, its velocity holding the written layers' only.
    engine: NumericSupernet,
    /// Velocity entries and losses of the whole cut.
    velocity_total: usize,
    loss_total: usize,
    /// The losses the parent does not hold.
    losses: Vec<(u64, f32)>,
}

/// Parses a delta file like [`decode_snapshot`] parses a full: magic,
/// version, checksum and fingerprint first, then the body. A parent not
/// below the delta's own watermark is corrupt, so a chain always ends.
fn decode_delta(
    bytes: &[u8],
    path: &Path,
    expect_fingerprint: Option<u64>,
) -> Result<Delta, DurableError> {
    let corrupt = |detail: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < DELTA_HEADER_LEN + 8 {
        return Err(corrupt(format!("{} byte(s) is too short", bytes.len())));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut dec = Dec::new(body);
    if dec.take(DELTA_MAGIC.len()).map_err(&corrupt)? != DELTA_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    check_envelope(&mut dec, tail, path, expect_fingerprint)?;
    let mut body = || -> Result<Delta, String> {
        let (watermark, parent, parent_trailer) = (dec.u64()?, dec.u64()?, dec.u64()?);
        if parent >= watermark {
            return Err(format!("parent cut {parent} is not below {watermark}"));
        }
        let num_stages = dec.len("stage count", 4096)?;
        if num_stages == 0 {
            return Err("delta has zero stages".into());
        }
        let mut stages = Vec::with_capacity(num_stages);
        for _ in 0..num_stages {
            let count = dec.len("layer count", usize::MAX)?;
            let mut layers: Vec<(usize, usize, DenseParams)> = Vec::new();
            for _ in 0..count {
                let (b, c) = (dec.u32()? as usize, dec.u32()? as usize);
                if layers.last().is_some_and(|l| (l.0, l.1) >= (b, c)) {
                    return Err("written layers out of order".into());
                }
                layers.push((b, c, dec.dense()?));
            }
            stages.push(DeltaStage {
                layers,
                engine: decode_engine(&mut dec)?,
                velocity_total: dec.u32()? as usize,
                loss_total: dec.u32()? as usize,
                losses: dec.losses()?,
            });
        }
        dec.done()?;
        Ok(Delta {
            watermark,
            parent,
            parent_trailer,
            stages,
        })
    };
    body().map_err(corrupt)
}

impl Delta {
    /// Brings `ckpt`, the parent cut, up to this delta's cut. On an error
    /// `ckpt` is left part-way and must be dropped.
    fn apply(self, ckpt: &mut Checkpoint) -> Result<(), String> {
        if self.stages.len() != ckpt.stages.len() {
            let parent = ckpt.stages.len();
            return Err(format!(
                "{} stages on a parent of {parent}",
                self.stages.len()
            ));
        }
        for (k, (d, s)) in self.stages.into_iter().zip(&mut ckpt.stages).enumerate() {
            for (b, c, p) in d.layers {
                let slot = s.params.get_mut(b).and_then(|block| block.get_mut(c));
                let slot = slot
                    .ok_or_else(|| format!("stage {k}: layer ({b}, {c}) is not in the parent"))?;
                if slot.weight.shape() != p.weight.shape() || slot.bias.shape() != p.bias.shape() {
                    return Err(format!("stage {k}: layer ({b}, {c}) changed shape"));
                }
                *slot = p;
            }
            let merged = match d.engine.optimizer() {
                Optimizer::Sgd(_) => None,
                Optimizer::Momentum(o) => {
                    let mut velocity = velocity_of(&s.engine).clone();
                    velocity.extend(o.velocity().iter().map(|(l, v)| (*l, v.clone())));
                    let (lr, mu, wd) = (o.lr(), o.momentum(), o.weight_decay());
                    let o = MomentumSgd::from_state(lr, mu, wd, velocity);
                    let scale = d.engine.residual_scale();
                    Some(NumericSupernet::from_parts(Optimizer::Momentum(o), scale))
                }
            };
            s.engine = merged.unwrap_or(d.engine);
            let velocity = velocity_of(&s.engine).len();
            if velocity != d.velocity_total {
                let want = d.velocity_total;
                return Err(format!(
                    "stage {k}: {velocity} velocity entries, the cut had {want}"
                ));
            }
            let last = s.losses.last_key_value().map(|(&step, _)| step);
            if d.losses
                .first()
                .is_some_and(|&(step, _)| last.is_some_and(|l| step <= l))
            {
                return Err(format!(
                    "stage {k}: new loss steps do not follow the parent's"
                ));
            }
            s.losses.extend(d.losses);
            if s.losses.len() != d.loss_total {
                let (got, want) = (s.losses.len(), d.loss_total);
                return Err(format!("stage {k}: {got} losses, the cut had {want}"));
            }
        }
        ckpt.watermark = self.watermark;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Store: atomic persistence, chains, retention
// ---------------------------------------------------------------------------

/// File name of the snapshot at `watermark`. Zero-padded so
/// lexicographic and numeric order agree.
pub fn snapshot_file_name(watermark: u64) -> String {
    format!("ckpt-{watermark:020}.snap")
}

/// The watermark a cut's file is named after: exactly
/// [`snapshot_file_name`]'s form, so one cut has one name.
fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".snap")?;
    let digits = stem.len() == 20 && stem.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| stem.parse().ok()).flatten()
}

/// A successfully loaded resume point.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// The decoded consistent cut.
    pub checkpoint: Checkpoint,
    /// The file it came from (the top of its chain).
    pub path: PathBuf,
    /// Newer candidate files that were rejected (path, reason), newest
    /// first — non-empty means the loader *fell back*.
    pub skipped: Vec<(PathBuf, String)>,
}

/// What a `ckpt-*.snap` file of the directory is, by its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    Full,
    /// A delta on the cut at this watermark, which is below its own.
    Delta(u64),
    /// Not a cut of this run: unreadable, of another version or run, or
    /// named other than its header's watermark.
    Unusable,
}

/// The newest cut this store persisted: what the next delta extends.
#[derive(Debug)]
struct Head {
    watermark: u64,
    trailer: u64,
    /// [`shape_digest`] of the cut.
    shape: u64,
    /// Per stage, how many losses the cut held, and their
    /// [`loss_digest`].
    losses: Vec<(usize, u64)>,
    /// Bytes of the deltas written since the chain's full.
    deltas_len: usize,
}

/// Digest of a cut's shape: its stage count, each stage's block count
/// and each block's choice count.
fn shape_digest(ckpt: &Checkpoint) -> u64 {
    let word = |h: u64, n: usize| fnv1a(h, &(n as u64).to_le_bytes());
    let blocks = ckpt.stages.iter().flat_map(|s| {
        let choices = s.params.iter().map(Vec::len);
        std::iter::once(s.params.len()).chain(choices)
    });
    blocks.fold(word(FNV_OFFSET, ckpt.stages.len()), word)
}

/// Digest of a run of `(step, loss)` entries.
fn loss_digest<'l>(losses: impl Iterator<Item = (&'l u64, &'l f32)>) -> u64 {
    losses.fold(FNV_OFFSET, |h, (&step, &loss)| {
        fnv1a(fnv1a(h, &step.to_le_bytes()), &loss.to_bits().to_le_bytes())
    })
}

impl Head {
    /// `ckpt` as a delta on this head: when `written` names the layers
    /// each stage wrote since this head, the shapes agree, and the head's
    /// losses are the cut's first ones (by digest).
    fn plan<'a>(&self, ckpt: &'a Checkpoint, written: &'a Written) -> Option<DeltaPlan<'a>> {
        let fits = written.since == self.watermark
            && self.watermark < ckpt.watermark
            && written.layers.len() == ckpt.stages.len()
            && self.losses.len() == ckpt.stages.len()
            && shape_digest(ckpt) == self.shape;
        if !fits {
            return None;
        }
        let mut stages = Vec::with_capacity(ckpt.stages.len());
        // A cut's stages hold consecutive blocks, the first from block 0.
        let mut first_block = 0;
        let parts = ckpt.stages.iter().zip(&written.layers);
        for ((s, layers), &(old_losses, digest)) in parts.zip(&self.losses) {
            let extends = s.losses.len() >= old_losses
                && loss_digest(s.losses.iter().take(old_losses)) == digest;
            if !extends {
                return None;
            }
            let layers = if layers.windows(2).all(|w| w[0] < w[1]) {
                Cow::Borrowed(&layers[..])
            } else {
                let mut sorted = layers.clone();
                sorted.sort_unstable();
                sorted.dedup();
                Cow::Owned(sorted)
            };
            if layers
                .iter()
                .any(|&(b, c)| s.params.get(b).is_none_or(|block| c >= block.len()))
            {
                return None;
            }
            let velocity = velocity_of(&s.engine);
            let layer =
                |&(b, c): &(usize, usize)| LayerRef::new((first_block + b) as u32, c as u32);
            let velocity = layers
                .iter()
                .filter_map(|at| velocity.get_key_value(&layer(at)));
            stages.push(StagePlan {
                velocity: velocity.collect(),
                layers,
                old_losses,
            });
            first_block += s.params.len();
        }
        Some(DeltaPlan {
            ckpt,
            parent: self.watermark,
            parent_trailer: self.trailer,
            stages,
        })
    }
}

/// The files `watermark`'s chain consists of, itself first, if every
/// link is on disk down to a full.
fn chain_of(links: &BTreeMap<u64, Link>, mut watermark: u64) -> Option<Vec<u64>> {
    let mut chain = Vec::new();
    loop {
        chain.push(watermark);
        match links.get(&watermark)? {
            Link::Full => return Some(chain),
            // Strictly below: the walk ends.
            &Link::Delta(parent) => watermark = parent,
            Link::Unusable => return None,
        }
    }
}

/// What a store remembers between persists.
#[derive(Debug, Default)]
struct State {
    /// `None` after `open` and after a failed persist: the next is a full.
    head: Option<Head>,
    /// The directory's cut files, as last listed.
    links: BTreeMap<u64, Link>,
}

/// The tmp file being written: each `write` is one file operation.
struct Steps<'a> {
    file: &'a mut File,
    store: &'a DurableStore,
}

impl Write for Steps<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let step = self.store.step();
        step.map_err(|e| std::io::Error::other(e.to_string()))?;
        self.file.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// Handle on a checkpoint directory: persists cuts atomically, as fulls
/// or as deltas on the cut it persisted last, prunes old files, and
/// loads the newest valid cut.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    keep: usize,
    fingerprint: u64,
    // `NASPIPE_CRASH_WRITE=<n>`, read once at open.
    crash_write: Option<u64>,
    state: Mutex<State>,
    /// File operations persists may still make before a crash test stops
    /// them ([`step`](Self::step)).
    #[cfg(test)]
    ops_left: AtomicU64,
}

impl DurableStore {
    /// Opens (creating if needed) the checkpoint directory, keeping the
    /// last `keep` loadable cuts on disk (`0` is treated as `1` — a
    /// store that retains nothing could never resume). Orphaned tmp files
    /// of a previous, crashed incarnation are removed here, once.
    ///
    /// # Errors
    ///
    /// Fails only on directory-creation I/O errors.
    pub fn open(dir: &Path, keep: usize, fingerprint: u64) -> Result<Self, DurableError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, "create dir", &e))?;
        for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') && name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
            fingerprint,
            crash_write: std::env::var("NASPIPE_CRASH_WRITE")
                .ok()
                .and_then(|v| v.parse().ok()),
            state: Mutex::new(State::default()),
            #[cfg(test)]
            ops_left: AtomicU64::new(u64::MAX),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The run fingerprint snapshots are stamped with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Atomically persists `ckpt` as a full snapshot, pruning the files
    /// below it that retention no longer needs. Returns the final
    /// snapshot path.
    ///
    /// The oldest file retention prunes is not unlinked but renamed to
    /// this write's tmp name and overwritten in place — when another
    /// loadable cut stays on disk for the whole write; otherwise the tmp
    /// file is created. Either way the file ends as the v2 encoding of
    /// `ckpt` ([`encode_snapshot`]) and nothing else.
    ///
    /// Honors the `NASPIPE_CRASH_WRITE=<n>` chaos hook: the n-th persist
    /// call process-wide aborts after writing *half* of the tmp file —
    /// simulating a power cut mid-write. The tmp file is never renamed,
    /// so a subsequent load must still see only complete snapshots.
    ///
    /// # Errors
    ///
    /// Surfaces I/O failures as [`DurableError::Io`]; the directory is
    /// left with the previous snapshot set intact, less the file this
    /// write recycled (one retention was about to prune). Once the rename
    /// has happened the cut is durable and the call succeeds: pruning is
    /// best effort.
    pub fn persist(&self, ckpt: &Checkpoint) -> Result<PathBuf, DurableError> {
        self.write(ckpt, None)
    }

    /// Persists `ckpt` like [`persist`](Self::persist), but as a delta
    /// when `written` names, per stage, every layer written since cut
    /// `written.since` and that cut is the one this store persisted last
    /// (and the deltas since its chain's full, this one included, stay
    /// within one full's bytes). Otherwise writes a full. A delta holds the
    /// written layers, their optimizer state, the new losses, and its
    /// parent's watermark and trailing checksum.
    ///
    /// The layers are `(block - first block of the stage, choice)`, as
    /// [`StageSnapshot::params`] is indexed; a layer not named must be
    /// unchanged since `written.since`, its velocity entry included.
    ///
    /// # Errors
    ///
    /// As [`persist`](Self::persist); the persist after a failed one is a
    /// full.
    pub fn persist_cut(
        &self,
        ckpt: &Checkpoint,
        written: &Written,
    ) -> Result<PathBuf, DurableError> {
        self.write(ckpt, Some(written))
    }

    fn write(&self, ckpt: &Checkpoint, written: Option<&Written>) -> Result<PathBuf, DurableError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let written = self.write_locked(&mut state, ckpt, written);
        if written.is_err() {
            *state = State::default();
        }
        written
    }

    fn write_locked(
        &self,
        state: &mut State,
        ckpt: &Checkpoint,
        written: Option<&Written>,
    ) -> Result<PathBuf, DurableError> {
        let watermark = ckpt.watermark;
        let name = snapshot_file_name(watermark);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!(".{name}.tmp"));
        let State { head, links } = state;
        self.scan(links);
        links.remove(&watermark);

        // Full or delta: a delta extends the newest cut this store wrote,
        // while its file is there, up to one full's worth of deltas.
        let head_on_disk = head
            .as_ref()
            .filter(|h| chain_of(links, h.watermark).is_some());
        let plan = head_on_disk.zip(written).and_then(|(h, written)| {
            let plan = h.plan(ckpt, written)?;
            let deltas_len = h.deltas_len + plan.len();
            (deltas_len <= encoded_len(ckpt)).then_some((plan, deltas_len))
        });

        // Retention: this cut, the newest `keep - 1` loadable cuts below
        // it, and every file their chains and this cut's chain need stay
        // (files *above* it are another run's or a corrupt cut about to be
        // rewritten; they never evict the one just written).
        let mut needed = BTreeSet::new();
        if let Some((plan, _)) = &plan {
            needed.extend(chain_of(links, plan.parent).into_iter().flatten());
        }
        let below = links.range(..watermark).rev().map(|(&w, _)| w);
        let retained = below.filter_map(|w| chain_of(links, w)).take(self.keep - 1);
        needed.extend(retained.flatten());
        let below = links.range(..watermark).map(|(&w, _)| w);
        let mut pruned: Vec<u64> = below.filter(|w| !needed.contains(w)).collect();
        // The write goes into the oldest pruned file that is no loadable
        // cut (a delta whose chain is gone), else into the oldest pruned
        // file, which takes a cut off the disk for the write: only while
        // a loadable cut below stays.
        let dead = pruned.iter().position(|&w| chain_of(links, w).is_none());
        let safe = needed.range(..watermark).next().is_some();
        let recycle = dead.or((safe && !pruned.is_empty()).then_some(0));
        self.step()?;
        let recycled = recycle.is_some_and(|at| {
            let file = self.dir.join(snapshot_file_name(pruned[at]));
            fs::rename(file, &tmp_path).is_ok()
        });
        if let (true, Some(at)) = (recycled, recycle) {
            links.remove(&pruned.remove(at));
        }

        let call = PERSIST_CALLS.fetch_add(1, Ordering::SeqCst) + 1;
        let encoded = {
            let mut f = if recycled {
                let f = OpenOptions::new().write(true).open(&tmp_path);
                f.map_err(|e| io_err(&tmp_path, "open", &e))?
            } else {
                File::create(&tmp_path).map_err(|e| io_err(&tmp_path, "create", &e))?
            };
            if self.crash_write == Some(call) {
                // Torn write: half the bytes hit the disk, then the
                // process dies without renaming. abort() skips all
                // destructors and exit handlers, like SIGKILL would.
                let bytes = match &plan {
                    Some((plan, _)) => plan.encode(None, self.fingerprint).map(|e| e.buf),
                    None => Ok(encode_snapshot(ckpt, self.fingerprint)),
                };
                let bytes = bytes.expect("nothing is written");
                let half = bytes.len() / 2;
                let _ = f.write_all(&bytes[..half]);
                let _ = f.sync_all();
                eprintln!(
                    "naspipe: NASPIPE_CRASH_WRITE={call} firing: aborting mid-write of {}",
                    tmp_path.display()
                );
                std::process::abort();
            }
            let mut out = Steps {
                file: &mut f,
                store: self,
            };
            let encoded = match &plan {
                Some((plan, _)) => plan.encode(Some(&mut out), self.fingerprint),
                None => encode_to(Some(&mut out), ckpt, self.fingerprint),
            };
            let encoded = encoded.map_err(|e| io_err(&tmp_path, "write", &e))?;
            if recycled {
                // Cut the old file's bytes past this encoding.
                self.step()?;
                f.set_len(encoded.len as u64)
                    .map_err(|e| io_err(&tmp_path, "set_len", &e))?;
            }
            self.step()?;
            f.sync_all().map_err(|e| io_err(&tmp_path, "sync", &e))?;
            encoded
        };
        self.step()?;
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, "rename", &e))?;
        // Make the rename itself durable (best-effort: directory fsync is
        // Linux-specific and advisory elsewhere).
        self.step()?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let link = plan
            .as_ref()
            .map_or(Link::Full, |(p, _)| Link::Delta(p.parent));
        links.insert(watermark, link);
        *head = Some(Head {
            watermark,
            trailer: encoded.trailer,
            shape: shape_digest(ckpt),
            losses: (ckpt.stages.iter())
                .map(|s| (s.losses.len(), loss_digest(s.losses.iter())))
                .collect(),
            deltas_len: plan.map_or(0, |(_, deltas_len)| deltas_len),
        });
        // Pruning unlinks the fulls (and unusable files): a chain whose
        // full is gone loads no more, so its deltas stay, dead, for later
        // writes to recycle — the newest `MAX_DEAD` of them. A delta that
        // still loads (its full is needed) goes too.
        let unlink = |w: u64, links: &mut BTreeMap<u64, Link>| {
            self.step()?;
            let _ = fs::remove_file(self.dir.join(snapshot_file_name(w)));
            links.remove(&w);
            Ok::<(), DurableError>(())
        };
        let is_delta = |w: &u64| matches!(links.get(w), Some(Link::Delta(_)));
        let (deltas, others): (Vec<u64>, Vec<u64>) = pruned.into_iter().partition(is_delta);
        for w in others {
            unlink(w, links)?;
        }
        let (live, dead): (Vec<u64>, Vec<u64>) =
            (deltas.into_iter()).partition(|&w| chain_of(links, w).is_some());
        let surplus = dead.len().saturating_sub(MAX_DEAD);
        for w in live.into_iter().chain(dead.into_iter().take(surplus)) {
            unlink(w, links)?;
        }
        Ok(final_path)
    }

    /// Brings `links` up to the directory's listing, reading the header
    /// of each file it does not know yet.
    fn scan(&self, links: &mut BTreeMap<u64, Link>) {
        let listed = self.list_snapshots().unwrap_or_default();
        links.retain(|w, _| listed.binary_search(w).is_ok());
        for w in listed {
            links.entry(w).or_insert_with(|| self.read_link(w));
        }
    }

    /// What the file of the cut at `watermark` is, by its header.
    fn read_link(&self, watermark: u64) -> Link {
        let path = self.dir.join(snapshot_file_name(watermark));
        let mut head = Vec::with_capacity(DELTA_HEADER_LEN);
        let read = File::open(path).and_then(|f| {
            let mut header = f.take(DELTA_HEADER_LEN as u64);
            header.read_to_end(&mut head)
        });
        let word = |at: usize| {
            let bytes = head.get(at..at + 8)?;
            Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
        };
        let ours = read.is_ok()
            && head.get(12..16) == Some(&SNAP_VERSION.to_le_bytes()[..])
            && word(16) == Some(self.fingerprint)
            && word(24) == Some(watermark);
        match &head[..head.len().min(12)] {
            magic if ours && magic == SNAP_MAGIC => Link::Full,
            magic if ours && magic == DELTA_MAGIC => match word(32) {
                Some(parent) if parent < watermark => Link::Delta(parent),
                _ => Link::Unusable,
            },
            _ => Link::Unusable,
        }
    }

    /// Counts one file operation of a persist. Under `cfg(test)` a crash
    /// test stops persists in front of the first operation past its
    /// budget, leaving the directory as a process killed there would.
    fn step(&self) -> Result<(), DurableError> {
        #[cfg(test)]
        {
            let left = (self.ops_left)
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
            if left.is_err() {
                return Err(DurableError::Io {
                    path: self.dir.clone(),
                    op: "crash test",
                    detail: "stopped".into(),
                });
            }
        }
        Ok(())
    }

    /// Watermarks of the snapshot files currently on disk, ascending.
    ///
    /// # Errors
    ///
    /// Fails on directory-read I/O errors.
    pub(crate) fn list_snapshots(&self) -> Result<Vec<u64>, DurableError> {
        let mut cuts: Vec<u64> = fs::read_dir(&self.dir)
            .map_err(|e| io_err(&self.dir, "read dir", &e))?
            .filter_map(Result::ok)
            .filter_map(|e| parse_snapshot_file_name(&e.file_name().to_string_lossy()))
            .collect();
        cuts.sort_unstable();
        Ok(cuts)
    }

    /// Loads the newest valid cut of this run, falling back cut by cut
    /// past corrupt, truncated, foreign or broken-chain files.
    ///
    /// # Errors
    ///
    /// [`DurableError::NoSnapshot`] (with the rejection list) when no
    /// valid snapshot exists; I/O errors reading the directory.
    pub fn load_latest(&self) -> Result<LoadedCheckpoint, DurableError> {
        load_latest_in(&self.dir, Some(self.fingerprint))
    }
}

/// Loads the cut at `watermark` from `dir` through its chain: the deltas
/// down to a full, each link checked — the parent's file is there, below
/// the delta, ends in the trailer the delta names, and every file's
/// header watermark is the one its name says.
///
/// # Errors
///
/// The first failing link's typed error: [`DurableError::Io`] when the
/// cut's own file cannot be read, [`DurableError::BrokenChain`] for a
/// missing or replaced parent, and the decode errors of
/// [`decode_snapshot`] otherwise.
pub fn load_cut_in(
    dir: &Path,
    watermark: u64,
    expect_fingerprint: Option<u64>,
) -> Result<Checkpoint, DurableError> {
    let mut deltas = Vec::new();
    // The delta whose parent is read next, and the trailer it names.
    let mut child: Option<(PathBuf, u64)> = None;
    let mut at = watermark;
    let mut ckpt = loop {
        let path = dir.join(snapshot_file_name(at));
        let bytes = match (fs::read(&path), child.take()) {
            (Ok(bytes), None) => bytes,
            (Err(e), None) => return Err(io_err(&path, "read", &e)),
            (Err(e), Some((child, _))) => {
                let detail = format!("its parent {} cannot be read: {e}", path.display());
                return Err(DurableError::BrokenChain {
                    path: child,
                    detail,
                });
            }
            (Ok(bytes), Some((child, trailer))) => {
                let tail = bytes.len().checked_sub(8).map(|at| &bytes[at..]);
                if tail != Some(&trailer.to_le_bytes()[..]) {
                    let detail = format!(
                        "it extends a file {} no longer holds (trailer {trailer:016x})",
                        path.display()
                    );
                    return Err(DurableError::BrokenChain {
                        path: child,
                        detail,
                    });
                }
                bytes
            }
        };
        let named = |found: u64| match found == at {
            true => Ok(()),
            false => Err(DurableError::Corrupt {
                path: path.clone(),
                detail: format!("its header says watermark {found}, its name {at}"),
            }),
        };
        if bytes.starts_with(DELTA_MAGIC) {
            let delta = decode_delta(&bytes, &path, expect_fingerprint)?;
            named(delta.watermark)?;
            at = delta.parent;
            child = Some((path.clone(), delta.parent_trailer));
            deltas.push((path, delta));
        } else {
            let (ckpt, _) = decode_snapshot(&bytes, &path, expect_fingerprint)?;
            named(ckpt.watermark)?;
            break ckpt;
        }
    };
    for (path, delta) in deltas.into_iter().rev() {
        let applied = delta.apply(&mut ckpt);
        applied.map_err(|detail| DurableError::Corrupt { path, detail })?;
    }
    Ok(ckpt)
}

/// Directory-level loader behind [`DurableStore::load_latest`] — usable
/// without a store handle (e.g. inspection tools). Tries cuts
/// newest-first, each through [`load_cut_in`]; a cut is used only if its
/// whole chain parses, checksums, links up and (when given)
/// fingerprint-matches.
///
/// # Errors
///
/// [`DurableError::NoSnapshot`] when the directory has no valid snapshot
/// (including when it does not exist), I/O errors otherwise.
pub fn load_latest_in(
    dir: &Path,
    expect_fingerprint: Option<u64>,
) -> Result<LoadedCheckpoint, DurableError> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => {
            return Err(DurableError::NoSnapshot {
                dir: dir.to_path_buf(),
                skipped: Vec::new(),
            })
        }
    };
    let mut cuts: Vec<u64> = entries
        .filter_map(Result::ok)
        .filter_map(|e| parse_snapshot_file_name(&e.file_name().to_string_lossy()))
        .collect();
    cuts.sort_unstable_by(|a, b| b.cmp(a));

    let mut skipped = Vec::new();
    for watermark in cuts {
        let path = dir.join(snapshot_file_name(watermark));
        match load_cut_in(dir, watermark, expect_fingerprint) {
            Ok(checkpoint) => {
                return Ok(LoadedCheckpoint {
                    checkpoint,
                    path,
                    skipped,
                })
            }
            Err(e) => skipped.push((path, e.to_string())),
        }
    }
    Err(DurableError::NoSnapshot {
        dir: dir.to_path_buf(),
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_tensor::optim::MomentumSgd;

    const FP: u64 = 0x5eed;

    fn dense(v: f32) -> DenseParams {
        DenseParams {
            weight: Tensor::from_vec(vec![v, v + 0.5, -v, v * 2.0], &[2, 2]),
            bias: Tensor::from_vec(vec![v * 0.1, -v], &[1, 2]),
        }
    }

    /// `n` cuts of a two-stage run (3 blocks of 4 choices per stage, the
    /// second stage under momentum and holding the losses), each with the
    /// layers written since the cut before: two or three per stage, so
    /// the persists mix fulls and deltas.
    fn stream(n: u64) -> Vec<(Checkpoint, Written)> {
        let stage = |k: usize| StageSnapshot {
            params: (0..3)
                .map(|b| (0..4).map(|c| dense((10 * k + 4 * b + c) as f32)).collect())
                .collect(),
            engine: match k {
                0 => NumericSupernet::new(0.05),
                _ => NumericSupernet::from_parts(
                    Optimizer::Momentum(MomentumSgd::new(0.05, 0.9, 0.0)),
                    1.0,
                ),
            },
            losses: BTreeMap::new(),
        };
        let mut cut = Checkpoint {
            watermark: 0,
            stages: vec![stage(0), stage(1)],
            cut_span: SpanId::EXTERNAL,
        };
        let mut out = Vec::new();
        for i in 0..n {
            let since = cut.watermark;
            cut.watermark += 4;
            let mut layers = Vec::new();
            for (k, s) in cut.stages.iter_mut().enumerate() {
                let mut written: Vec<(usize, usize)> = (0..2 + (i + k as u64) % 2)
                    .map(|j| {
                        (
                            ((i + j) % 3) as usize,
                            ((i * 3 + j + k as u64) % 4) as usize,
                        )
                    })
                    .collect();
                written.sort_unstable();
                written.dedup();
                for &(b, c) in &written {
                    s.params[b][c] = dense(i as f32 + 0.25 * c as f32);
                    if let Optimizer::Momentum(o) = s.engine.optimizer() {
                        let mut velocity = o.velocity().clone();
                        let grads = DenseGrads {
                            weight: Tensor::from_vec(vec![i as f32; 4], &[2, 2]),
                            bias: Tensor::from_vec(vec![-(i as f32); 2], &[1, 2]),
                        };
                        velocity.insert(LayerRef::new(3 + b as u32, c as u32), grads);
                        let o = MomentumSgd::from_state(0.05, 0.9, 0.0, velocity);
                        s.engine = NumericSupernet::from_parts(Optimizer::Momentum(o), 1.0);
                    }
                }
                if k == 1 {
                    s.losses.insert(cut.watermark - 1, i as f32 / 8.0);
                }
                layers.push(written);
            }
            out.push((cut.clone(), Written { since, layers }));
        }
        out
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("naspipe-durable-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn the_stream_mixes_fulls_and_deltas_and_every_cut_loads() {
        let dir = scratch("mix");
        let store = DurableStore::open(&dir, 14, FP).unwrap();
        let cuts = stream(14);
        let mut kinds = String::new();
        for (cut, written) in &cuts {
            let path = store.persist_cut(cut, written).unwrap();
            let bytes = fs::read(path).unwrap();
            kinds.push(if bytes.starts_with(DELTA_MAGIC) {
                'D'
            } else {
                'F'
            });
        }
        assert_eq!(kinds, "FDDDFDDDFDDDFD");
        for (cut, _) in &cuts {
            assert_eq!(&load_cut_in(&dir, cut.watermark, Some(FP)).unwrap(), cut);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A process killed between any two file operations of any persist —
    /// creating or recycling the tmp, each write, `set_len`, `sync_all`,
    /// the rename, the directory fsync, each prune — leaves a directory
    /// whose newest loadable cut is one some persist was given, no older
    /// than the newest persist that returned; and the next incarnation's
    /// store persists and loads on it.
    #[test]
    fn a_crash_at_every_file_operation_boundary_is_safe() {
        let cuts = stream(14);
        for keep in 1..=3 {
            let dir = scratch(&format!("crash-keep{keep}"));
            for ops in 0.. {
                let _ = fs::remove_dir_all(&dir);
                let store = DurableStore::open(&dir, keep, FP).unwrap();
                store.ops_left.store(ops, Ordering::SeqCst);
                let mut returned = None;
                let mut stopped = false;
                for (cut, written) in &cuts {
                    if store.persist_cut(cut, written).is_err() {
                        stopped = true;
                        break;
                    }
                    returned = Some(cut.watermark);
                }
                drop(store);
                let store = DurableStore::open(&dir, keep, FP).unwrap();
                let case = format!("keep {keep}, stopped after {ops} operation(s)");
                match load_latest_in(&dir, Some(FP)) {
                    Ok(loaded) => {
                        let cut = loaded.checkpoint;
                        assert!(
                            cuts.iter().any(|(c, _)| *c == cut),
                            "{case}: a cut never given"
                        );
                        let newest = returned.unwrap_or(0);
                        assert!(
                            cut.watermark >= newest,
                            "{case}: {} < {newest}",
                            cut.watermark
                        );
                    }
                    Err(e) => assert_eq!(returned, None, "{case}: {e}"),
                }
                let (last, written) = &cuts[cuts.len() - 1];
                store
                    .persist_cut(last, written)
                    .expect("the next incarnation persists");
                let loaded = load_latest_in(&dir, Some(FP)).expect("and loads");
                assert_eq!(&loaded.checkpoint, last, "{case}");
                if !stopped {
                    break;
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
