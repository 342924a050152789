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
//! # Durability model
//!
//! * **Atomic writes.** A snapshot is encoded in 64 KiB pieces straight
//!   into a `*.tmp` sibling (new, or a recycled old cut — see retention),
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
//!   prunes the `ckpt-*.snap` files below it beyond the newest `keep - 1`;
//!   the loader prefers the newest valid snapshot and falls back cut by
//!   cut, so one corrupt file never loses the run. The oldest pruned file
//!   is not unlinked but becomes the new cut's tmp file, rewritten in
//!   place — only with `keep >= 2`, so a complete cut stays on disk for
//!   the whole write; the bytes written are the same either way.
//! * **Off the stage threads.** [`crate::runtime`] hands each completed
//!   cut to one writer thread that owns the [`DurableStore`]: cut `W` is on
//!   disk before cut `W + interval` is handed over.
//!
//! The v2 snapshot grammar is documented in `DESIGN.md` §3g.

use crate::checkpoint::{Checkpoint, StageSnapshot};
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
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic prefix of every snapshot file.
pub const SNAP_MAGIC: &[u8; 12] = b"NASPIPE-SNAP";
/// Snapshot format version this build writes and reads (v1 had a
/// byte-serial checksum; its files are [`DurableError::UnsupportedVersion`]).
pub const SNAP_VERSION: u32 = 2;
/// Magic, version, fingerprint, watermark, stage count.
const HEADER_LEN: usize = SNAP_MAGIC.len() + 4 + 8 + 8 + 4;
/// Default number of complete cuts retained on disk.
pub const DEFAULT_KEEP: usize = 3;

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

impl Enc<'_> {
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

    /// Appends the trailing checksum and writes what `out` has not had
    /// yet; returns `buf` and the length of the whole encoding.
    fn finish(mut self) -> std::io::Result<(Vec<u8>, usize)> {
        let checksum = self.sum.finish(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        if let (Some(out), None) = (self.out, &self.err) {
            self.err = out.write_all(&self.buf).err();
        }
        let len = self.sent + self.buf.len();
        self.err.map_or(Ok((self.buf, len)), Err)
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

fn encode_engine(enc: &mut Enc, engine: &NumericSupernet) {
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
            enc.u32(o.velocity().len() as u32);
            for (layer, v) in o.velocity() {
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

/// Exact encoded size of `ckpt`, trailer included — the grammar of
/// [`encode_to`] with every field replaced by its width.
fn encoded_len(ckpt: &Checkpoint) -> usize {
    let tensor = |t: &Tensor| 4 + 4 * t.shape().len() + 4 * t.data().len();
    let stage = |s: &StageSnapshot| {
        let layers = s.params.iter().flatten();
        let params: usize = layers.map(|p| tensor(&p.weight) + tensor(&p.bias)).sum();
        let optimizer = match s.engine.optimizer() {
            Optimizer::Sgd(_) => 4,
            Optimizer::Momentum(o) => {
                let velocity = o.velocity().values();
                let velocity = velocity.map(|v| 8 + tensor(&v.weight) + tensor(&v.bias));
                12 + 4 + velocity.sum::<usize>()
            }
        };
        4 + 4 * s.params.len() + params + 4 + 1 + optimizer + 4 + 12 * s.losses.len()
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
) -> std::io::Result<(Vec<u8>, usize)> {
    let capacity = if out.is_some() {
        2 * ENC_CHUNK
    } else {
        encoded_len(ckpt)
    };
    let mut enc = Enc {
        buf: Vec::with_capacity(capacity),
        out,
        sum: WordHasher::new(FNV_OFFSET),
        sent: 0,
        err: None,
    };
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
        encode_engine(&mut enc, &stage.engine);
        enc.u32(stage.losses.len() as u32);
        for (&step, &loss) in &stage.losses {
            enc.u64(step);
            enc.f32(loss);
        }
    }
    let (buf, len) = enc.finish()?;
    debug_assert_eq!(
        len,
        encoded_len(ckpt),
        "encoded_len disagrees with the encoder"
    );
    Ok((buf, len))
}

/// Encodes `ckpt` into the v2 byte format (including trailing checksum).
/// `fingerprint` stamps the run the snapshot belongs to.
///
/// Exposed for tests; use [`DurableStore::persist`] to write files.
pub fn encode_snapshot(ckpt: &Checkpoint, fingerprint: u64) -> Vec<u8> {
    let encoded = encode_to(None, ckpt, fingerprint).expect("nothing is written");
    encoded.0
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
        return Err(corrupt("bad magic".into()));
    }
    let version = dec.u32().map_err(&corrupt)?;
    if version != SNAP_VERSION {
        return Err(DurableError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let expected = u64::from_le_bytes(tail.try_into().unwrap());
    let actual = fnv1a_words(FNV_OFFSET, body);
    if expected != actual {
        return Err(DurableError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    let fingerprint = dec.u64().map_err(&corrupt)?;
    if let Some(expect) = expect_fingerprint {
        if fingerprint != expect {
            return Err(DurableError::FingerprintMismatch {
                path: path.to_path_buf(),
                expected: expect,
                actual: fingerprint,
            });
        }
    }
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
        let num_losses = dec.len("loss count", usize::MAX).map_err(&corrupt)?;
        let mut losses = BTreeMap::new();
        let mut prev: Option<u64> = None;
        for _ in 0..num_losses {
            let step = dec.u64().map_err(&corrupt)?;
            if prev.is_some_and(|p| p >= step) {
                return Err(corrupt("loss steps out of order".into()));
            }
            prev = Some(step);
            let loss = dec.f32().map_err(&corrupt)?;
            losses.insert(step, loss);
        }
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
// Store: atomic persistence, retention
// ---------------------------------------------------------------------------

/// File name of the snapshot at `watermark`. Zero-padded so
/// lexicographic and numeric order agree.
pub fn snapshot_file_name(watermark: u64) -> String {
    format!("ckpt-{watermark:020}.snap")
}

fn parse_snapshot_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".snap")?;
    stem.parse().ok()
}

/// A successfully loaded resume point.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// The decoded consistent cut.
    pub checkpoint: Checkpoint,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer candidate files that were rejected (path, reason), newest
    /// first — non-empty means the loader *fell back*.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Handle on a checkpoint directory: persists cuts atomically, prunes old
/// cuts, and loads the newest valid one.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    keep: usize,
    fingerprint: u64,
    // `NASPIPE_CRASH_WRITE=<n>`, read once at open.
    crash_write: Option<u64>,
}

impl DurableStore {
    /// Opens (creating if needed) the checkpoint directory, keeping the
    /// last `keep` complete cuts on disk (`0` is treated as `1` — a
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

    /// Atomically persists `ckpt`, pruning the cuts below it beyond the
    /// retention limit. Returns the final snapshot path.
    ///
    /// The oldest cut retention prunes is not unlinked but renamed to
    /// this write's tmp name and overwritten in place — when another
    /// complete cut stays on disk for the whole write (`keep >= 2`);
    /// otherwise the tmp file is created. Either way the file ends as the
    /// v2 encoding of `ckpt` and nothing else.
    ///
    /// Honors the `NASPIPE_CRASH_WRITE=<n>` chaos hook: the n-th persist
    /// call process-wide aborts after writing *half* of the tmp file —
    /// simulating a power cut mid-write. The tmp file is never renamed,
    /// so a subsequent load must still see only complete snapshots.
    ///
    /// # Errors
    ///
    /// Surfaces I/O failures as [`DurableError::Io`]; the directory is
    /// left with the previous snapshot set intact, less the cut this
    /// write recycled (one retention was about to prune). Once the rename
    /// has happened the cut is durable and the call succeeds: pruning is
    /// best effort.
    pub fn persist(&self, ckpt: &Checkpoint) -> Result<PathBuf, DurableError> {
        let final_path = self.dir.join(snapshot_file_name(ckpt.watermark));
        let tmp_path = self
            .dir
            .join(format!(".{}.tmp", snapshot_file_name(ckpt.watermark)));
        // Retention: this cut and the newest `keep - 1` below it stay
        // (files *above* it are another run's or a corrupt cut about to be
        // rewritten; they must never evict the one just written).
        let listed = self.list_snapshots().unwrap_or_default();
        let below = listed.iter().rev().filter(|&&w| w < ckpt.watermark);
        let mut pruned: Vec<u64> = below.skip(self.keep - 1).copied().collect();
        let recycled = self.keep >= 2
            && pruned.last().is_some_and(|&oldest| {
                let oldest = self.dir.join(snapshot_file_name(oldest));
                fs::rename(oldest, &tmp_path).is_ok()
            });
        if recycled {
            pruned.pop();
        }

        let call = PERSIST_CALLS.fetch_add(1, Ordering::SeqCst) + 1;
        {
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
                let bytes = encode_snapshot(ckpt, self.fingerprint);
                let half = bytes.len() / 2;
                let _ = f.write_all(&bytes[..half]);
                let _ = f.sync_all();
                eprintln!(
                    "naspipe: NASPIPE_CRASH_WRITE={call} firing: aborting mid-write of {}",
                    tmp_path.display()
                );
                std::process::abort();
            }
            let (_, len) = encode_to(Some(&mut f), ckpt, self.fingerprint)
                .map_err(|e| io_err(&tmp_path, "write", &e))?;
            if recycled {
                // Cut the old cut's bytes past this encoding.
                f.set_len(len as u64)
                    .map_err(|e| io_err(&tmp_path, "set_len", &e))?;
            }
            f.sync_all().map_err(|e| io_err(&tmp_path, "sync", &e))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, "rename", &e))?;
        // Make the rename itself durable (best-effort: directory fsync is
        // Linux-specific and advisory elsewhere).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        for w in pruned {
            let _ = fs::remove_file(self.dir.join(snapshot_file_name(w)));
        }
        Ok(final_path)
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
        cuts.dedup();
        Ok(cuts)
    }

    /// Loads the newest valid snapshot of this run, falling back cut by
    /// cut past corrupt, truncated, or foreign files.
    ///
    /// # Errors
    ///
    /// [`DurableError::NoSnapshot`] (with the rejection list) when no
    /// valid snapshot exists; I/O errors reading the directory.
    pub fn load_latest(&self) -> Result<LoadedCheckpoint, DurableError> {
        load_latest_in(&self.dir, Some(self.fingerprint))
    }
}

/// Directory-level loader behind [`DurableStore::load_latest`] — usable
/// without a store handle (e.g. inspection tools). Tries snapshot files
/// newest-first; a file is used only if it parses, checksums, and (when
/// given) fingerprint-matches.
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
    let mut cuts: Vec<(u64, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            parse_snapshot_file_name(&e.file_name().to_string_lossy()).map(|w| (w, e.path()))
        })
        .collect();
    cuts.sort_unstable_by_key(|c| std::cmp::Reverse(c.0));

    let mut skipped = Vec::new();
    for (_, path) in cuts {
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                skipped.push((path, format!("read failed: {e}")));
                continue;
            }
        };
        match decode_snapshot(&bytes, &path, expect_fingerprint) {
            Ok((checkpoint, _)) => {
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
