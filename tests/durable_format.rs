//! Property-based tests of the durable snapshot wire format: arbitrary
//! checkpoints round-trip bitwise through `encode_snapshot` /
//! `decode_snapshot`, and *every* single-byte corruption or truncation
//! of an encoded snapshot is rejected with a typed error — the decoder
//! never panics and never silently accepts damaged bytes. The same holds
//! for deltas, loaded through their chains, and a chain with a bad link
//! is skipped for the cut below it.

use naspipe::core::checkpoint::{Checkpoint, StageSnapshot, Written};
use naspipe::core::durable::{
    decode_snapshot, encode_snapshot, load_cut_in, load_latest_in, snapshot_file_name,
    DurableError, DurableStore, DELTA_MAGIC, SNAP_MAGIC, SNAP_VERSION,
};
use naspipe::obs::SpanId;
use naspipe::supernet::layer::LayerRef;
use naspipe::tensor::hash::{fnv1a_words, FNV_OFFSET};
use naspipe::tensor::layers::{DenseGrads, DenseParams};
use naspipe::tensor::model::{NumericSupernet, Optimizer};
use naspipe::tensor::optim::{MomentumSgd, Sgd};
use naspipe::tensor::Tensor;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;

fn tensor_strat() -> impl Strategy<Value = Tensor> {
    (1usize..4, 1usize..4).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-1e3f32..1e3, r * c)
            .prop_map(move |data| Tensor::from_vec(data, &[r, c]))
    })
}

fn dense_strat() -> impl Strategy<Value = DenseParams> {
    (tensor_strat(), tensor_strat()).prop_map(|(weight, bias)| DenseParams { weight, bias })
}

fn grads_strat() -> impl Strategy<Value = DenseGrads> {
    (tensor_strat(), tensor_strat()).prop_map(|(weight, bias)| DenseGrads { weight, bias })
}

/// Either optimizer variant, with coefficients inside the ranges the
/// decoder (and the optimizer constructors) accept.
fn engine_strat() -> impl Strategy<Value = NumericSupernet> {
    (
        0u32..2,
        1e-4f32..1.0,
        0.0f32..0.95,
        0.0f32..0.5,
        proptest::collection::vec(((0u32..8, 0u32..4), grads_strat()), 0..4),
        0.1f32..2.0,
    )
        .prop_map(|(kind, lr, mu, wd, vel, scale)| {
            let opt = if kind == 0 {
                Optimizer::Sgd(Sgd::new(lr))
            } else {
                let velocity: BTreeMap<LayerRef, DenseGrads> = vel
                    .into_iter()
                    .map(|((b, c), g)| (LayerRef::new(b, c), g))
                    .collect();
                Optimizer::Momentum(MomentumSgd::from_state(lr, mu, wd, velocity))
            };
            NumericSupernet::from_parts(opt, scale)
        })
}

fn stage_strat() -> impl Strategy<Value = StageSnapshot> {
    (
        proptest::collection::vec(proptest::collection::vec(dense_strat(), 0..3), 0..3),
        engine_strat(),
        proptest::collection::vec((0u64..u64::MAX, -10.0f32..10.0), 0..6),
    )
        .prop_map(|(params, engine, losses)| StageSnapshot {
            params,
            engine,
            losses: losses.into_iter().collect(),
        })
}

fn checkpoint_strat() -> impl Strategy<Value = Checkpoint> {
    (
        0u64..u64::MAX,
        proptest::collection::vec(stage_strat(), 1..4),
    )
        .prop_map(|(watermark, stages)| Checkpoint {
            watermark,
            stages,
            cut_span: SpanId::EXTERNAL,
        })
}

/// A fixed two-stage checkpoint exercising both optimizer variants,
/// used by the exhaustive corruption/truncation sweeps below.
fn representative() -> Checkpoint {
    let t = |vals: &[f32], r: usize, c: usize| Tensor::from_vec(vals.to_vec(), &[r, c]);
    let dense = |s: f32| DenseParams {
        weight: t(&[s, s + 0.5, -s, s * 2.0], 2, 2),
        bias: t(&[s * 0.1, -s * 0.1], 1, 2),
    };
    let mut velocity = BTreeMap::new();
    velocity.insert(
        LayerRef::new(0, 1),
        DenseGrads {
            weight: t(&[0.25, -0.5, 0.75, 1.0], 2, 2),
            bias: t(&[0.125, -0.125], 1, 2),
        },
    );
    let mut losses = BTreeMap::new();
    losses.insert(3, 0.5f32);
    losses.insert(7, 0.25f32);
    Checkpoint {
        watermark: 8,
        stages: vec![
            StageSnapshot {
                params: vec![vec![dense(1.0), dense(2.0)], vec![dense(3.0)]],
                engine: NumericSupernet::from_parts(Optimizer::Sgd(Sgd::new(0.05)), 1.0),
                losses: losses.clone(),
            },
            StageSnapshot {
                params: vec![vec![dense(-1.0)]],
                engine: NumericSupernet::from_parts(
                    Optimizer::Momentum(MomentumSgd::from_state(0.05, 0.9, 0.01, velocity)),
                    0.5,
                ),
                losses,
            },
        ],
        cut_span: SpanId::EXTERNAL,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any checkpoint survives encode -> decode -> encode bitwise, and
    /// the embedded fingerprint is validated and returned.
    #[test]
    fn snapshot_round_trips_bitwise(ckpt in checkpoint_strat(), fp in 0u64..u64::MAX) {
        let bytes = encode_snapshot(&ckpt, fp);
        let (decoded, got_fp) =
            decode_snapshot(&bytes, Path::new("mem"), Some(fp)).expect("round trip decodes");
        prop_assert_eq!(got_fp, fp);
        prop_assert_eq!(decoded.watermark, ckpt.watermark);
        prop_assert_eq!(decoded.stages.len(), ckpt.stages.len());
        prop_assert_eq!(encode_snapshot(&decoded, got_fp), bytes);
    }

    /// A snapshot from a different run configuration is rejected with the
    /// typed fingerprint error, never loaded.
    #[test]
    fn wrong_fingerprint_is_rejected(ckpt in checkpoint_strat(), fp in 0u64..u64::MAX, delta in 1u64..u64::MAX) {
        let bytes = encode_snapshot(&ckpt, fp);
        match decode_snapshot(&bytes, Path::new("mem"), Some(fp ^ delta)) {
            Err(DurableError::FingerprintMismatch { expected, actual, .. }) => {
                prop_assert_eq!(expected, fp ^ delta);
                prop_assert_eq!(actual, fp);
            }
            other => prop_assert!(false, "expected FingerprintMismatch, got {:?}", other),
        }
    }
}

/// Exhaustive single-byte corruption table: flipping any bit pattern at
/// any offset of an encoded snapshot must yield `Err` — never a panic,
/// never a silently-accepted checkpoint.
#[test]
fn every_single_byte_corruption_is_rejected() {
    let bytes = encode_snapshot(&representative(), 0xfeed_f00d);
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[i] ^= flip;
            assert!(
                decode_snapshot(&bad, Path::new("mem"), Some(0xfeed_f00d)).is_err(),
                "byte {i} ^ {flip:#04x} was accepted"
            );
        }
    }
}

/// Every truncation of an encoded snapshot (and any appended garbage)
/// fails cleanly with a typed error.
#[test]
fn every_truncation_is_rejected() {
    let bytes = encode_snapshot(&representative(), 7);
    for n in 0..bytes.len() {
        assert!(
            decode_snapshot(&bytes[..n], Path::new("mem"), None).is_err(),
            "prefix of {n} byte(s) was accepted"
        );
    }
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(
        decode_snapshot(&extended, Path::new("mem"), None).is_err(),
        "trailing garbage was accepted"
    );
}

/// Tampering with the version field *and* fixing up the checksum still
/// fails — but now with the dedicated unsupported-version error, so the
/// operator sees a migration problem rather than "corrupt file".
#[test]
fn future_version_is_a_typed_error() {
    let mut bytes = encode_snapshot(&representative(), 7);
    let at = SNAP_MAGIC.len();
    bytes[at..at + 4].copy_from_slice(&(SNAP_VERSION + 1).to_le_bytes());
    let body_len = bytes.len() - 8;
    let sum = fnv1a_words(FNV_OFFSET, &bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    match decode_snapshot(&bytes, Path::new("mem"), None) {
        Err(DurableError::UnsupportedVersion { version, .. }) => {
            assert_eq!(version, SNAP_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// The trailer is the library's word-wise checksum of everything before
/// it — the definition is `tensor::hash::fnv1a_words`, nothing private.
#[test]
fn trailer_is_the_word_wise_checksum_of_the_body() {
    let bytes = encode_snapshot(&representative(), 7);
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    assert_eq!(trailer, fnv1a_words(FNV_OFFSET, body).to_le_bytes());
}

/// A cut of many odd-sized tensors (60- and 20-byte slabs, so words
/// straddle tensors) whose encoding spans many of the encoder's chunks:
/// its bytes are pinned to the encoding recorded before the encoder
/// streamed, and its trailer is the one-shot checksum of its body.
#[test]
fn a_cut_spanning_many_chunks_encodes_to_the_recorded_bytes() {
    let t = |r: usize, c: usize, seed: f32| {
        let data = (0..r * c).map(|i| seed + i as f32 * 0.001).collect();
        Tensor::from_vec(data, &[r, c])
    };
    let stage = |k: f32| StageSnapshot {
        params: (0..40)
            .map(|b| {
                let dense = |c| DenseParams {
                    weight: t(3, 5, k + b as f32 + c as f32 * 0.25),
                    bias: t(1, 5, -k - c as f32),
                };
                (0..41).map(dense).collect()
            })
            .collect(),
        engine: NumericSupernet::from_parts(Optimizer::Sgd(Sgd::new(0.05)), 1.0),
        losses: (0..37).map(|i| (i, i as f32 / 3.0)).collect(),
    };
    let cut = Checkpoint {
        watermark: 96,
        stages: vec![stage(1.0), stage(-2.5), stage(7.0)],
        cut_span: SpanId::EXTERNAL,
    };
    let bytes = encode_snapshot(&cut, 0xabcd);
    let digest = naspipe::tensor::hash::fnv1a(FNV_OFFSET, &bytes);
    assert_eq!((bytes.len(), digest), (RECORDED_LEN, RECORDED_DIGEST));
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    assert_eq!(trailer, fnv1a_words(FNV_OFFSET, body).to_le_bytes());

    // A persist streams the same bytes, into a created file and (the
    // third cut under keep 2) into a recycled one.
    let dir = std::env::temp_dir().join(format!("naspipe-durable-chunks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = naspipe::core::durable::DurableStore::open(&dir, 2, 0xabcd).unwrap();
    let mut cut = cut;
    for watermark in [96, 104, 112] {
        cut.watermark = watermark;
        let path = store.persist(&cut).unwrap();
        assert_eq!(std::fs::read(path).unwrap(), encode_snapshot(&cut, 0xabcd));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `encode_snapshot` of that cut under the whole-buffer encoder.
const RECORDED_LEN: usize = 513_587;
const RECORDED_DIGEST: u64 = 0x943e_2240_085a_1b30;

/// The cut persisted at `watermark` by the retention test: the
/// representative cut with weights shifted by the watermark and the
/// second stage carrying `losses` entries, so encodings differ in
/// content and length from cut to cut.
fn cut_at(watermark: u64, losses: u64) -> Checkpoint {
    let mut cut = representative();
    cut.watermark = watermark;
    for p in cut
        .stages
        .iter_mut()
        .flat_map(|s| s.params.iter_mut().flatten())
    {
        p.weight
            .data_mut()
            .iter_mut()
            .for_each(|x| *x += watermark as f32);
    }
    cut.stages[1].losses = (0..losses).map(|i| (i, i as f32 / 8.0)).collect();
    cut
}

/// Every file name in `dir`, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let names = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name());
    let mut names: Vec<String> = names.map(|n| n.to_string_lossy().into_owned()).collect();
    names.sort();
    names
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "naspipe-durable-format-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Persisting rewrites the cut retention drops next in place, and that
/// changes no byte: ten cuts whose encodings grow and then shrink leave,
/// after every persist, exactly the newest `keep` cuts, each file equal to
/// `encode_snapshot` of its cut, and no tmp file. The file of the `i`-th
/// cut is the inode of the `(i - 3)`-th under keep 3 (recycled), and never
/// the inode of the cut it replaced under keep 1 (created: a lone cut is
/// never overwritten).
#[cfg(unix)]
#[test]
fn persisted_files_are_their_encodings_and_retention_holds_while_recycling() {
    use naspipe::core::durable::{snapshot_file_name, DurableStore};
    use std::os::unix::fs::MetadataExt;
    let losses = [0u64, 3, 9, 27, 81, 40, 12, 2, 1, 0];
    for keep in [3usize, 1] {
        let dir = std::env::temp_dir().join(format!(
            "naspipe-durable-format-{}-keep{keep}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DurableStore::open(&dir, keep, 0xfeed).unwrap();
        let mut inodes = Vec::new();
        for (i, &n) in losses.iter().enumerate() {
            let watermark = 8 * (i as u64 + 1);
            let path = store.persist(&cut_at(watermark, n)).unwrap();
            let kept = (i + 1).saturating_sub(keep)..=i;
            let names: Vec<String> = kept
                .clone()
                .map(|j| snapshot_file_name(8 * (j as u64 + 1)))
                .collect();
            assert_eq!(listing(&dir), names, "keep {keep}, after cut {watermark}");
            for j in kept {
                let w = 8 * (j as u64 + 1);
                let bytes = std::fs::read(dir.join(snapshot_file_name(w))).unwrap();
                assert_eq!(
                    bytes,
                    encode_snapshot(&cut_at(w, losses[j]), 0xfeed),
                    "cut {w}"
                );
            }
            inodes.push(std::fs::metadata(&path).unwrap().ino());
            if keep == 3 && i >= 3 {
                assert_eq!(
                    inodes[i],
                    inodes[i - 3],
                    "cut {watermark} is a recycled file"
                );
            }
            if keep == 1 && i >= 1 {
                assert_ne!(inodes[i], inodes[i - 1], "keep 1 recycled cut {watermark}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A file the previous format's encoder wrote (`representative()` under
/// fingerprint 7, committed before the codec changed) is the same typed
/// error — by its version field, not as a checksum mismatch, although
/// its byte-serial checksum does not verify under the v2 definition.
#[test]
fn v1_snapshot_is_an_unsupported_version() {
    let v1 = include_bytes!("data/ckpt-v1.snap");
    match decode_snapshot(v1, Path::new("v1"), Some(7)) {
        Err(e @ DurableError::UnsupportedVersion { version: 1, .. }) => {
            let text = e.to_string();
            assert!(text.contains("other than v2"), "{text}");
        }
        other => panic!("expected UnsupportedVersion {{ version: 1 }}, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// File names
// ---------------------------------------------------------------------------

/// Only `ckpt-` + exactly 20 digits + `.snap` names a cut: an unpadded,
/// signed or over-long copy is no cut at all, so it is neither loaded nor
/// counted, and one cut has one file.
#[test]
fn only_the_padded_name_is_a_cut() {
    let dir = scratch("names");
    let bytes = encode_snapshot(&cut_at(16, 2), 7);
    for stray in [
        "ckpt-16.snap",
        "ckpt-+16.snap",
        "ckpt-000000000000000000016.snap",
        "ckpt-0000000000000000016.snap",
    ] {
        std::fs::write(dir.join(stray), &bytes).unwrap();
    }
    match load_latest_in(&dir, Some(7)) {
        Err(DurableError::NoSnapshot { skipped, .. }) => assert!(skipped.is_empty(), "{skipped:?}"),
        other => panic!("stray names are no cuts, got {other:?}"),
    }
    std::fs::write(dir.join(snapshot_file_name(16)), &bytes).unwrap();
    let loaded = load_latest_in(&dir, Some(7)).unwrap();
    assert_eq!(loaded.checkpoint, cut_at(16, 2));
    assert!(loaded.skipped.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cut 8's bytes under cut 40's name are skipped, with the reason, and
/// the loader falls back to the real newest cut.
#[test]
fn a_file_named_other_than_its_header_watermark_is_skipped() {
    let dir = scratch("misnamed");
    let write = |name: u64, cut: &Checkpoint| {
        std::fs::write(dir.join(snapshot_file_name(name)), encode_snapshot(cut, 7)).unwrap()
    };
    write(8, &cut_at(8, 1));
    write(16, &cut_at(16, 2));
    write(40, &cut_at(8, 1));
    let loaded = load_latest_in(&dir, Some(7)).unwrap();
    assert_eq!(loaded.checkpoint, cut_at(16, 2));
    let [(path, why)] = &loaded.skipped[..] else {
        panic!("one skip: {:?}", loaded.skipped)
    };
    assert_eq!(*path, dir.join(snapshot_file_name(40)));
    assert!(
        why.contains("header says watermark 8, its name 40"),
        "{why}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------------

/// `representative()`, widened, at cut 8, then two cuts that each rewrite one layer
/// per stage: stage 1 (whose first block is 2) gains a velocity entry for
/// its rewritten layer and a loss. Each comes with its written layers.
fn delta_stream() -> Vec<(Checkpoint, Written)> {
    let mut cut = representative();
    // Eight choices per block, so two one-layer deltas stay below a full.
    for block in cut.stages.iter_mut().flat_map(|s| &mut s.params) {
        let more = block[0].clone();
        block.resize(8, more);
    }
    let mut out = vec![(cut.clone(), Written::default())];
    for (step, (b0, c0), (b1, c1)) in [(16u64, (1, 0), (0, 0)), (24, (0, 1), (0, 0))] {
        let since = cut.watermark;
        cut.watermark = step;
        let shift = |p: &mut DenseParams| {
            p.weight
                .data_mut()
                .iter_mut()
                .for_each(|x| *x += step as f32);
        };
        shift(&mut cut.stages[0].params[b0][c0]);
        shift(&mut cut.stages[1].params[b1][c1]);
        let Optimizer::Momentum(o) = cut.stages[1].engine.optimizer() else {
            unreachable!("stage 1 runs momentum")
        };
        let mut velocity = o.velocity().clone();
        let grads = DenseGrads {
            weight: Tensor::from_vec(vec![step as f32; 4], &[2, 2]),
            bias: Tensor::from_vec(vec![-(step as f32); 2], &[1, 2]),
        };
        velocity.insert(LayerRef::new(2 + b1 as u32, c1 as u32), grads);
        let o = MomentumSgd::from_state(0.05, 0.9, 0.01, velocity);
        cut.stages[1].engine = NumericSupernet::from_parts(Optimizer::Momentum(o), 0.5);
        cut.stages[1].losses.insert(step - 1, step as f32 / 64.0);
        let layers = vec![vec![(b0, c0)], vec![(b1, c1)]];
        out.push((cut.clone(), Written { since, layers }));
    }
    out
}

/// Persists `delta_stream()` into `dir`: a full at 8, deltas at 16, 24.
fn persist_delta_stream(dir: &Path) -> Vec<Checkpoint> {
    let store = DurableStore::open(dir, 3, 7).unwrap();
    let mut kinds = Vec::new();
    let mut cuts = Vec::new();
    for (cut, written) in delta_stream() {
        let bytes = std::fs::read(store.persist_cut(&cut, &written).unwrap()).unwrap();
        kinds.push(bytes.starts_with(DELTA_MAGIC));
        cuts.push(cut);
    }
    assert_eq!(kinds, [false, true, true], "a full, then deltas");
    cuts
}

#[test]
fn every_delta_truncation_and_byte_flip_is_a_typed_error() {
    let dir = scratch("delta-hostile");
    let cuts = persist_delta_stream(&dir);
    let top = dir.join(snapshot_file_name(24));
    let bytes = std::fs::read(&top).unwrap();
    assert_eq!(load_cut_in(&dir, 24, Some(7)).unwrap(), cuts[2]);
    let rejected = |bad: &[u8], what: &str| {
        std::fs::write(&top, bad).unwrap();
        match load_cut_in(&dir, 24, Some(7)) {
            Err(e) => assert!(!e.to_string().is_empty()),
            Ok(cut) => panic!("{what} was accepted as {cut:?}"),
        }
    };
    for n in 0..bytes.len() {
        rejected(&bytes[..n], &format!("a prefix of {n} byte(s)"));
    }
    rejected(&[&bytes[..], &[0]].concat(), "trailing garbage");
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[i] ^= flip;
            rejected(&bad, &format!("byte {i} ^ {flip:#04x}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `bytes` with the u64 at `at` replaced and the trailer fixed up.
fn patched(mut bytes: Vec<u8>, at: usize, value: u64) -> Vec<u8> {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let body = bytes.len() - 8;
    let sum = fnv1a_words(FNV_OFFSET, &bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// A delta whose parent is missing, is not below it, or ends in another
/// trailer than the one it names: its cut is skipped with the reason and
/// the loader falls back to the newest cut below that loads.
#[test]
fn a_delta_with_a_bad_link_is_skipped_for_the_cut_below() {
    let dir = scratch("delta-links");
    let cuts = persist_delta_stream(&dir);
    let path = |w: u64| dir.join(snapshot_file_name(w));
    let (mid, top) = (
        std::fs::read(path(16)).unwrap(),
        std::fs::read(path(24)).unwrap(),
    );
    let fell_back = |to: &Checkpoint, reason: &str| {
        let loaded = load_latest_in(&dir, Some(7)).unwrap();
        assert_eq!(&loaded.checkpoint, to);
        let (skipped, why) = &loaded.skipped[0];
        assert_eq!(*skipped, path(24));
        assert!(why.contains(reason), "{why}");
    };

    // Missing: without 16, 24 cannot load and 8 is the newest cut.
    std::fs::remove_file(path(16)).unwrap();
    fell_back(&cuts[0], "cannot be read");
    // A different trailer: 16 rewritten as a full is a valid cut, but not
    // the file 24 was written on.
    std::fs::write(path(16), encode_snapshot(&cuts[1], 7)).unwrap();
    fell_back(&cuts[1], "no longer holds");
    std::fs::write(path(16), &mid).unwrap();
    assert_eq!(load_latest_in(&dir, Some(7)).unwrap().checkpoint, cuts[2]);
    // Not below: 24 naming itself or 40 as its parent (offset 32: magic,
    // version, fingerprint, watermark) is corrupt, checksum and all.
    for parent in [24, 40] {
        std::fs::write(path(24), patched(top.clone(), 32, parent)).unwrap();
        fell_back(&cuts[1], "is not below 24");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The watermarks of cut `watermark`'s chain in `dir`, read off the
/// delta headers (the parent watermark follows magic, version,
/// fingerprint and watermark).
fn chain(dir: &Path, mut watermark: u64) -> Vec<u64> {
    let mut chain = vec![watermark];
    loop {
        let bytes = std::fs::read(dir.join(snapshot_file_name(watermark))).unwrap();
        if !bytes.starts_with(DELTA_MAGIC) {
            return chain;
        }
        watermark = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        chain.push(watermark);
    }
}

/// A deterministic xorshift stream for the random cut sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A random sequence of cuts of one random two-stage shape, each with
/// its written layers (sometimes unsorted, sometimes more than were
/// written, sometimes since a cut that is not the previous one).
fn random_stream(seed: u64, n: usize) -> Vec<(Checkpoint, Written)> {
    let mut rng = Rng(seed | 1);
    let rows = 1 + rng.next(2) as usize;
    let shape: Vec<Vec<usize>> = (0..2)
        .map(|_| {
            (0..1 + rng.next(3))
                .map(|_| 1 + rng.next(3) as usize)
                .collect()
        })
        .collect();
    let dense = |v: f32| DenseParams {
        weight: Tensor::from_vec(vec![v; rows * 2], &[rows, 2]),
        bias: Tensor::from_vec(vec![-v; 2], &[1, 2]),
    };
    let mut cut = Checkpoint {
        watermark: 0,
        stages: shape
            .iter()
            .enumerate()
            .map(|(k, blocks)| StageSnapshot {
                params: blocks
                    .iter()
                    .map(|&c| (0..c).map(|_| dense(0.5)).collect())
                    .collect(),
                engine: match k {
                    0 => NumericSupernet::from_parts(Optimizer::Sgd(Sgd::new(0.05)), 1.0),
                    _ => NumericSupernet::from_parts(
                        Optimizer::Momentum(MomentumSgd::from_state(
                            0.05,
                            0.5,
                            0.0,
                            BTreeMap::new(),
                        )),
                        1.0,
                    ),
                },
                losses: BTreeMap::new(),
            })
            .collect(),
        cut_span: SpanId::EXTERNAL,
    };
    let first_block = [0, shape[0].len()];
    let mut out = Vec::new();
    for _ in 0..n {
        let since = cut.watermark;
        cut.watermark += 1 + rng.next(5);
        let mut layers = Vec::new();
        for (k, s) in cut.stages.iter_mut().enumerate() {
            let mut written = Vec::new();
            for (b, &choices) in shape[k].iter().enumerate() {
                for c in 0..choices {
                    match rng.next(4) {
                        0 => {
                            s.params[b][c] = dense(rng.next(1000) as f32);
                            if let Optimizer::Momentum(o) = s.engine.optimizer() {
                                let mut velocity = o.velocity().clone();
                                let layer = LayerRef::new((first_block[k] + b) as u32, c as u32);
                                let v = rng.next(100) as f32;
                                let grads = DenseGrads {
                                    weight: Tensor::from_vec(vec![v; rows * 2], &[rows, 2]),
                                    bias: Tensor::from_vec(vec![v; 2], &[1, 2]),
                                };
                                velocity.insert(layer, grads);
                                let o = MomentumSgd::from_state(0.05, 0.5, 0.0, velocity);
                                s.engine = NumericSupernet::from_parts(Optimizer::Momentum(o), 1.0);
                            }
                            written.push((b, c));
                        }
                        // Named but not written: allowed.
                        1 => written.push((b, c)),
                        _ => {}
                    }
                }
            }
            if rng.next(4) == 0 {
                written.reverse();
            }
            if k == 1 {
                s.losses
                    .insert(cut.watermark - 1, rng.next(64) as f32 / 8.0);
            }
            layers.push(written);
        }
        let since = if rng.next(6) == 0 { since + 1 } else { since };
        out.push((cut.clone(), Written { since, layers }));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under keep 1-3, after every persist of a random cut sequence, the
    /// cuts on disk that load are exactly the newest `keep` persisted and
    /// the links of their chains, each equal through its chain to the cut
    /// persisted at its watermark; any other file there is a dead delta,
    /// whose chain's full is gone.
    #[test]
    fn every_retained_cut_loads_through_its_chain(
        seed in 0u64..u64::MAX,
        keep in 1usize..4,
        n in 2usize..12,
    ) {
        let dir = scratch(&format!("chains-{seed}-{keep}-{n}"));
        let store = DurableStore::open(&dir, keep, 9).unwrap();
        let stream = random_stream(seed, n);
        for (i, (cut, written)) in stream.iter().enumerate() {
            store.persist_cut(cut, written).unwrap();
            let on_disk = listing(&dir);
            let mut loaded = Vec::new();
            for (persisted, _) in &stream[..=i] {
                if !on_disk.contains(&snapshot_file_name(persisted.watermark)) {
                    continue;
                }
                match load_cut_in(&dir, persisted.watermark, Some(9)) {
                    Ok(cut) => {
                        prop_assert_eq!(&cut, persisted);
                        loaded.push(cut.watermark);
                    }
                    Err(DurableError::BrokenChain { .. }) => {}
                    Err(e) => prop_assert!(false, "{}", e),
                }
            }
            let mut retained = std::collections::BTreeSet::new();
            for (newest, _) in &stream[i.saturating_sub(keep - 1)..=i] {
                retained.extend(chain(&dir, newest.watermark));
            }
            prop_assert_eq!(loaded, retained.into_iter().collect::<Vec<u64>>());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The gain, counted: the 62 durable cuts of `rt-durable-ops`
/// (uniform(48, 48) at dim 16 on 2 stages, a cut every 8 of 500 subnets
/// of `UniformSampler` seed 2022), each with the layers its interval's
/// subnets activate, write a full and then six deltas per chain, and at
/// most 35 % of the bytes 62 fulls would write.
#[test]
fn the_rt_durable_ops_cuts_write_a_third_of_the_full_bytes() {
    use naspipe::supernet::sampler::{ExplorationStrategy, UniformSampler};
    use naspipe::supernet::space::SearchSpace;
    use naspipe::tensor::model::ParamStore;
    let space = SearchSpace::uniform(naspipe::supernet::layer::Domain::Nlp, 48, 48);
    let subnets = UniformSampler::new(&space, 2022).take_subnets(500);
    let stage = |blocks: std::ops::Range<usize>| StageSnapshot {
        params: blocks
            .map(|b| ParamStore::init_block(16, 2022, b, 48))
            .collect(),
        engine: NumericSupernet::from_parts(Optimizer::Sgd(Sgd::new(0.05)), 1.0),
        losses: BTreeMap::new(),
    };
    let mut cut = Checkpoint {
        watermark: 0,
        stages: vec![stage(0..24), stage(24..48)],
        cut_span: SpanId::EXTERNAL,
    };
    let full = encode_snapshot(&cut, 0).len() as u64;
    let dir = scratch("rt-durable-ops");
    let store = DurableStore::open(&dir, 3, 0).unwrap();
    let (mut bytes, mut kinds) = (0, String::new());
    for interval in subnets.chunks(8).filter(|c| c.len() == 8) {
        let since = cut.watermark;
        cut.watermark += 8;
        let mut layers = vec![Vec::new(), Vec::new()];
        for s in interval {
            for b in (0..48).filter(|&b| !s.skips(b)) {
                layers[b / 24].push((b % 24, s.layer(b).choice as usize));
            }
        }
        for stage in &mut layers {
            stage.sort_unstable();
            stage.dedup();
        }
        let path = store.persist_cut(&cut, &Written { since, layers }).unwrap();
        let file = std::fs::read(path).unwrap();
        bytes += file.len() as u64;
        kinds.push(if file.starts_with(DELTA_MAGIC) {
            'D'
        } else {
            'F'
        });
    }
    assert_eq!(kinds.len(), 62);
    assert_eq!(kinds, "FDDDDDD".repeat(9)[..62]);
    assert!(
        bytes * 100 <= 35 * 62 * full,
        "{bytes} bytes written, {} % of 62 fulls",
        bytes * 100 / (62 * full)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
