//! Property-based tests of the durable snapshot wire format: arbitrary
//! checkpoints round-trip bitwise through `encode_snapshot` /
//! `decode_snapshot`, and *every* single-byte corruption or truncation
//! of an encoded snapshot is rejected with a typed error — the decoder
//! never panics and never silently accepts damaged bytes.

use naspipe::core::checkpoint::{Checkpoint, StageSnapshot};
use naspipe::core::durable::{
    decode_snapshot, encode_snapshot, DurableError, SNAP_MAGIC, SNAP_VERSION,
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
