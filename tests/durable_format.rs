//! Property-based tests of the durable snapshot wire format: arbitrary
//! checkpoints round-trip bitwise through `encode_snapshot` /
//! `decode_snapshot`, and *every* single-byte corruption or truncation
//! of an encoded snapshot is rejected with a typed error — the decoder
//! never panics and never silently accepts damaged bytes.

#![cfg(feature = "proptest-tests")]

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
