//! Bitwise hashing of parameter state and kernel outputs.
//!
//! Reproducibility is defined as *bitwise* equality of all layer weights
//! (Definition 1). Comparing multi-gigabyte states is impractical, so we
//! fingerprint the exact bit patterns: two states hash equal iff every
//! f32 has the identical bit representation.
//!
//! The parameter fingerprint is two levels of [`fnv1a_words`]. A layer's
//! hash ([`layer_hash`]) is the word-wise checksum of its weight's, then
//! its bias's, little-endian f32 bytes; a store's ([`store_hash`]) is the
//! word-wise checksum of its little-endian layer hashes in
//! `(block, choice)` order. So each layer is hashed where it lives (a
//! threaded stage hashes its own slice on its own thread) and the hashes
//! are folded in layer order, with no pass over the whole store. Every
//! step of both levels is a bijection in its word (see [`fnv1a_words`]),
//! so two stores of one shape that differ in any bit of any one layer
//! always hash apart.
//!
//! `BitHasher` and [`hash_tensors`] are the byte-serial FNV-1a of a
//! kernel's output tensor, as the compute benchmark records it.

use crate::tensor::Tensor;

/// The FNV-1a 64-bit offset basis: the state before any byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Absorbs `bytes` into an FNV-1a `state` (start from [`FNV_OFFSET`]).
/// The workspace's one copy of the loop: kernel output fingerprints, the
/// durable run fingerprint and the golden-trace loss digest are all this
/// function over different byte streams (the durable snapshot checksum
/// and the parameter fingerprint are its word-wise sibling,
/// [`fnv1a_words`]).
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a taken a little-endian `u64` word at a time: every full 8-byte
/// word of `bytes` is one xor-multiply step, the (at most 7-byte) tail
/// goes through [`fnv1a`] byte by byte, and the length is folded in as a
/// last word, so a buffer and its zero-extension differ. One multiply
/// per 8 bytes instead of 8 makes it the checksum of bulk data (the
/// durable snapshot trailer); it is *not* [`fnv1a`] of the same bytes.
///
/// Each step `h -> (h ^ w) * PRIME` is a bijection in `w` for a fixed
/// `h` and in `h` for a fixed `w` (xor is, and so is multiplying by an
/// odd constant modulo 2^64). Two equally long buffers that differ only
/// inside one aligned word, or in one tail byte, therefore leave that
/// step in different states, and every later step maps different states
/// to different states: such a corruption is always caught, not merely
/// with probability 1 - 2^-64.
#[inline]
pub fn fnv1a_words(state: u64, bytes: &[u8]) -> u64 {
    WordHasher::new(state).finish(bytes)
}

/// [`fnv1a_words`] over bytes that arrive in pieces, so a stream can be
/// checksummed without holding it: whole words go through
/// [`update`](Self::update), the last piece through
/// [`finish`](Self::finish). Fed the pieces of `bytes`, split anywhere at
/// multiples of 8, it finishes at `fnv1a_words(state, bytes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordHasher {
    state: u64,
    len: u64,
}

impl WordHasher {
    /// A hasher in `state` that has absorbed nothing.
    pub fn new(state: u64) -> Self {
        Self { state, len: 0 }
    }

    /// Absorbs `words`, one xor-multiply step per 8 bytes.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not a multiple of 8: a tail belongs in
    /// [`finish`](Self::finish).
    #[inline]
    pub fn update(&mut self, words: &[u8]) {
        assert!(words.len().is_multiple_of(8), "a partial word is a tail");
        for w in words.chunks_exact(8) {
            self.word(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
    }

    /// Absorbs one word: what [`update`](Self::update) does with the
    /// 8 bytes `w.to_le_bytes()`.
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(FNV_PRIME);
        self.len += 8;
    }

    /// Absorbs the last piece (any length: its whole words, then its
    /// tail byte by byte) and folds in the total length.
    #[inline]
    pub fn finish(mut self, last: &[u8]) -> u64 {
        let (words, tail) = last.split_at(last.len() & !7);
        self.update(words);
        let h = fnv1a(self.state, tail);
        (h ^ (self.len + tail.len() as u64)).wrapping_mul(FNV_PRIME)
    }
}

/// The fingerprint of one layer: [`fnv1a_words`] from [`FNV_OFFSET`]
/// over the little-endian bytes of `weight`'s f32s followed by `bias`'s,
/// taken two f32s to a word as they come, without building the buffer.
/// A layer's optimizer state (its velocity) is fingerprinted the same
/// way.
pub fn layer_hash(weight: &Tensor, bias: &Tensor) -> u64 {
    let mut h = WordHasher::new(FNV_OFFSET);
    let mut bits = weight.data().iter().chain(bias.data()).map(|x| x.to_bits());
    while let Some(low) = bits.next() {
        match bits.next() {
            Some(high) => h.word(u64::from(low) | u64::from(high) << 32),
            // An odd count: the last f32 is a 4-byte tail.
            None => return h.finish(&low.to_le_bytes()),
        }
    }
    h.finish(&[])
}

/// The fingerprint of a store from its layers' [`layer_hash`]es in
/// `(block, choice)` order: [`fnv1a_words`] from [`FNV_OFFSET`] over
/// their little-endian bytes. The hashes may come from anywhere (per
/// stage, concatenated in stage order): only their order matters.
pub fn store_hash<I: IntoIterator<Item = u64>>(layer_hashes: I) -> u64 {
    let mut h = WordHasher::new(FNV_OFFSET);
    for w in layer_hashes {
        h.word(w);
    }
    h.finish(&[])
}

/// Incrementally computes the byte-serial FNV-1a fingerprint of f32 bit
/// patterns: the kernel-output hash (parameters go through
/// [`layer_hash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BitHasher {
    state: u64,
}

impl Default for BitHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl BitHasher {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs one f32's bit pattern.
    pub(crate) fn write_f32(&mut self, x: f32) {
        self.state = fnv1a(self.state, &x.to_bits().to_le_bytes());
    }

    /// Absorbs a whole tensor.
    pub(crate) fn write_tensor(&mut self, t: &Tensor) {
        for &x in t.data() {
            self.write_f32(x);
        }
    }

    /// The current fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprints a sequence of tensors (kernel outputs) byte by byte.
pub fn hash_tensors<'a, I: IntoIterator<Item = &'a Tensor>>(tensors: I) -> u64 {
    let mut h = BitHasher::new();
    for t in tensors {
        h.write_tensor(t);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_tensors_hash_equal() {
        let a = Tensor::from_vec(vec![1.0, -2.5, 3.75], &[1, 3]);
        let b = a.clone();
        assert_eq!(hash_tensors([&a]), hash_tensors([&b]));
    }

    #[test]
    fn one_ulp_changes_hash() {
        let a = Tensor::from_vec(vec![1.0f32], &[1, 1]);
        let bumped = f32::from_bits(1.0f32.to_bits() + 1);
        let b = Tensor::from_vec(vec![bumped], &[1, 1]);
        assert_ne!(hash_tensors([&a]), hash_tensors([&b]));
    }

    #[test]
    fn distinguishes_zero_signs() {
        // -0.0 == 0.0 numerically but differs bitwise; Definition 1 is
        // bitwise, so the hash must distinguish them.
        let a = Tensor::from_vec(vec![0.0f32], &[1, 1]);
        let b = Tensor::from_vec(vec![-0.0f32], &[1, 1]);
        assert_ne!(hash_tensors([&a]), hash_tensors([&b]));
    }

    #[test]
    fn order_matters() {
        let a = Tensor::from_vec(vec![1.0], &[1, 1]);
        let b = Tensor::from_vec(vec![2.0], &[1, 1]);
        assert_ne!(hash_tensors([&a, &b]), hash_tensors([&b, &a]));
    }

    #[test]
    fn byte_level_entry_point_matches_known_answers() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Absorbing in pieces is absorbing the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
        let t = Tensor::from_vec(vec![1.5, -2.0], &[1, 2]);
        let bytes: Vec<u8> = t
            .data()
            .iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        assert_eq!(hash_tensors([&t]), fnv1a(FNV_OFFSET, &bytes));
    }

    #[test]
    fn word_wise_checksum_matches_known_answers() {
        // Computed independently (Python, arbitrary-precision integers)
        // over the bytes 1, 2, .., n: below, at and past one word, and
        // below, at and past four.
        let table: [(usize, u64); 8] = [
            (0, 0xaf63_bd4c_8601_b7df),
            (1, 0x082f_2307_b4e8_8e77),
            (7, 0x7eb5_018b_368a_5f70),
            (8, 0xf70f_12fd_27f9_2d2c),
            (9, 0xc7cd_cd2a_ec6a_95a2),
            (31, 0x864b_310e_c781_4c83),
            (32, 0xd1d4_17e3_9622_046b),
            (33, 0xad65_7db8_1bca_69fb),
        ];
        for (n, want) in table {
            let bytes: Vec<u8> = (1..=n as u8).collect();
            assert_eq!(fnv1a_words(FNV_OFFSET, &bytes), want, "{n} byte(s)");
        }
        // The length is part of the sum: zero-extension changes it.
        assert_ne!(
            fnv1a_words(FNV_OFFSET, &[0; 8]),
            fnv1a_words(FNV_OFFSET, &[0; 16])
        );
    }

    #[test]
    fn word_hasher_fed_in_pieces_is_the_one_shot_checksum() {
        let bytes: Vec<u8> = (0..101u8).map(|i| i.wrapping_mul(29) ^ 0x3c).collect();
        for split in (0..=bytes.len()).step_by(8) {
            for second in (split..=bytes.len()).step_by(8) {
                let mut h = WordHasher::new(FNV_OFFSET);
                h.update(&bytes[..split]);
                h.update(&bytes[split..second]);
                let got = h.finish(&bytes[second..]);
                assert_eq!(got, fnv1a_words(FNV_OFFSET, &bytes), "{split}, {second}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_word_wise_checksum() {
        let bytes: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let clean = fnv1a_words(FNV_OFFSET, &bytes);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a_words(FNV_OFFSET, &bad), clean, "bit {bit}");
        }
    }

    /// `fnv1a_words(FNV_OFFSET, ..)` over the tensors' little-endian f32
    /// bytes, the buffer built: the definition [`layer_hash`] streams.
    fn layer_hash_by_definition(weight: &Tensor, bias: &Tensor) -> u64 {
        let bytes: Vec<u8> = (weight.data().iter().chain(bias.data()))
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        fnv1a_words(FNV_OFFSET, &bytes)
    }

    #[test]
    fn layer_fingerprint_matches_known_answers() {
        // Computed independently (Python, struct.pack('<f')). An odd
        // width: 9 weights, so one word holds the last weight and the
        // first bias.
        let w = Tensor::from_vec(
            vec![1.0, -2.0, 0.5, 0.25, -0.0, 3.0, 1.5, -4.0, 8.0],
            &[3, 3],
        );
        let b = Tensor::from_vec(vec![0.0, 2.5, -1.0], &[1, 3]);
        assert_eq!(layer_hash(&w, &b), 0x9ba1_ba7c_26a7_1917);
        // An odd count in all: two words and a 4-byte tail.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![4.0, 5.0], &[1, 2]);
        assert_eq!(layer_hash(&w, &b), 0xf741_1d2b_6d8f_538b);
        assert_eq!(layer_hash(&w, &b), layer_hash_by_definition(&w, &b));
        // A store of no layers is the checksum of no bytes.
        assert_eq!(store_hash([]), fnv1a_words(FNV_OFFSET, b""));
    }

    #[test]
    fn layer_fingerprint_streams_its_definition_at_every_split() {
        let xs: Vec<f32> = (0..23).map(|i| i as f32 * -0.375 + 1.0).collect();
        for n in 1..xs.len() {
            for split in 0..=n {
                let w = Tensor::from_vec(xs[..split].to_vec(), &[1, split]);
                let b = Tensor::from_vec(xs[split..n].to_vec(), &[1, n - split]);
                assert_eq!(
                    layer_hash(&w, &b),
                    layer_hash_by_definition(&w, &b),
                    "{split}/{n}"
                );
            }
        }
    }

    #[test]
    fn store_fingerprint_is_the_checksum_of_its_layer_hashes() {
        let hashes = [0x0123_4567_89ab_cdefu64, 7, u64::MAX];
        let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
        assert_eq!(store_hash(hashes), fnv1a_words(FNV_OFFSET, &bytes));
        assert_ne!(
            store_hash(hashes),
            store_hash([hashes[1], hashes[0], hashes[2]])
        );
    }

    #[test]
    fn every_single_bit_flip_changes_the_layer_fingerprint() {
        let w = Tensor::from_vec((0..9).map(|i| i as f32 * 0.75 - 3.0).collect(), &[3, 3]);
        let b = Tensor::from_vec(vec![0.5, -0.0, 2.0], &[1, 3]);
        let clean = layer_hash(&w, &b);
        for i in 0..12 {
            for bit in 0..32 {
                let (mut w, mut b) = (w.clone(), b.clone());
                let x = if i < 9 {
                    &mut w.data_mut()[i]
                } else {
                    &mut b.data_mut()[i - 9]
                };
                *x = f32::from_bits(x.to_bits() ^ 1 << bit);
                assert_ne!(layer_hash(&w, &b), clean, "f32 {i}, bit {bit}");
            }
        }
    }

    #[test]
    fn empty_hash_is_offset() {
        assert_eq!(BitHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
