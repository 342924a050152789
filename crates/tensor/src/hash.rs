//! Bitwise hashing of parameter state.
//!
//! Reproducibility is defined as *bitwise* equality of all layer weights
//! (Definition 1). Comparing multi-gigabyte states is impractical, so we
//! fingerprint the exact bit patterns with 64-bit FNV-1a: two states hash
//! equal iff every f32 has the identical bit representation (up to hash
//! collisions, negligible for testing).

use crate::tensor::Tensor;

/// The FNV-1a 64-bit offset basis: the state before any byte.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Absorbs `bytes` into an FNV-1a `state` (start from [`FNV_OFFSET`]).
/// The workspace's one copy of the loop: parameter fingerprints, the
/// durable snapshot checksum and run fingerprint, and the golden-trace
/// loss digest are all this function over different byte streams.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Incrementally computes an FNV-1a fingerprint over f32 bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitHasher {
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
    pub fn write_f32(&mut self, x: f32) {
        self.state = fnv1a(self.state, &x.to_bits().to_le_bytes());
    }

    /// Absorbs a whole tensor.
    pub fn write_tensor(&mut self, t: &Tensor) {
        for &x in t.data() {
            self.write_f32(x);
        }
    }

    /// The current fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprints a sequence of tensors.
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
    fn empty_hash_is_offset() {
        assert_eq!(BitHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
