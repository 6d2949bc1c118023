//! Seeded synthetic input generators.
//!
//! All inputs are deterministic (fixed seeds) so every run of the
//! evaluation reproduces the same cycle counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for one workload.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `n` uniform floats in `[lo, hi)` as raw little-endian bytes.
pub(crate) fn f32_bytes(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<u8> {
    let mut out = Vec::with_capacity(n * 4);
    for _ in 0..n {
        let v: f32 = rng.gen_range(lo..hi);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// `n` uniform u32 values in `[lo, hi)` as raw bytes.
pub(crate) fn u32_bytes(rng: &mut StdRng, n: usize, lo: u32, hi: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(n * 4);
    for _ in 0..n {
        let v: u32 = rng.gen_range(lo..hi);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// A skewed per-thread work distribution (the bfs pattern: most vertices
/// have tiny degree, a few are hubs): ~90% draw from `[1, small]`, the
/// rest from `[small, large]`.
pub(crate) fn skewed_degrees(rng: &mut StdRng, n: usize, small: u32, large: u32) -> Vec<u32> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.9) {
                rng.gen_range(1..=small)
            } else {
                rng.gen_range(small + 1..=large)
            }
        })
        .collect()
}

/// Packs u32 values to bytes.
pub(crate) fn pack_u32(vals: &[u32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Little-endian parameter block builder (constant bank 0 layout).
#[derive(Debug, Default, Clone)]
pub(crate) struct ParamBlock {
    bytes: Vec<u8>,
}

impl ParamBlock {
    /// Empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a 64-bit pointer, returning its byte offset.
    pub(crate) fn push_u64(&mut self, v: u64) -> u32 {
        let off = self.bytes.len() as u32;
        self.bytes.extend_from_slice(&v.to_le_bytes());
        off
    }

    /// Appends a 32-bit scalar, returning its byte offset.
    pub(crate) fn push_u32(&mut self, v: u32) -> u32 {
        let off = self.bytes.len() as u32;
        self.bytes.extend_from_slice(&v.to_le_bytes());
        off
    }

    /// Appends an f32 scalar, returning its byte offset.
    pub(crate) fn push_f32(&mut self, v: f32) -> u32 {
        self.push_u32(v.to_bits())
    }

    /// The finished bytes.
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generators() {
        let mut a = rng(7);
        let mut b = rng(7);
        assert_eq!(f32_bytes(&mut a, 16, 0.0, 1.0), f32_bytes(&mut b, 16, 0.0, 1.0));
        let d = skewed_degrees(&mut a, 1000, 3, 64);
        let hubs = d.iter().filter(|&&x| x > 3).count();
        assert!(hubs > 20 && hubs < 250, "about 10% hubs, got {hubs}");
    }

    #[test]
    fn param_block_layout() {
        let mut p = ParamBlock::new();
        assert_eq!(p.push_u64(0xAABB), 0);
        assert_eq!(p.push_u32(7), 8);
        assert_eq!(p.push_f32(1.0), 12);
        let bytes = p.finish();
        assert_eq!(bytes.len(), 16);
        assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), 0xAABB);
    }
}
