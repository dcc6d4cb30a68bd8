//! A tiny deterministic PRNG (SplitMix64) for fault injection.
//!
//! The repo's reproducibility rule: every stochastic input is derived from
//! an explicit seed through SplitMix64 so each experiment is bit-exact
//! across runs and platforms. `memo-imaging` carries the same generator for
//! synthetic images; this crate cannot depend on it (the dependency points
//! the other way), so the few lines are duplicated here for the
//! [`crate::FaultInjector`] and for property tests.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use memo_table::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent generator for a labelled sub-stream.
    #[must_use]
    pub fn split(&self, label: &str) -> Self {
        SplitMix64 { state: self.state ^ fnv1a(FNV_OFFSET, label.as_bytes()) }
    }

    /// `self.split(&format!("{prefix}{n}"))` without building the label:
    /// the hash runs over `prefix`, then over the decimal digits of `n`.
    #[must_use]
    pub(crate) fn split_numbered(&self, prefix: &str, n: u64) -> Self {
        let mut digits = [0u8; 20]; // u64::MAX has 20 decimal digits
        let mut start = digits.len();
        let mut rest = n;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let h = fnv1a(fnv1a(FNV_OFFSET, prefix.as_bytes()), &digits[start..]);
        SplitMix64 { state: self.state ^ h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below requires a non-empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn split_streams_are_stable() {
        let root = SplitMix64::new(1);
        let mut x1 = root.split("faults");
        let mut x2 = root.split("faults");
        let mut y = root.split("tags");
        let v = x1.next_u64();
        assert_eq!(v, x2.next_u64());
        assert_ne!(v, y.next_u64());
    }

    #[test]
    fn numbered_split_equals_the_formatted_label() {
        let root = SplitMix64::new(0xFA17);
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(root.split_numbered("slot-", n), root.split(&format!("slot-{n}")), "{n}");
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
        }
    }
}
