//! Stable 64-bit configuration fingerprints.
//!
//! A [`Fingerprint`] condenses a configuration struct into one `u64`
//! that is identical across runs, platforms and compiler versions —
//! the property a cross-scenario cache key needs (a `std` `Hasher` is
//! explicitly *not* guaranteed stable between releases). Floats are
//! folded by their IEEE bit patterns, so two configs fingerprint alike
//! exactly when they would drive the deterministic generators alike.
//!
//! The mixer is FNV-1a over little-endian bytes with a domain tag, so
//! fingerprints of different config *kinds* never collide merely by
//! sharing field values.

/// An accumulating 64-bit fingerprint (FNV-1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

impl Fingerprint {
    /// Start a fingerprint for the given domain (the config kind's
    /// name; folded first so distinct kinds occupy distinct keyspaces).
    pub fn new(domain: &str) -> Self {
        let mut fp = Self(FNV_OFFSET);
        fp.push_bytes(domain.as_bytes());
        fp
    }

    /// Fold raw bytes.
    fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold one `u64`.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Fold one `usize` (widened so 32- and 64-bit targets agree).
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// Fold one `f64` by IEEE bit pattern (`-0.0` and `0.0` differ;
    /// every NaN payload is its own value — bitwise is what the
    /// deterministic generators respond to).
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Fold another finished fingerprint (for composite configs).
    pub fn push_fingerprint(&mut self, fp: u64) -> &mut Self {
        self.push_u64(fp)
    }

    /// The accumulated 64-bit key.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let a = *Fingerprint::new("cfg").push_u64(1).push_u64(2);
        let b = *Fingerprint::new("cfg").push_u64(1).push_u64(2);
        let c = *Fingerprint::new("cfg").push_u64(2).push_u64(1);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn domain_separates_equal_payloads() {
        let a = *Fingerprint::new("catalog").push_u64(7);
        let b = *Fingerprint::new("exposure").push_u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn floats_fold_by_bits() {
        let a = *Fingerprint::new("f").push_f64(0.0);
        let b = *Fingerprint::new("f").push_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
        let c = *Fingerprint::new("f").push_f64(1.5);
        let d = *Fingerprint::new("f").push_f64(1.5);
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn known_value_is_stable() {
        // Pin the mixer itself against a precomputed constant: if this
        // changes, every persisted cache key in the wild silently
        // rotates. (Golden value below; re-derive only on an
        // intentional mixer change.)
        let fp = *Fingerprint::new("pin").push_u64(42).push_f64(1.0);
        assert_eq!(fp.finish(), GOLDEN_PIN);
        // And the empty-payload hash of the bare FNV offset basis.
        assert_eq!(Fingerprint::new("").finish(), 0xCBF2_9CE4_8422_2325);
    }

    const GOLDEN_PIN: u64 = 10_174_069_933_616_203_423;
}
