//! Output digests: a 64-bit FNV-1a hash printed as 16 hex digits. Equal
//! outputs give equal digests across runs, machines and builds, which is
//! what the bit-identity checks between two commits compare.

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feed one record followed by a newline, so adjacent records cannot
    /// run together.
    pub fn line(&mut self, record: &str) -> &mut Self {
        self.update(record.as_bytes()).update(b"\n")
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one byte string.
pub fn of(bytes: &[u8]) -> String {
    Digest::default().update(bytes).hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_fnv1a_reference_vectors() {
        assert_eq!(of(b""), "cbf29ce484222325");
        assert_eq!(of(b"a"), "af63dc4c8601ec8c");
        assert_eq!(of(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn incremental_equals_one_shot_and_lines_are_delimited() {
        let mut d = Digest::default();
        d.update(b"foo").update(b"bar");
        assert_eq!(d.hex(), of(b"foobar"));
        let mut a = Digest::default();
        a.line("ab").line("c");
        let mut b = Digest::default();
        b.line("a").line("bc");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex(), of(b"ab\nc\n"));
    }
}
