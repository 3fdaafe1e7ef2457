//! CRC-32 (IEEE 802.3 polynomial, reflected), dependency-free.
//!
//! Every journal record carries a CRC over its kind byte and payload;
//! every segment header carries one over the other header bytes. The
//! FNV checksums used on the wire are too weak for at-rest corruption
//! detection across power loss — CRC-32 detects all burst errors up to
//! 32 bits and has a well-understood miss rate beyond that.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[0]` is the classic bytewise table, and
/// `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so eight table lookups advance the digest by eight bytes
/// at once with exactly the bytewise algorithm's result.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Advances the raw (pre-inverted) CRC register over `bytes`, eight
/// bytes per step, then bytewise over the tail.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// CRC-32 of `bytes` (IEEE, as used by zip/png/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Incremental CRC-32: feed chunks through [`Crc32::update`], read the
/// digest with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update(self.state, bytes);
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"segmented append-only journal";
        let mut inc = Crc32::new();
        for chunk in data.chunks(5) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(data));
    }

    /// The textbook bytewise CRC-32, straight from the polynomial: the
    /// reference the sliced implementation must match.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (64-bit LCG, high byte).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bytewise_at_every_short_length() {
        let data = noise(64, 1);
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn sliced_matches_bytewise_at_random_lengths_and_offsets() {
        // Offsets move the slice off any 8-byte alignment; incremental
        // updates split it at arbitrary points, including mid-word.
        let data = noise(4_096, 7);
        let picks = noise(3 * 200, 11);
        for p in picks.chunks_exact(3) {
            let off = p[0] as usize % 64;
            let len = (p[1] as usize * 13 + p[2] as usize) % (data.len() - off);
            let slice = &data[off..off + len];
            let want = bytewise(slice);
            assert_eq!(crc32(slice), want, "offset {off} length {len}");
            let cut = p[2] as usize % (len + 1);
            let mut inc = Crc32::new();
            inc.update(&slice[..cut]);
            inc.update(&slice[cut..]);
            assert_eq!(inc.finish(), want, "offset {off} length {len} cut {cut}");
        }
    }

    #[test]
    fn single_bit_flips_change_digest() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[i] ^= 1 << bit;
                assert_ne!(crc32(&mutated), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
