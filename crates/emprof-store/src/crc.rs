//! CRC-32 (IEEE 802.3 polynomial, reflected), dependency-free.
//!
//! One checksum guards every byte the system moves or keeps. On disk,
//! every journal record carries a CRC over its kind byte and payload,
//! and every segment header one over the other header bytes. On the
//! wire, every frame carries the CRC of its payload, and the header
//! checksum is this CRC folded to 16 bits. CRC-32 detects all burst
//! errors up to 32 bits and has a well-understood miss rate beyond that.
//!
//! [`combine`] joins two digests: from `crc32(a)`, `crc32(b)` and
//! `b.len()` it gives `crc32(a ‖ b)` in O(log `b.len()`) without reading
//! a byte. That is how a journal record's CRC, over its kind byte and
//! then its payload, is derived from the CRC a SAMPLES frame already
//! carried and had verified, so a sample byte is hashed once per side.
//!
//! The kernel is slicing-by-8 (eight table lookups per eight bytes)
//! run as three independent lanes over any input of 768 bytes or more.
//! One chain waits on each lookup before the next can start; three
//! chains keep the core busy, about twice the bytes per second on a
//! journal segment or a SAMPLES payload, with the same tables and
//! exactly the same digest. The lanes are joined with the algebra of
//! [`combine`], but the equal lane lengths share one shift, computed
//! once and applied in Horner form, so a join costs one shift and two
//! products instead of two of each.

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
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
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

/// Inputs at least this long are split into three lanes; below it the
/// lanes' join costs more than they save.
const LANE_MIN: usize = 3 * 256;

/// One slicing-by-8 step: the raw register advanced over eight bytes.
#[inline(always)]
fn step8(crc: u32, word: &[u8; 8]) -> u32 {
    let t = &TABLES;
    let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
    let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
    t[7][(lo & 0xff) as usize]
        ^ t[6][((lo >> 8) & 0xff) as usize]
        ^ t[5][((lo >> 16) & 0xff) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xff) as usize]
        ^ t[2][((hi >> 8) & 0xff) as usize]
        ^ t[1][((hi >> 16) & 0xff) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Advances the raw (pre-inverted) CRC register over `bytes`.
///
/// An input of at least [`LANE_MIN`] bytes is cut into three equal lanes
/// of whole 8-byte words and a short tail. One loop runs a slicing-by-8
/// chain over each lane, the first from `crc` and the other two from
/// zero; the three chains share no state, so their table lookups
/// overlap in the pipeline instead of waiting on one another. The raw
/// register is linear: `update(r, a ‖ b) = update(r, a) · x^(8|b|) ⊕
/// update(0, b)`, which is [`combine`], so joining the lanes
/// ([`join_lanes`]) gives the single chain's register exactly. The
/// tail, and any shorter input, runs eight bytes per step and then
/// bytewise.
fn update(mut crc: u32, mut bytes: &[u8]) -> u32 {
    if bytes.len() >= LANE_MIN {
        let lane = bytes.len() / 24 * 8;
        let words = bytes[..3 * lane].as_chunks::<8>().0;
        let (a, rest) = words.split_at(lane / 8);
        let (b, c) = rest.split_at(lane / 8);
        let (mut ca, mut cb, mut cc) = (crc, 0, 0);
        for ((wa, wb), wc) in a.iter().zip(b).zip(c) {
            ca = step8(ca, wa);
            cb = step8(cb, wb);
            cc = step8(cc, wc);
        }
        crc = join_lanes(ca, cb, cc, lane);
        bytes = &bytes[3 * lane..];
    }
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        crc = step8(crc, w);
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// CRC-32 of `bytes` (IEEE, as used by zip/png/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Multiplies two polynomials modulo the CRC polynomial, both in the
/// reflected bit order the digest uses (bit 31 is `x^0`).
const fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k)` modulo the CRC polynomial. The polynomial is
/// irreducible, so `x^(2^32) = x` and the powers cycle with period 32.
const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    table[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 32 {
        table[k] = mul_mod_poly(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = build_x2n();

/// `x^(8 len)` modulo the CRC polynomial: the shift that appending
/// `len` bytes applies to the register before them, in O(log `len`) as
/// the product of `x^(2^(k+3))` over the set bits `k` of `len`.
fn byte_shift(len: usize) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let mut n = len as u64;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_poly(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    shift
}

/// The CRC-32 of `a ‖ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `len_b = b.len()`, in O(log `len_b`): appending `len_b` bytes shifts
/// `a`'s contribution by `x^(8 len_b)`, and the pre- and post-inversions
/// cancel, so `crc32(a ‖ b) = crc_a · x^(8 len_b) ⊕ crc_b` modulo the
/// polynomial.
pub fn combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    mul_mod_poly(byte_shift(len_b), crc_a) ^ crc_b
}

/// Joins three lane registers of `lane` bytes each into the register of
/// their concatenation. Both joins shift by the same `s = x^(8 lane)`, so
/// it is computed once and applied in Horner form, `(a·s ⊕ b)·s ⊕ c`:
/// exactly `combine(combine(a, b, lane), c, lane)`, at half the cost.
fn join_lanes(a: u32, b: u32, c: u32, lane: usize) -> u32 {
    let s = byte_shift(lane);
    mul_mod_poly(s, mul_mod_poly(s, a) ^ b) ^ c
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
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
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
    /// reference the lane kernel must match.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
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
    fn lanes_match_bytewise_at_every_length_to_4096() {
        // Every length crosses the lane threshold at 768 bytes, and every
        // lane length and tail length modulo 24 comes up.
        let data = noise(4_096, 13);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn lanes_match_bytewise_at_odd_offsets_around_the_threshold() {
        let data = noise(2 * LANE_MIN + 64, 17);
        for off in [1, 3, 5, 7, 13, 31] {
            for len in (LANE_MIN - 33..=LANE_MIN + 33).chain([2 * LANE_MIN + 1]) {
                let slice = &data[off..off + len];
                assert_eq!(crc32(slice), bytewise(slice), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn lanes_match_bytewise_on_a_multi_mib_buffer_fed_at_random_splits() {
        let data = noise(3 * (1 << 20) + 5, 19);
        let want = bytewise(&data);
        assert_eq!(crc32(&data), want);
        assert_eq!(crc32(&data[1..]), bytewise(&data[1..]));
        // Pieces from a few bytes to about a mebibyte, so the incremental
        // digest runs both loops and joins lanes at odd positions.
        let picks = noise(2 * 64, 23);
        let mut inc = Crc32::new();
        let mut at = 0;
        for p in picks.chunks_exact(2) {
            let len = (p[0] as usize) << (p[1] % 13);
            let end = (at + len).min(data.len());
            inc.update(&data[at..end]);
            at = end;
        }
        inc.update(&data[at..]);
        assert_eq!(inc.finish(), want);
    }

    #[test]
    fn powers_of_x_cycle_with_period_32() {
        assert_eq!(mul_mod_poly(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn combine_matches_the_digest_of_the_concatenation() {
        // Random splits of random lengths, both empty halves, and whole
        // buffers up to the wire's 4 MiB payload bound.
        const MAX_PAYLOAD: usize = 1 << 22;
        let data = noise(MAX_PAYLOAD, 3);
        let picks = noise(2 * 300, 5);
        let mut cases: Vec<(usize, usize)> = picks
            .chunks_exact(2)
            .map(|p| {
                let len = (p[0] as usize * 977 + p[1] as usize * 31) % 70_000;
                (len, (p[1] as usize * 257) % (len + 1))
            })
            .collect();
        cases.extend([
            (0, 0),
            (9, 0),
            (9, 9),
            (MAX_PAYLOAD, 1),
            (MAX_PAYLOAD, MAX_PAYLOAD - 12),
        ]);
        for (len, cut) in cases {
            let (a, b) = data[..len].split_at(cut);
            assert_eq!(
                combine(crc32(a), crc32(b), b.len()),
                crc32(&data[..len]),
                "length {len} cut {cut}"
            );
        }
    }

    #[test]
    fn horner_lane_join_equals_two_combines() {
        // Every lane length to 4096, then random ones below 2^40, whose
        // high bits walk the power table past its period-32 wrap; each
        // joins three fresh random registers.
        let mut x = 29u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x
        };
        let lens: Vec<usize> = (0..=4096)
            .chain((0..500).map(|_| (next() >> 24) as usize))
            .chain([(1 << 40) - 1])
            .collect();
        for n in lens {
            let [a, b, c] = [(); 3].map(|_| (next() >> 32) as u32);
            assert_eq!(
                join_lanes(a, b, c, n),
                combine(combine(a, b, n), c, n),
                "lane {n} registers {a:#x} {b:#x} {c:#x}"
            );
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
