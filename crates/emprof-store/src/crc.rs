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
//! Inputs shorter than 4 KiB run a slicing-by-8 kernel (eight
//! table lookups per eight bytes), as three independent lanes once they
//! reach 768 bytes. One chain waits on each lookup before the next can
//! start; three chains keep the core busy, about twice the bytes per
//! second, with the same tables and exactly the same digest. The lanes
//! are joined with the algebra of [`combine`], but the equal lane
//! lengths share one shift, computed once and applied in Horner form,
//! so a join costs one shift and two products instead of two of each.
//!
//! Longer inputs are *folded* first, with no table at all. Let
//! `y = x^64`, the shift of one 8-byte word. The sparse polynomial
//! `Q = y^300 + y^155 + y^117 + y^89 + 1` is a multiple of the CRC
//! polynomial: `x^(64·j) mod P` is `byte_shift(8·j)`, and a
//! meet-in-the-middle search over those residues for `j ≤ 700` found
//! four exponents whose residues XOR to the residue of `y^300` (the
//! idea behind Chorba, S. Russell, 2024). Since `Q ≡ 0`, a word that
//! at least 300 more words follow can be removed from its place and
//! XORed into the words 145, 183, 211 and 300 places later without
//! changing the digest. The fold does this to every word but
//! the last 300, front to back, so each folded word carries everything
//! folded into it; what is left is 300 words whose CRC is the digest.
//! The register joins the message first: advancing register `r` over a
//! message is advancing zero over the message with `r` XORed into its
//! first four bytes, so `r` is XORed into the first word and the fold
//! continues from zero. The last 300 words cannot be pushed further (a
//! push would land past the end), so they go through the three-lane
//! slicing kernel, at one fixed lane length whose shift is a constant.
//! The fold is a few loads and XORs per word, which the compiler
//! vectorizes with baseline SSE2; it reads and writes the same bytes as
//! the tables and needs no `unsafe`, `std::arch` or heap allocation.

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

/// Inputs at least this long are folded ([`fold`]) before the tables
/// run. The fold needs more than [`FOLD_SPAN`] words, and below about
/// 3.5 KiB, where those last words are most of the input, it is no
/// faster than the lanes (DESIGN.md §11).
const FOLD_MIN: usize = 4096;

/// How far, in words, [`fold`] pushes a word. A word `m` words before
/// the end stands for `y^m`, and modulo `Q = y^300 + y^155 + y^117 +
/// y^89 + 1` that is `y^(m−145) + y^(m−183) + y^(m−211) + y^(m−300)`.
const FOLD_DIST: [usize; 4] = [300 - 155, 300 - 117, 300 - 89, 300];

/// The words a fold leaves unfolded at the end of its input: `Q`'s
/// degree, the farthest push.
const FOLD_SPAN: usize = FOLD_DIST[3];

/// The nearest push. A chunk of this many words reads only words that
/// earlier chunks finished, so its loop has no carried dependency.
const FOLD_CHUNK: usize = FOLD_DIST[0];

/// The fold's stack window, in words: the [`FOLD_SPAN`] words a chunk
/// reads back to, then five chunks.
const FOLD_WINDOW: usize = FOLD_SPAN + 5 * FOLD_CHUNK;

/// The join shift `x^(8·lane)` of the three lanes over a fold's last
/// [`FOLD_SPAN`] words, a third of them each.
const TAIL_SHIFT: u32 = byte_shift(8 * FOLD_SPAN / 3);

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
/// An input of at least [`FOLD_MIN`] bytes is folded ([`fold`]). An
/// input of at least [`LANE_MIN`] bytes is cut into three equal lanes of
/// whole 8-byte words and a short tail. One loop runs a slicing-by-8
/// chain over each lane, the first from `crc` and the other two from
/// zero; the three chains share no state, so their table lookups
/// overlap in the pipeline instead of waiting on one another. The raw
/// register is linear: `update(r, a ‖ b) = update(r, a) · x^(8|b|) ⊕
/// update(0, b)`, which is [`combine`], so joining the lanes
/// ([`join_lanes`]) gives the single chain's register exactly. The
/// tail, and any shorter input, runs eight bytes per step and then
/// bytewise.
fn update(mut crc: u32, mut bytes: &[u8]) -> u32 {
    if bytes.len() >= FOLD_MIN {
        return fold(crc, bytes);
    }
    if bytes.len() >= LANE_MIN {
        let lane = bytes.len() / 24 * 8;
        let [ca, cb, cc] = lanes(crc, bytes[..3 * lane].as_chunks::<8>().0);
        crc = join_lanes(ca, cb, cc, lane);
        bytes = &bytes[3 * lane..];
    }
    chain(crc, bytes)
}

/// One slicing-by-8 chain over `bytes`, eight bytes per step and then
/// bytewise.
fn chain(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        crc = step8(crc, w);
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// Three slicing-by-8 chains over the thirds of `words`, whose length
/// is a multiple of three: the first from `crc`, the others from zero.
fn lanes(crc: u32, words: &[[u8; 8]]) -> [u32; 3] {
    let lane = words.len() / 3;
    let (a, rest) = words.split_at(lane);
    let (b, c) = rest.split_at(lane);
    let (mut ca, mut cb, mut cc) = (crc, 0, 0);
    for ((wa, wb), wc) in a.iter().zip(b).zip(c) {
        ca = step8(ca, wa);
        cb = step8(cb, wb);
        cc = step8(cc, wc);
    }
    [ca, cb, cc]
}

/// Advances the raw register over `bytes`, at least [`FOLD_MIN`] long,
/// by folding all but its last [`FOLD_SPAN`] whole words (module docs).
///
/// With `d_k` the little-endian words and `n` of them, the folded word
/// is `w_k = d_k ⊕ w_(k−145) ⊕ w_(k−183) ⊕ w_(k−211) ⊕ w_(k−300)` for
/// `k < n − 300`, a term before the message being zero except that
/// `w_(−300)` is the register, which `w_0` alone reads. Each of the last
/// 300 words is XORed with the terms from folded words only, and the
/// result is those words' CRC from zero, then the bytes past the last
/// whole word. The words live in a stack window that slides its last
/// [`FOLD_SPAN`] words to its front when full; the unfolded words'
/// slots read as zero. Kept out of line, so that the window's 10 KiB of
/// stack is reserved only by calls that fold.
#[inline(never)]
fn fold(crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    let (body, last) = words.split_at(words.len() - FOLD_SPAN);
    let mut win = [[0u8; 8]; FOLD_WINDOW];
    win[0] = u64::from(crc).to_le_bytes();
    for block in body.chunks(FOLD_WINDOW - FOLD_SPAN) {
        for (at, chunk) in (FOLD_SPAN..)
            .step_by(FOLD_CHUNK)
            .zip(block.chunks(FOLD_CHUNK))
        {
            let (done, next) = win.split_at_mut(at);
            fold_words(&mut next[..chunk.len()], chunk, done, at);
        }
        let end = FOLD_SPAN + block.len();
        win.copy_within(end - FOLD_SPAN..end, 0);
    }
    let reach = 2 * FOLD_SPAN - FOLD_CHUNK;
    win[FOLD_SPAN..reach].fill([0; 8]);
    let mut left = [[0u8; 8]; FOLD_SPAN];
    fold_words(&mut left, last, &win[..reach], FOLD_SPAN);
    let [ca, cb, cc] = lanes(0, &left);
    chain(join_shifted(ca, cb, cc, TAIL_SHIFT), tail)
}

/// `out[i] = words[i] ⊕ hist[at + i − d]` over the [`FOLD_DIST`] `d`:
/// one fold step for `out.len()` words, the first of which is `at`
/// words into `hist`'s numbering.
#[inline(always)]
fn fold_words(out: &mut [[u8; 8]], words: &[[u8; 8]], hist: &[[u8; 8]], at: usize) {
    let n = out.len();
    let words = &words[..n];
    let [a, b, c, d] = FOLD_DIST.map(|d| &hist[at - d..][..n]);
    let le = |w: &[u8; 8]| u64::from_le_bytes(*w);
    for i in 0..n {
        out[i] = (le(&words[i]) ^ le(&a[i]) ^ le(&b[i]) ^ le(&c[i]) ^ le(&d[i])).to_le_bytes();
    }
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
const fn byte_shift(len: usize) -> u32 {
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
    join_shifted(a, b, c, byte_shift(lane))
}

/// [`join_lanes`] with the shift `s` given.
fn join_shifted(a: u32, b: u32, c: u32, s: u32) -> u32 {
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
        *bytewise_prefixes(bytes).last().unwrap()
    }

    /// The bytewise digest of every prefix of `bytes`, the empty one
    /// first, from one pass.
    fn bytewise_prefixes(bytes: &[u8]) -> Vec<u32> {
        let mut crc = !0u32;
        let mut digests = vec![!crc];
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            digests.push(!crc);
        }
        digests
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
    fn sparse_multiple_of_the_polynomial_is_zero() {
        // Q = y^300 + y^155 + y^117 + y^89 + 1 with y = x^64, and
        // byte_shift(8·j) = y^j modulo the CRC polynomial.
        let q = [300, 155, 117, 89, 0]
            .iter()
            .fold(0, |acc, &j| acc ^ byte_shift(8 * j));
        assert_eq!(q, 0);
        // The fold's distances are Q's: y^300 ≡ the sum of y^(300 − d).
        let pushed = FOLD_DIST
            .iter()
            .fold(0, |acc, &d| acc ^ byte_shift(8 * (FOLD_SPAN - d)));
        assert_eq!(pushed, byte_shift(8 * FOLD_SPAN));
    }

    #[test]
    fn fold_matches_bytewise_at_every_length_around_the_threshold() {
        // From 64 bytes below the fold threshold to 600 words above it,
        // at every byte offset within a word: every tail length, every
        // chunk and window-slide position of the body's end.
        let data = noise(FOLD_MIN + 8 * 600 + 8, 37);
        for off in 0..8 {
            let want = bytewise_prefixes(&data[off..]);
            for len in FOLD_MIN - 64..=FOLD_MIN + 8 * 600 {
                let got = crc32(&data[off..off + len]);
                assert_eq!(got, want[len], "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn incremental_digest_folds_from_any_register() {
        // Pieces from empty to three fold thresholds long, so the fold
        // runs from the registers the pieces before it left, and the
        // digest after every piece equals the bytewise one.
        let data = noise(1 << 20, 41);
        let want = bytewise_prefixes(&data);
        let picks = noise(2 * 150, 43);
        let mut inc = Crc32::new();
        let (mut at, mut folded) = (0, 0);
        for p in picks.chunks_exact(2) {
            let len = (p[0] as usize * 256 + p[1] as usize) % (3 * FOLD_MIN);
            let end = (at + len).min(data.len());
            inc.update(&data[at..end]);
            folded += usize::from(end - at >= FOLD_MIN && at > 0);
            at = end;
            assert_eq!(inc.finish(), want[at], "prefix {at}");
        }
        assert!(
            folded > 50,
            "only {folded} folds from a register other than !0"
        );
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
