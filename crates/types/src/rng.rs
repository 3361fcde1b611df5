//! Reproducible random-number generation for parallel Monte Carlo.
//!
//! Three generators are provided:
//!
//! * [`SplitMix64`] — tiny, fast, used for seeding and cheap shuffles.
//! * [`Pcg64`] — the PCG-XSL-RR 128/64 generator; the general-purpose
//!   workhorse for sequential simulation.
//! * [`Philox4x32`] — the counter-based generator from Salmon et al.,
//!   *Parallel Random Numbers: As Easy as 1, 2, 3* (SC'11). Counter-based
//!   generation is what makes cross-engine reproducibility possible: the
//!   random value consumed for (seed, trial, occurrence, draw) is a pure
//!   function of those coordinates, so the sequential, multi-threaded and
//!   simulated-GPU aggregate engines produce *identical* year-loss tables
//!   regardless of scheduling. This mirrors actual GPU practice (Philox is
//!   cuRAND's default counter-based generator). The stream wrapper
//!   computes one block on its first refill, two on its second and four
//!   consecutive blocks on each later one, so a short stream pays for
//!   about the blocks it reads and a long one gets batches whose
//!   independent multiply chains the core overlaps.
//!
//! All generators implement the minimal [`Rng64`] trait; distributions in
//! [`crate::dist`] are generic over it.

/// Minimal RNG interface: a stream of `u64`s plus float conveniences.
pub trait Rng64 {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly distributed bits (upper half of a `u64` draw).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53-bit resolution.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 high bits / 2^53.
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform `f64` in the *open* interval `(0, 1)` — safe for `ln`/ICDF.
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection (unbiased).
    #[inline]
    fn next_below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        let mut x = self.next_u32();
        let mut m = (x as u64).wrapping_mul(bound as u64);
        let mut lo = m as u32;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u32();
                m = (x as u64).wrapping_mul(bound as u64);
                lo = m as u32;
            }
        }
        (m >> 32) as u32
    }
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// SplitMix64 (Steele, Lea & Flood). One 64-bit state word; passes BigCrush.
/// Used throughout for seed derivation because any seed — including 0 —
/// yields a well-mixed stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed; any value is acceptable.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The canonical SplitMix64 output function applied to an arbitrary
    /// word; useful as a stateless mixer.
    #[inline]
    pub const fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSL-RR 128/64 (O'Neill). 128-bit LCG state with an xor-shift,
/// random-rotate output permutation. Fast, statistically excellent, and
/// supports independent streams via the odd increment.
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
    increment: u128,
}

const PCG_MULTIPLIER: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;

impl Pcg64 {
    /// Create a generator from a seed, on the default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0)
    }

    /// Create a generator on a specific stream. Distinct streams yield
    /// statistically independent sequences for the same seed.
    fn with_stream(seed: u64, stream: u64) -> Self {
        // Expand the 64-bit inputs to 128 bits through SplitMix64 so poor
        // seeds (0, 1, small integers) still start well-mixed.
        let s0 = SplitMix64::mix(seed);
        let s1 = SplitMix64::mix(s0 ^ 0xDEAD_BEEF_CAFE_F00D);
        let i0 = SplitMix64::mix(stream.wrapping_add(0x0123_4567_89AB_CDEF));
        let i1 = SplitMix64::mix(i0 ^ 0x5555_5555_5555_5555);
        let mut pcg = Self {
            state: 0,
            increment: (((i0 as u128) << 64 | i1 as u128) << 1) | 1,
        };
        pcg.step();
        pcg.state = pcg.state.wrapping_add((s0 as u128) << 64 | s1 as u128);
        pcg.step();
        pcg
    }

    #[inline]
    fn step(&mut self) {
        self.state = self
            .state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(self.increment);
    }
}

impl Rng64 for Pcg64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step();
        let s = self.state;
        let xored = ((s >> 64) as u64) ^ (s as u64);
        let rot = (s >> 122) as u32;
        xored.rotate_right(rot)
    }
}

const PHILOX_M0: u32 = 0xD251_1F53;
const PHILOX_M1: u32 = 0xCD9E_8D57;
const PHILOX_W0: u32 = 0x9E37_79B9;
const PHILOX_W1: u32 = 0xBB67_AE85;
const PHILOX_ROUNDS: usize = 10;

/// Philox4x32-10 (Salmon et al., SC'11): a counter-based, cryptographically
/// inspired bijection from a 128-bit counter and 64-bit key to 128 random
/// bits. `philox4x32(key, counter)` is a pure function, which is exactly
/// what parallel Monte Carlo needs: any thread can compute the random
/// numbers for any (trial, draw) coordinate without shared state.
/// Always inlined, so a refill's blocks sit in one body, where the
/// compiler interleaves (and vectorises) their independent rounds.
#[inline(always)]
fn philox4x32(key: [u32; 2], counter: [u32; 4]) -> [u32; 4] {
    let mut c = counter;
    let mut k = key;
    for _ in 0..PHILOX_ROUNDS {
        let p0 = (PHILOX_M0 as u64).wrapping_mul(c[0] as u64);
        let p1 = (PHILOX_M1 as u64).wrapping_mul(c[2] as u64);
        let hi0 = (p0 >> 32) as u32;
        let lo0 = p0 as u32;
        let hi1 = (p1 >> 32) as u32;
        let lo1 = p1 as u32;
        c = [hi1 ^ c[1] ^ k[0], lo1, hi0 ^ c[3] ^ k[1], lo0];
        k[0] = k[0].wrapping_add(PHILOX_W0);
        k[1] = k[1].wrapping_add(PHILOX_W1);
    }
    c
}

/// The most Philox blocks a [`Philox4x32`] refill computes at once.
const PHILOX_BATCH: usize = 4;

/// The two `u64` draws of one Philox block: words 0–1, then words 2–3,
/// each low word first.
#[inline]
fn block_draws(words: [u32; 4]) -> [u64; 2] {
    [
        u64::from(words[0]) | u64::from(words[1]) << 32,
        u64::from(words[2]) | u64::from(words[3]) << 32,
    ]
}

/// A streaming wrapper over the Philox bijection: fixes a key (derived
/// from seed and stream id) and walks a 64-bit block counter. Block `b`
/// of the stream is the bijection at counter `[b as u32, (b >> 32) as
/// u32, stream as u32, (stream >> 32) as u32]` and serves two `u64`
/// draws. Refills grow: the first computes one block, the second two
/// consecutive blocks, and each later one four, buffering their eight
/// draws. Most streams a trial opens are read once or twice (a factor
/// column's uniform, a zero Poisson count) or a few times (twelve
/// monthly rates, an operational year), so they pay for about the blocks they
/// read, while a long stream gets the four-block refills, whose
/// independent multiply chains the core overlaps. The sequence is the
/// block-by-block one whatever the refill sizes.
#[derive(Debug, Clone)]
pub struct Philox4x32 {
    key: [u32; 2],
    /// The stream coordinate: the counter's upper two words.
    stream: [u32; 2],
    /// The block the next refill computes first.
    block: u64,
    /// The blocks the next refill computes: 1, 2, then [`PHILOX_BATCH`].
    batch: usize,
    /// The draws of the last refill's blocks, in stream order, at the
    /// end of the buffer (a one-block refill fills its last two slots).
    buffer: [u64; 2 * PHILOX_BATCH],
    /// The index of the next draw in `buffer` (`buffer.len()` =
    /// exhausted).
    next: usize,
}

impl Philox4x32 {
    /// Derive a generator for a (seed, stream) coordinate pair. The stream
    /// id is mixed into the key, so streams are independent bijections;
    /// typical use keys one stream per simulation trial. The raw
    /// coordinate also fills the counter's upper words as extra
    /// separation; the lower two words are the block counter.
    fn for_stream(seed: u64, stream: u64) -> Self {
        let key = SplitMix64::mix(seed ^ SplitMix64::mix(stream));
        Self {
            key: [key as u32, (key >> 32) as u32],
            stream: [stream as u32, (stream >> 32) as u32],
            block: 0,
            batch: 1,
            buffer: [0; 2 * PHILOX_BATCH],
            next: 2 * PHILOX_BATCH,
        }
    }

    /// The bijection's counter for block `block` of this stream.
    #[inline]
    fn counter(&self, block: u64) -> [u32; 4] {
        [
            block as u32,
            (block >> 32) as u32,
            self.stream[0],
            self.stream[1],
        ]
    }

    /// Stand a fresh stream where `draws` calls of `next_u64` would
    /// have left it. A block serves two draws, so the block counter
    /// advances by `draws / 2` (a 64-bit add, carrying into the
    /// counter's second word); an odd count then refills at that block
    /// (the stream's first refill: one block) and leaves its first draw
    /// spent.
    fn skip_fresh(&mut self, draws: u64) {
        debug_assert!(
            self.batch == 1 && self.next == self.buffer.len(),
            "only a fresh stream is skipped"
        );
        self.block = self.block.wrapping_add(draws / 2);
        if draws % 2 == 1 {
            self.refill();
            self.next += 1;
        }
    }

    /// Refill `buffer` with the next `batch` blocks. Kept out of line,
    /// so `next_u64` stays small where it is inlined.
    #[inline(never)]
    fn refill(&mut self) {
        match self.batch {
            1 => self.fill::<1>(),
            2 => self.fill::<2>(),
            _ => self.fill::<PHILOX_BATCH>(),
        }
    }

    /// Compute the next `N` blocks into the last `2 * N` slots of
    /// `buffer`. The blocks are independent, so the core overlaps
    /// their multiply chains.
    #[inline(always)]
    fn fill<const N: usize>(&mut self) {
        let start = self.buffer.len() - 2 * N;
        for i in 0..N {
            let words = philox4x32(self.key, self.counter(self.block.wrapping_add(i as u64)));
            self.buffer[start + 2 * i..start + 2 * i + 2].copy_from_slice(&block_draws(words));
        }
        self.block = self.block.wrapping_add(N as u64);
        self.batch = (2 * N).min(PHILOX_BATCH);
        self.next = start;
    }
}

impl Rng64 for Philox4x32 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.next >= self.buffer.len() {
            self.refill();
        }
        let draw = self.buffer[self.next];
        self.next += 1;
        draw
    }
}

/// Deterministic per-coordinate stream factory used by the simulation
/// engines. Encapsulates "the RNG for trial `t` of run seeded `s`" so all
/// engines derive identical streams.
#[derive(Debug, Clone, Copy)]
pub struct SeedStream {
    seed: u64,
}

impl SeedStream {
    /// A factory for the given master seed.
    pub const fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The master seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// The generator for a given stream coordinate (e.g. a trial id).
    #[inline]
    pub fn stream(&self, stream: u64) -> Philox4x32 {
        Philox4x32::for_stream(self.seed, stream)
    }

    /// The generator for `stream`, already past its first `draws`
    /// `next_u64` draws: the same sequence from here on as
    /// [`Self::stream`] after `draws` calls, at the cost of at most one
    /// block.
    #[inline]
    pub fn stream_after(&self, stream: u64, draws: u64) -> Philox4x32 {
        let mut rng = self.stream(stream);
        rng.skip_fresh(draws);
        rng
    }

    /// Derive a sub-seed (for seeding nested components such as the
    /// catalogue simulator) without correlating with `stream`.
    #[inline]
    pub fn derive(&self, label: u64) -> u64 {
        SplitMix64::mix(self.seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // Reference values from the canonical C implementation with seed
        // 1234567.
        let mut r = SplitMix64::new(1234567);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_eq!(a, 6457827717110365317);
        assert_eq!(b, 3203168211198807973);
    }

    #[test]
    fn philox_is_a_pure_function() {
        let k = [0x1234_5678, 0x9ABC_DEF0];
        let c = [1, 2, 3, 4];
        assert_eq!(philox4x32(k, c), philox4x32(k, c));
        // Different counters → different outputs.
        assert_ne!(philox4x32(k, c), philox4x32(k, [1, 2, 3, 5]));
        // Different keys → different outputs.
        assert_ne!(philox4x32(k, c), philox4x32([1, 2], c));
    }

    #[test]
    fn philox_streams_are_reproducible() {
        let f = SeedStream::new(99);
        let mut a = f.stream(7);
        let mut b = f.stream(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn philox_streams_differ_by_coordinate() {
        let f = SeedStream::new(99);
        let x: Vec<u64> = (0..8).map(|_| f.stream(1).next_u64()).collect();
        let mut s2 = f.stream(2);
        let y: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        assert_ne!(x, y);
    }

    /// Draw `draw` of `stream` under `seed`, straight from the
    /// bijection, one block at a time: block `draw / 2` of the stream,
    /// its words 0–1 for an even draw and 2–3 for an odd one, low word
    /// first.
    fn reference_draw(seed: u64, stream: u64, draw: u64) -> u64 {
        let key = SplitMix64::mix(seed ^ SplitMix64::mix(stream));
        let block = draw / 2;
        let words = philox4x32(
            [key as u32, (key >> 32) as u32],
            [
                block as u32,
                (block >> 32) as u32,
                stream as u32,
                (stream >> 32) as u32,
            ],
        );
        let half = 2 * (draw % 2) as usize;
        u64::from(words[half]) | u64::from(words[half + 1]) << 32
    }

    #[test]
    fn batched_streams_equal_the_block_by_block_reference() {
        // Each stream's refills compute one block, then two, then four
        // at a time; the skips cover both halves of the first block,
        // every offset into the refills after it, a long skip and the
        // carry into the counter's high word.
        let seed = 0xB10C;
        let f = SeedStream::new(seed);
        for stream in [0, 7, u64::MAX] {
            for skip in (0..=17).chain([64, 65, (1 << 33) + 1]) {
                let mut rng = f.stream_after(stream, skip);
                for k in 0..40 {
                    assert_eq!(
                        rng.next_u64(),
                        reference_draw(seed, stream, skip + k),
                        "stream {stream}, skip {skip}: draw {k} after"
                    );
                }
            }
        }
    }

    #[test]
    fn refills_compute_one_block_then_two_then_four() {
        // The refill sizes are a cost the draws do not show: a stream
        // read once or twice computes one block, one read up to six
        // times three, and a long one four at a time after those.
        let f = SeedStream::new(1);
        let blocks_computed = |skip: u64, draws: u64| {
            let mut rng = f.stream_after(9, skip);
            for _ in 0..draws {
                rng.next_u64();
            }
            rng.block - skip / 2
        };
        let fresh = [
            (0, 0),
            (1, 1),
            (2, 1),
            (3, 3),
            (6, 3),
            (7, 7),
            (14, 7),
            (15, 11),
        ];
        for (draws, blocks) in fresh {
            assert_eq!(blocks_computed(0, draws), blocks, "{draws} draws");
        }
        // An odd skip's refill is the stream's first: one block, whose
        // second draw is the first read.
        for (draws, blocks) in [(1, 1), (2, 3), (5, 3), (6, 7)] {
            assert_eq!(blocks_computed(5, draws), blocks, "{draws} draws after 5");
        }
    }

    #[test]
    fn philox_skip_blocks_matches_sequential() {
        // Skipping ahead is the pure function at a later counter: block
        // 3 of a stream, computed directly, is draws 6 and 7 of it
        // (one block = 2 u64 draws = 4 u32 words).
        let mut a = Philox4x32::for_stream(5, 10);
        for _ in 0..6 {
            a.next_u64();
        }
        assert_eq!(a.next_u64(), reference_draw(5, 10, 6));
        assert_eq!(a.next_u64(), reference_draw(5, 10, 7));
    }

    #[test]
    fn stream_after_equals_the_stream_advanced_draw_by_draw() {
        let f = SeedStream::new(0x5EED);
        for stream in [0, 7, u64::MAX] {
            for draws in (0..=9).chain([64, 65]) {
                let mut walked = f.stream(stream);
                for _ in 0..draws {
                    walked.next_u64();
                }
                let mut skipped = f.stream_after(stream, draws);
                for k in 0..16 {
                    assert_eq!(
                        skipped.next_u64(),
                        walked.next_u64(),
                        "{stream}/{draws}: draw {k} after"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_after_carries_into_the_counters_high_word() {
        // 2³² blocks wrap the counter's low word; the odd draw then
        // reads block 2³², whose first half is spent, and the stream
        // goes on through block 2³² + 1. A dropped carry would read
        // block 0, which differs.
        let draws = (1 << 33) + 1;
        let mut skipped = SeedStream::new(3).stream_after(11, draws);
        for k in 0..4 {
            assert_eq!(
                skipped.next_u64(),
                reference_draw(3, 11, draws + k),
                "draw {k}"
            );
        }
        assert_ne!(reference_draw(3, 11, draws), reference_draw(3, 11, 1));
    }

    #[test]
    fn floats_are_in_range() {
        let mut r = Pcg64::new(42);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.next_f64_open();
            assert!(g > 0.0 && g < 1.0);
        }
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pcg_streams_are_independent() {
        let mut a = Pcg64::with_stream(11, 0);
        let mut b = Pcg64::with_stream(11, 1);
        let xa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn uniformity_chi_square_smoke() {
        // 16 bins, 160k draws; chi-square with 15 dof should be far below
        // 60 (p ~ 1e-6 would be ~50). A gross generator bug fails this.
        for mk in 0..3 {
            let mut chi = 0.0f64;
            let mut counts = [0u32; 16];
            let n = 160_000;
            match mk {
                0 => {
                    let mut r = SplitMix64::new(17);
                    for _ in 0..n {
                        counts[(r.next_u64() >> 60) as usize] += 1;
                    }
                }
                1 => {
                    let mut r = Pcg64::new(17);
                    for _ in 0..n {
                        counts[(r.next_u64() >> 60) as usize] += 1;
                    }
                }
                _ => {
                    let mut r = Philox4x32::for_stream(17, 0);
                    for _ in 0..n {
                        counts[(r.next_u64() >> 60) as usize] += 1;
                    }
                }
            }
            let expect = n as f64 / 16.0;
            for c in counts {
                let d = c as f64 - expect;
                chi += d * d / expect;
            }
            assert!(chi < 60.0, "generator {mk}: chi={chi}");
        }
    }

    #[test]
    fn seed_stream_derive_decorrelates() {
        let f = SeedStream::new(1);
        assert_ne!(f.derive(1), f.derive(2));
        assert_ne!(f.derive(1), 1);
        assert_eq!(f.seed(), 1);
    }
}
