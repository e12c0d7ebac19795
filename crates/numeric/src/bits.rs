//! Bit-exact message payload packing.
//!
//! The CONGEST model charges algorithms per *bit*: each message may carry
//! only `O(log N)` of them. To make that accounting honest rather than
//! notional, every message payload in this workspace is actually serialized
//! to a bit string with [`BitWriter`] and parsed back with [`BitReader`];
//! the simulator then enforces its per-message bit budget against
//! [`BitBuf::bit_len`].
//!
//! Payloads of up to [`INLINE_BITS`] bits live inline in the [`BitBuf`]
//! value, so building, cloning and dropping a message never touches the
//! allocator; only longer strings spill to the heap.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Words stored inline before a [`BitBuf`] spills to the heap.
const INLINE_WORDS: usize = 4;

/// Longest bit string a [`BitBuf`] holds without a heap allocation.
///
/// 256 bits cover the protocol codec's largest message plus the reliable
/// transport's 75-bit frame header for every `n ≤ 2²²` (154 bits at
/// `n = 256`, 196 at `n = 10,000`, 238 at `n = 2²⁰`); three words would
/// already spill reliable frames at `n = 10,000`.
pub const INLINE_BITS: usize = INLINE_WORDS * 64;

/// Storage of a [`BitBuf`]: the length lives in each variant so the enum
/// tag fits in the inline variant's padding (five words in all). The
/// variant follows the length: at most [`INLINE_BITS`] bits are inline.
/// Bits past the length are zero, in the last used word and in every
/// inline word after it.
#[derive(Clone)]
enum Repr {
    Inline {
        words: [u64; INLINE_WORDS],
        bits: u16,
    },
    /// Exactly `⌈bits / 64⌉` words.
    Spilled { words: Vec<u64>, bits: usize },
}

/// An immutable packed bit string (little-endian within 64-bit words).
///
/// Equality and hashing depend only on the bit content.
#[derive(Clone)]
pub struct BitBuf {
    repr: Repr,
}

impl BitBuf {
    /// The empty bit string.
    pub fn new() -> Self {
        BitBuf {
            repr: Repr::Inline {
                words: [0; INLINE_WORDS],
                bits: 0,
            },
        }
    }

    /// Number of bits stored.
    pub fn bit_len(&self) -> usize {
        match self.repr {
            Repr::Inline { bits, .. } => bits as usize,
            Repr::Spilled { bits, .. } => bits,
        }
    }

    /// Returns `true` if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.bit_len() == 0
    }

    /// Starts reading this buffer from the beginning.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            words: self.words(),
            bits: self.bit_len(),
            pos: 0,
        }
    }

    /// The used words: `⌈bit_len / 64⌉` of them.
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { words, bits } => &words[..(*bits as usize).div_ceil(64)],
            Repr::Spilled { words, .. } => words,
        }
    }

    /// Appends the low `width` bits of `value` (`1 ≤ width ≤ 64`, no bits
    /// above `width`), moving the words to the heap when the string
    /// outgrows [`INLINE_BITS`].
    fn push(&mut self, value: u64, width: u32) {
        let at = self.bit_len();
        let end = at + width as usize;
        if let Repr::Inline { words, .. } = &self.repr {
            if end > INLINE_BITS {
                let words = words[..at.div_ceil(64)].to_vec();
                self.repr = Repr::Spilled { words, bits: at };
            }
        }
        let words = match &mut self.repr {
            Repr::Inline { words, bits } => {
                *bits = end as u16;
                &mut words[..]
            }
            Repr::Spilled { words, bits } => {
                *bits = end;
                words.resize(end.div_ceil(64), 0);
                &mut words[..]
            }
        };
        let (idx, shift) = (at / 64, at % 64);
        words[idx] |= value << shift;
        if shift + width as usize > 64 {
            words[idx + 1] |= value >> (64 - shift);
        }
    }
}

impl Default for BitBuf {
    fn default() -> Self {
        BitBuf::new()
    }
}

impl PartialEq for BitBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bit_len() == other.bit_len() && self.words() == other.words()
    }
}

impl Eq for BitBuf {}

impl Hash for BitBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bit_len().hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for BitBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitBuf({} bits)", self.bit_len())
    }
}

/// Incrementally builds a [`BitBuf`].
///
/// # Examples
///
/// ```
/// use bc_numeric::bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.push(0b101, 3);
/// w.push(42, 17);
/// let buf = w.finish();
/// assert_eq!(buf.bit_len(), 20);
/// let mut r = buf.reader();
/// assert_eq!(r.read(3), 0b101);
/// assert_eq!(r.read(17), 42);
/// ```
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: BitBuf,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `width` bits of `value` (most-significant-first order
    /// is *not* used; bits are stored LSB-first which round-trips with
    /// [`BitReader::read`]).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits above `width`.
    pub fn push(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "bit field wider than 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        self.buf.push(value, width);
    }

    /// Appends a single boolean bit.
    pub fn push_bool(&mut self, b: bool) {
        self.push(b as u64, 1);
    }

    /// Finalizes into an immutable [`BitBuf`].
    pub fn finish(self) -> BitBuf {
        self.buf
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.bit_len()
    }
}

/// Sequential reader over a [`BitBuf`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    bits: usize,
    pos: usize,
}

impl BitReader<'_> {
    /// Reads the next `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` bits remain or `width > 64`.
    pub fn read(&mut self, width: u32) -> u64 {
        assert!(width <= 64, "bit field wider than 64");
        assert!(
            self.pos + width as usize <= self.bits,
            "BitReader overrun: reading {width} bits at position {} of {}",
            self.pos,
            self.bits
        );
        if width == 0 {
            return 0;
        }
        let word_idx = self.pos / 64;
        let bit_pos = (self.pos % 64) as u32;
        let lo = self.words[word_idx] >> bit_pos;
        let avail = 64 - bit_pos;
        let v = if width <= avail {
            if width == 64 {
                lo
            } else {
                lo & ((1u64 << width) - 1)
            }
        } else {
            let hi = self.words[word_idx + 1] << avail;
            (lo | hi)
                & if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                }
        };
        self.pos += width as usize;
        v
    }

    /// Reads a single boolean bit.
    pub fn read_bool(&mut self) -> bool {
        self.read(1) == 1
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits - self.pos
    }
}

/// Number of bits needed to address values in `0..n` (at least 1).
///
/// This is the `O(log N)` node-identifier width of the CONGEST model.
///
/// ```
/// use bc_numeric::bits::id_bits;
/// assert_eq!(id_bits(1), 1);
/// assert_eq!(id_bits(2), 1);
/// assert_eq!(id_bits(5), 3);
/// assert_eq!(id_bits(1024), 10);
/// ```
pub fn id_bits(n: usize) -> u32 {
    if n <= 2 {
        1
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buf() {
        let b = BitBuf::new();
        assert!(b.is_empty());
        assert_eq!(b.bit_len(), 0);
        assert_eq!(b.reader().remaining(), 0);
    }

    #[test]
    fn single_field_roundtrip() {
        for width in 1..=64u32 {
            let value = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let mut w = BitWriter::new();
            w.push(value, width);
            let buf = w.finish();
            assert_eq!(buf.bit_len(), width as usize);
            assert_eq!(buf.reader().read(width), value);
        }
    }

    #[test]
    fn unaligned_spill_across_words() {
        let mut w = BitWriter::new();
        w.push(0x7, 3);
        w.push(0xDEAD_BEEF_CAFE_F00D & ((1 << 62) - 1), 62);
        w.push(0x3FF, 10);
        let buf = w.finish();
        let mut r = buf.reader();
        assert_eq!(r.read(3), 0x7);
        assert_eq!(r.read(62), 0xDEAD_BEEF_CAFE_F00D & ((1 << 62) - 1));
        assert_eq!(r.read(10), 0x3FF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn many_small_fields() {
        let mut w = BitWriter::new();
        for i in 0..1000u64 {
            w.push(i % 8, 3);
        }
        let buf = w.finish();
        assert_eq!(buf.bit_len(), 3000);
        let mut r = buf.reader();
        for i in 0..1000u64 {
            assert_eq!(r.read(3), i % 8);
        }
    }

    #[test]
    fn bools() {
        let mut w = BitWriter::new();
        w.push_bool(true);
        w.push_bool(false);
        w.push_bool(true);
        let buf = w.finish();
        let mut r = buf.reader();
        assert!(r.read_bool());
        assert!(!r.read_bool());
        assert!(r.read_bool());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_oversized_value_panics() {
        let mut w = BitWriter::new();
        w.push(8, 3);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn read_overrun_panics() {
        let mut w = BitWriter::new();
        w.push(1, 1);
        let buf = w.finish();
        let mut r = buf.reader();
        let _ = r.read(2);
    }

    #[test]
    fn zero_width_noop() {
        let mut w = BitWriter::new();
        w.push(0, 0);
        let buf = w.finish();
        assert!(buf.is_empty());
        assert_eq!(buf.reader().read(0), 0);
    }

    fn ones(bits: usize) -> BitBuf {
        let mut w = BitWriter::new();
        for _ in 0..bits {
            w.push_bool(true);
        }
        w.finish()
    }

    fn hash_of(b: &BitBuf) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_capacity_edge_and_spill() {
        // Four inline words plus one word for the length and the tag.
        assert_eq!(std::mem::size_of::<BitBuf>(), 5 * 8);
        let full = ones(INLINE_BITS);
        assert!(matches!(full.repr, Repr::Inline { .. }));
        let mut r = full.reader();
        for _ in 0..INLINE_WORDS {
            assert_eq!(r.read(64), u64::MAX);
        }
        assert_eq!(r.remaining(), 0);

        let over = ones(INLINE_BITS + 1);
        assert!(matches!(over.repr, Repr::Spilled { .. }));
        let mut r = over.reader();
        for _ in 0..INLINE_WORDS {
            assert_eq!(r.read(64), u64::MAX);
        }
        assert!(r.read_bool());
        assert_eq!(r.remaining(), 0);
        assert_eq!(over.clone(), over);
        assert_ne!(over, full);
    }

    #[test]
    fn equality_and_hash_follow_content_not_construction() {
        for bits in [0, 1, 63, 64, 65, 200, INLINE_BITS, INLINE_BITS + 1, 700] {
            // Bit by bit versus whole words plus a tail.
            let a = ones(bits);
            let mut w = BitWriter::new();
            for _ in 0..bits / 64 {
                w.push(u64::MAX, 64);
            }
            let tail = (bits % 64) as u32;
            w.push(if tail == 0 { 0 } else { (1 << tail) - 1 }, tail);
            let b = w.finish();
            assert_eq!(a, b, "{bits} bits");
            assert_eq!(hash_of(&a), hash_of(&b), "{bits} bits");
            assert_eq!(a.clone(), b);
        }
        // Same length, different content; same content prefix, different
        // length.
        let mut w = BitWriter::new();
        w.push(0b10, 2);
        let x = w.finish();
        assert_ne!(x, ones(2));
        assert_ne!(ones(3), ones(2));
        assert_eq!(BitBuf::default(), BitBuf::new());
    }

    #[test]
    fn id_bits_values() {
        assert_eq!(id_bits(0), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(4), 2);
        assert_eq!(id_bits(1_000_000), 20);
    }
}
