//! An interning string dictionary: dense `u32` ids in insertion order.
//!
//! A shard of the paper's 43-way split holds two of these per token
//! class of its text model and one for its index vocabulary, tens of
//! thousands of short strings each. Holding every string on the heap
//! twice — once in an id-ordered `Vec<String>`, once as a hash-map key —
//! costs more than the strings themselves. A [`Dictionary`] instead keeps
//! the bytes of all its strings back to back in one arena, one `u32` end
//! offset per id, and an open-addressed table of ids under a fixed
//! in-crate hash: three allocations however many strings it holds, and a
//! clone is three copies. Each slot of the table carries 32 bits of its
//! string's hash beside the id, so a probe past another string's slot,
//! and a lookup of an absent string, reads neither the offsets nor the
//! arena.
//!
//! The hash is fixed, not seeded per process: the same strings always
//! land in the same slots. The price is that strings crafted to collide
//! (documents an adversary writes) make interning them quadratic; the
//! collections this workspace indexes are its own.
//!
//! # Examples
//!
//! ```
//! use teraphim_compress::dict::Dictionary;
//!
//! let mut dict = Dictionary::new();
//! assert_eq!(dict.intern("gamma"), 0);
//! assert_eq!(dict.intern("delta"), 1);
//! assert_eq!(dict.intern("gamma"), 0);
//! assert_eq!(dict.term_id("delta"), Some(1));
//! assert_eq!(dict.term(1), "delta");
//! assert_eq!(dict.term_id("omega"), None);
//! ```

/// A free slot of the table. A taken one holds 32 bits of its string's
/// hash (its tag) above its id plus one.
const FREE: u64 = 0;

/// A set of strings, each with a dense id assigned in first-interned
/// order.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// The strings in id order, back to back.
    text: String,
    /// `ends[id]` is one past string `id`'s last byte in `text`; it
    /// starts where string `id - 1` ends.
    ends: Vec<u32>,
    /// Tagged ids under linear probing from each string's hash; a power
    /// of two long and at most three quarters full, or empty while the
    /// dictionary is.
    slots: Vec<u64>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with room for `strings` strings of
    /// `bytes` bytes in all.
    pub fn with_capacity(strings: usize, bytes: usize) -> Self {
        Dictionary {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(strings),
            slots: vec![FREE; table_len(strings)],
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Returns the id of `term`, adding it with the next id if new.
    ///
    /// # Panics
    ///
    /// Panics if the strings would exceed 4 GiB in all, or their number
    /// `u32::MAX`.
    pub fn intern(&mut self, term: &str) -> u32 {
        let hash = hash(term.as_bytes());
        let slot = match self.find(term, hash) {
            Ok(id) => return id,
            Err(slot) if table_len(self.len() + 1) <= self.slots.len() => slot,
            Err(_) => {
                self.grow();
                self.find(term, hash).expect_err("absent before growing")
            }
        };
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("too many dictionary strings");
        self.text.push_str(term);
        let end = u32::try_from(self.text.len()).expect("dictionary text exceeds 4 GiB");
        self.ends.push(end);
        self.slots[slot] = entry(hash, id);
        id
    }

    /// Returns the id of `term` if present.
    pub fn term_id(&self, term: &str) -> Option<u32> {
        self.find(term, hash(term.as_bytes())).ok()
    }

    /// Returns the string with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn term(&self, id: u32) -> &str {
        let (start, end) = self.span(id);
        &self.text[start..end]
    }

    /// Where string `id` lies in the arena.
    fn span(&self, id: u32) -> (usize, usize) {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        (start as usize, self.ends[id] as usize)
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(id, &end)| {
            let term = &self.text[start as usize..end as usize];
            start = end;
            (id as u32, term)
        })
    }

    /// The id of `term` (whose hash is `hash`), or the free slot where
    /// it would go. There is always one: the table is at most three
    /// quarters full.
    fn find(&self, term: &str, hash: u64) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let tag = entry(hash, 0) >> 32;
        let mut slot = home(hash, self.slots.len());
        loop {
            match self.slots[slot] {
                FREE => return Err(slot),
                taken if taken >> 32 == tag => {
                    let id = (taken as u32).wrapping_sub(1);
                    let (start, end) = self.span(id);
                    if self.text.as_bytes()[start..end] == *term.as_bytes() {
                        return Ok(id);
                    }
                }
                _ => {}
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table (or makes the first one) and re-files every id.
    fn grow(&mut self) {
        let len = table_len(self.len() + 1).max(2 * self.slots.len());
        let mut slots = vec![FREE; len];
        for (id, term) in self.iter() {
            let hash = hash(term.as_bytes());
            let mut slot = home(hash, len);
            while slots[slot] != FREE {
                slot = (slot + 1) & (len - 1);
            }
            slots[slot] = entry(hash, id);
        }
        self.slots = slots;
    }
}

/// The smallest table that holds `strings` ids at most three quarters
/// full.
fn table_len(strings: usize) -> usize {
    if strings == 0 {
        0
    } else {
        (strings + strings.div_ceil(3)).next_power_of_two().max(16)
    }
}

/// The slot a string with hash `hash` starts its probe at in a table of
/// `len` (a power of two) slots: the hash's top bits.
fn home(hash: u64, len: usize) -> usize {
    (hash >> (64 - len.trailing_zeros())) as usize
}

/// The taken slot of id `id` for a string with hash `hash`: its tag (the
/// hash's halves folded together, so that it does not repeat the top
/// bits [`home`] already used) above `id + 1`.
fn entry(hash: u64, id: u32) -> u64 {
    ((hash ^ (hash >> 32)) << 32) | (u64::from(id) + 1)
}

/// A fixed multiplicative hash over eight bytes at a time (the mixing
/// step of rustc's `FxHasher`), seeded with the length so that strings
/// differing only in trailing NUL bytes differ. A tail of four to seven
/// bytes is read as two overlapping `u32`s, and a shorter one as its
/// first, middle and last bytes: given the length, both are one-to-one,
/// and neither copies. The final multiply leaves the best-mixed bits on
/// top, which is where [`home`] reads.
fn hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let u32_at = |tail: &[u8], at: usize| {
        u64::from(u32::from_le_bytes(
            tail[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    let mut h = mix(0, bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = mix(h, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    let tail = chunks.remainder();
    let n = tail.len();
    if n >= 4 {
        h = mix(h, u32_at(tail, 0) | u32_at(tail, n - 4) << 32);
    } else if n > 0 {
        let byte = |at: usize| u64::from(tail[at]);
        h = mix(h, byte(0) | byte(n / 2) << 8 | byte(n - 1) << 16);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut d = Dictionary::new();
        for (i, t) in ["b", "a", "", "naïve", "a", "b"].iter().enumerate() {
            let id = d.intern(t);
            assert!(id as usize <= i);
        }
        let all: Vec<(u32, &str)> = d.iter().collect();
        assert_eq!(all, [(0, "b"), (1, "a"), (2, ""), (3, "naïve")]);
    }

    #[test]
    fn an_empty_dictionary_finds_nothing() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.term_id(""), None);
        assert_eq!(d.term_id("x"), None);
        assert_eq!(d.iter().count(), 0);
        let d = Dictionary::with_capacity(0, 0);
        assert_eq!(d.term_id("x"), None);
    }

    #[test]
    fn growing_keeps_every_id() {
        let mut d = Dictionary::with_capacity(3, 8);
        for i in 0..5000u32 {
            assert_eq!(d.intern(&format!("term{i}")), i);
        }
        for i in 0..5000u32 {
            assert_eq!(d.term_id(&format!("term{i}")), Some(i));
            assert_eq!(d.term(i), format!("term{i}"));
        }
        assert!(3 * d.slots.len() >= 4 * d.len());
    }

    #[test]
    fn trailing_nul_bytes_are_distinct_strings() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("ab"), 0);
        assert_eq!(d.intern("ab\0"), 1);
        assert_eq!(d.intern("ab\0\0\0\0\0\0\0"), 2);
        assert_eq!(d.term_id("ab\0"), Some(1));
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::HashMap;

    /// The dictionary a `Vec<String>` and a `HashMap<String, u32>` make.
    #[derive(Default, Clone)]
    struct Oracle {
        terms: Vec<String>,
        lookup: HashMap<String, u32>,
    }

    impl Oracle {
        fn intern(&mut self, term: &str) -> u32 {
            if let Some(&id) = self.lookup.get(term) {
                return id;
            }
            let id = self.terms.len() as u32;
            self.terms.push(term.to_owned());
            self.lookup.insert(term.to_owned(), id);
            id
        }
    }

    fn agree(d: &Dictionary, o: &Oracle) -> Result<(), TestCaseError> {
        prop_assert_eq!(d.len(), o.terms.len());
        let listed: Vec<(u32, String)> = d.iter().map(|(i, t)| (i, t.to_owned())).collect();
        let expected: Vec<(u32, String)> = o
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.clone()))
            .collect();
        prop_assert_eq!(listed, expected);
        for (term, &id) in &o.lookup {
            prop_assert_eq!(d.term_id(term), Some(id));
            prop_assert_eq!(d.term(id), term.as_str());
        }
        Ok(())
    }

    /// Short strings from a small alphabet (so that they repeat), with
    /// the empty string and non-ASCII among them.
    fn terms() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec("[ab\u{e9}\u{65e5}\0]{0,3}[a-c]{0,2}[a-z]{0,1}", 0..300)
    }

    proptest! {
        fn matches_a_vec_and_hash_map(
            first in terms(),
            second in terms(),
            probes in terms(),
        ) {
            let mut d = Dictionary::new();
            let mut o = Oracle::default();
            for t in &first {
                prop_assert_eq!(d.intern(t), o.intern(t));
            }
            agree(&d, &o)?;
            // A clone interns on its own; the original is untouched.
            let (mut dc, mut oc) = (d.clone(), o.clone());
            for t in &second {
                prop_assert_eq!(dc.intern(t), oc.intern(t));
            }
            agree(&dc, &oc)?;
            agree(&d, &o)?;
            for t in probes.iter().chain([String::new()].iter()) {
                prop_assert_eq!(d.term_id(t), o.lookup.get(t.as_str()).copied());
                prop_assert_eq!(dc.term_id(t), oc.lookup.get(t.as_str()).copied());
            }
        }
    }
}
