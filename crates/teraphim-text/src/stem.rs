//! The Porter stemming algorithm (Porter, 1980).
//!
//! This is a faithful implementation of the original five-step algorithm,
//! operating on ASCII lower-case words. Words containing non-ASCII
//! characters, or shorter than three characters, are returned unchanged —
//! the algorithm is defined over English.

/// Stems a single lower-case word into `out` (cleared first; scratch the
/// caller keeps, so that a stem allocates nothing): `caresses` →
/// `caress`, `running` → `run`, `relational` → `relat`, `sky` → `sky`.
/// Its one caller is [`crate::Analyzer::term`].
pub(crate) fn stem(word: &str, out: &mut String) {
    out.clear();
    out.push_str(word);
    if word.len() <= 2
        || !word
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
    {
        return;
    }
    // A stem is never longer than its word, so the buffer never grows.
    let mut s = Stemmer {
        b: std::mem::take(out).into_bytes(),
        k: word.len(),
    };
    s.step1ab();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5();
    s.b.truncate(s.k);
    *out = String::from_utf8(s.b).expect("ascii input stays ascii");
}

struct Stemmer {
    /// Word buffer; only `b[..k]` is live.
    b: Vec<u8>,
    k: usize,
}

impl Stemmer {
    /// True if `b[i]` is a consonant.
    fn cons(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => {
                if i == 0 {
                    true
                } else {
                    !self.cons(i - 1)
                }
            }
            _ => true,
        }
    }

    /// Measure of the stem `b[..j]`: the number of VC sequences.
    fn measure(&self, j: usize) -> usize {
        let mut n = 0;
        let mut i = 0;
        // Skip initial consonants.
        while i < j && self.cons(i) {
            i += 1;
        }
        loop {
            // Skip vowels.
            while i < j && !self.cons(i) {
                i += 1;
            }
            if i >= j {
                return n;
            }
            n += 1;
            // Skip consonants.
            while i < j && self.cons(i) {
                i += 1;
            }
            if i >= j {
                return n;
            }
        }
    }

    /// True if `b[..j]` contains a vowel.
    fn vowel_in_stem(&self, j: usize) -> bool {
        (0..j).any(|i| !self.cons(i))
    }

    /// True if `b[..=j]` ends in a double consonant.
    fn double_cons(&self, j: usize) -> bool {
        j >= 1 && self.b[j] == self.b[j - 1] && self.cons(j)
    }

    /// True if `b[i-2..=i]` is consonant-vowel-consonant and the final
    /// consonant is not w, x or y (the *o rule).
    fn cvc(&self, i: usize) -> bool {
        if i < 2 || !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    /// True if the live word ends with `suffix`.
    fn ends(&self, suffix: &str) -> bool {
        let s = suffix.as_bytes();
        s.len() <= self.k && &self.b[self.k - s.len()..self.k] == s
    }

    /// Length of the stem if `suffix` were removed (caller must have
    /// checked `ends`).
    fn stem_len(&self, suffix: &str) -> usize {
        self.k - suffix.len()
    }

    /// Replaces the current suffix of length `old_len` with `repl`.
    fn set_to(&mut self, old_len: usize, repl: &str) {
        let j = self.k - old_len;
        self.b.truncate(j);
        self.b.extend_from_slice(repl.as_bytes());
        self.k = self.b.len();
    }

    /// If the word ends in `suffix` and m(stem) > `m_min`, replace it with
    /// `repl` and return true.
    fn replace_if_m(&mut self, suffix: &str, repl: &str, m_min: usize) -> bool {
        if self.ends(suffix) {
            let j = self.stem_len(suffix);
            if self.measure(j) > m_min {
                self.set_to(suffix.len(), repl);
            }
            true
        } else {
            false
        }
    }

    /// Step 1a (plurals) and 1b (-ed, -ing).
    fn step1ab(&mut self) {
        // Step 1a.
        if self.ends("sses") {
            self.set_to(4, "ss");
        } else if self.ends("ies") {
            self.set_to(3, "i");
        } else if self.ends("ss") {
            // unchanged
        } else if self.ends("s") {
            self.set_to(1, "");
        }

        // Step 1b.
        if self.ends("eed") {
            let j = self.stem_len("eed");
            if self.measure(j) > 0 {
                self.set_to(3, "ee");
            }
        } else {
            let removed = if self.ends("ed") && self.vowel_in_stem(self.stem_len("ed")) {
                self.set_to(2, "");
                true
            } else if self.ends("ing") && self.vowel_in_stem(self.stem_len("ing")) {
                self.set_to(3, "");
                true
            } else {
                false
            };
            if removed {
                if self.ends("at") || self.ends("bl") || self.ends("iz") {
                    self.b.truncate(self.k);
                    self.b.push(b'e');
                    self.k += 1;
                } else if self.double_cons(self.k - 1)
                    && !matches!(self.b[self.k - 1], b'l' | b's' | b'z')
                {
                    self.k -= 1;
                    self.b.truncate(self.k);
                } else if self.measure(self.k) == 1 && self.cvc(self.k - 1) {
                    self.b.truncate(self.k);
                    self.b.push(b'e');
                    self.k += 1;
                }
            }
        }
    }

    /// Step 1c: terminal y → i when there is another vowel in the stem.
    fn step1c(&mut self) {
        if self.ends("y") && self.vowel_in_stem(self.k - 1) {
            self.b[self.k - 1] = b'i';
        }
    }

    /// Step 2: double-suffix reductions when m > 0.
    fn step2(&mut self) {
        const RULES: &[(&str, &str)] = &[
            ("ational", "ate"),
            ("tional", "tion"),
            ("enci", "ence"),
            ("anci", "ance"),
            ("izer", "ize"),
            ("abli", "able"),
            ("alli", "al"),
            ("entli", "ent"),
            ("eli", "e"),
            ("ousli", "ous"),
            ("ization", "ize"),
            ("ation", "ate"),
            ("ator", "ate"),
            ("alism", "al"),
            ("iveness", "ive"),
            ("fulness", "ful"),
            ("ousness", "ous"),
            ("aliti", "al"),
            ("iviti", "ive"),
            ("biliti", "ble"),
        ];
        for &(suffix, repl) in RULES {
            if self.replace_if_m(suffix, repl, 0) {
                return;
            }
        }
    }

    /// Step 3: -ic-, -full, -ness etc. when m > 0.
    fn step3(&mut self) {
        const RULES: &[(&str, &str)] = &[
            ("icate", "ic"),
            ("ative", ""),
            ("alize", "al"),
            ("iciti", "ic"),
            ("ical", "ic"),
            ("ful", ""),
            ("ness", ""),
        ];
        for &(suffix, repl) in RULES {
            if self.replace_if_m(suffix, repl, 0) {
                return;
            }
        }
    }

    /// Step 4: drop residual suffixes when m > 1.
    fn step4(&mut self) {
        const SUFFIXES: &[&str] = &[
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou",
            "ism", "ate", "iti", "ous", "ive", "ize",
        ];
        // "ion" requires the stem to end in s or t.
        if self.ends("ion") {
            let j = self.stem_len("ion");
            if j >= 1 && matches!(self.b[j - 1], b's' | b't') && self.measure(j) > 1 {
                self.set_to(3, "");
            }
            return;
        }
        for &suffix in SUFFIXES {
            if self.ends(suffix) {
                let j = self.stem_len(suffix);
                if self.measure(j) > 1 {
                    self.set_to(suffix.len(), "");
                }
                return;
            }
        }
    }

    /// Step 5: remove a final -e and reduce -ll when m > 1.
    fn step5(&mut self) {
        // 5a.
        if self.b[self.k - 1] == b'e' {
            let m = self.measure(self.k - 1);
            if m > 1 || (m == 1 && !self.cvc(self.k.saturating_sub(2))) {
                self.k -= 1;
                self.b.truncate(self.k);
            }
        }
        // 5b.
        if self.b[self.k - 1] == b'l' && self.double_cons(self.k - 1) && self.measure(self.k) > 1 {
            self.k -= 1;
            self.b.truncate(self.k);
        }
    }
}

#[cfg(test)]
mod tests {
    /// The stem of `word`, owned.
    pub(super) fn stem(word: &str) -> String {
        let mut out = String::from("scratch from an earlier word");
        super::stem(word, &mut out);
        out
    }

    /// Classic Porter test vectors (from the published algorithm paper and
    /// reference implementation).
    #[test]
    fn porter_reference_vectors() {
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, expected) in cases {
            assert_eq!(stem(input), expected, "stem({input:?})");
        }
    }

    #[test]
    fn short_words_unchanged() {
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("be"), "be");
    }

    #[test]
    fn non_ascii_words_unchanged() {
        assert_eq!(stem("café"), "café");
        assert_eq!(stem("naïve"), "naïve");
    }

    #[test]
    fn digits_pass_through() {
        assert_eq!(stem("1998"), "1998");
        assert_eq!(stem("trec2"), "trec2");
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        for w in [
            "running",
            "libraries",
            "retrieval",
            "distributed",
            "information",
        ] {
            let once = stem(w);
            let twice = stem(&once);
            // Porter is not idempotent in general, but is on these stems.
            assert_eq!(once, twice, "word {w}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::stem;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn never_panics_and_never_grows_much(word in "[a-z]{0,30}") {
            let s = stem(&word);
            // Porter can add at most one character (e restoration).
            prop_assert!(s.len() <= word.len() + 1);
        }

        #[test]
        fn output_stays_ascii_lowercase(word in "[a-z]{3,20}") {
            let s = stem(&word);
            prop_assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
            prop_assert!(!s.is_empty());
        }
    }
}
