//! Receptionist-side caching with epoch-based invalidation.
//!
//! Three caches sit in front of the fleet, all behind one
//! [`CacheConfig`] and all **off by default** (see
//! [`Receptionist::enable_cache`]):
//!
//! * an LRU **result cache** keyed by the normalized query, the
//!   methodology, `k` and the completion policy (strict, or degraded
//!   under a `min_answered`), storing the merged ranking with its
//!   [`Coverage`];
//! * a **term-statistics cache** that remembers global document
//!   frequencies so CV query weighting skips the merged-vocabulary
//!   probe on hot terms;
//! * an **answer-document cache** for the fetch phase, bounded by
//!   *bytes* rather than entries, since answer documents vary in size
//!   by orders of magnitude.
//!
//! # Invalidation
//!
//! Correctness is generational. Librarians report an index epoch in
//! every rank/score reply and in `StatsReply`; the receptionist folds
//! those observations — plus the shape of the failed-librarian set —
//! into [`CacheState`], which bumps a single *fleet generation*
//! whenever anything moves. Every cached entry records the generation
//! it was inserted under; a lookup that finds an entry from an older
//! generation drops it lazily and reports [`Lookup::Stale`]. There is
//! no eager sweep: stale entries cost nothing until touched, then one
//! map removal.
//!
//! Entries produced under degraded coverage (their [`Coverage`] lists a
//! failed librarian) are additionally never served once the fleet is
//! healthy again (the generation bump on any failed-set change already
//! guarantees this; the check is a second, local line of defence).
//!
//! # Determinism
//!
//! Everything here is deterministic: recency is a monotone tick
//! counter and eviction removes the strictly least-recently-used
//! entry, whatever order the map iterates in. A cached answer replays the exact bytes the fleet produced,
//! so cached and cache-free receptionists return byte-identical
//! rankings — the property `tests/cache_transparency.rs` proves.
//!
//! [`Receptionist::enable_cache`]: crate::Receptionist::enable_cache
//! [`Coverage`]: crate::Coverage

use crate::receptionist::RankedAnswer;
use std::collections::HashMap;
use std::hash::Hash;
use teraphim_index::DocId;

/// Capacity knobs for the receptionist caches. A capacity of zero
/// disables that cache entirely (lookups are constant-time misses and
/// inserts are no-ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Merged-ranking entries in the result cache.
    pub result_entries: usize,
    /// Entries in the term-statistics cache.
    pub term_entries: usize,
    /// Byte budget for the answer-document cache.
    pub doc_bytes: usize,
}

impl Default for CacheConfig {
    /// Small but useful defaults: 256 rankings, 1024
    /// term statistics, 1 MiB of answer documents.
    fn default() -> Self {
        CacheConfig {
            result_entries: 256,
            term_entries: 1024,
            doc_bytes: 1 << 20,
        }
    }
}

impl CacheConfig {
    /// Every cache disabled; useful as a differential-testing control.
    #[must_use]
    pub fn disabled() -> Self {
        CacheConfig {
            result_entries: 0,
            term_entries: 0,
            doc_bytes: 0,
        }
    }
}

/// The outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup<T> {
    /// A current-generation entry was found.
    Hit(T),
    /// Nothing cached under the key.
    Miss,
    /// An entry existed but belonged to an invalidated generation (or
    /// violated the degraded-serving rule) and was dropped.
    Stale,
}

impl<T> Lookup<T> {
    /// Maps the payload of a `Hit`, preserving `Miss`/`Stale`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Lookup<U> {
        match self {
            Lookup::Hit(v) => Lookup::Hit(f(v)),
            Lookup::Miss => Lookup::Miss,
            Lookup::Stale => Lookup::Stale,
        }
    }
}

/// Key of one result-cache entry: everything that determines the bytes
/// of a merged ranking besides the index contents themselves.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Normalized query: analyzed `(term, f_qt)` pairs, sorted.
    pub terms: Vec<(String, u32)>,
    /// Methodology code (`"MS"`, `"CN"`, `"CV"`, `"CI"`).
    pub code: &'static str,
    /// Requested answer size.
    pub k: usize,
    /// Completion policy in force: `None` for strict `query` (every
    /// contacted librarian must answer), `Some(min_answered)` for
    /// `query_with_coverage` under that degradation policy. The two key
    /// spaces are disjoint for every `min_answered`, zero included.
    pub min_answered: Option<usize>,
}

/// Key of one answer-document cache entry: owning librarian, local
/// document id, and whether the body was fetched `plain`.
pub type DocKey = (usize, DocId, bool);

/// Per-cache hit/miss/stale/eviction tallies, mirrored locally so
/// `cache_stats` works without a metrics registry attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing usable (stale drops included).
    pub misses: u64,
    /// The subset of misses that dropped an invalidated entry.
    pub stale: u64,
    /// Entries evicted to make room for inserts.
    pub evictions: u64,
}

/// A point-in-time view of the receptionist caches, from
/// [`Receptionist::cache_stats`].
///
/// [`Receptionist::cache_stats`]: crate::Receptionist::cache_stats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Current fleet generation (bumps invalidate everything older).
    pub generation: u64,
    /// Result-cache counters.
    pub results: CacheCounters,
    /// Term-statistics cache counters.
    pub terms: CacheCounters,
    /// Answer-document cache counters.
    pub docs: CacheCounters,
    /// Rankings currently cached.
    pub result_entries: usize,
    /// Term statistics currently cached.
    pub term_entries: usize,
    /// Bytes currently held by the answer-document cache.
    pub doc_bytes_used: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    generation: u64,
    /// Monotone recency stamp; larger is more recent. Unique per
    /// cache, so least-recently-used is always strict.
    tick: u64,
}

/// A generation-aware LRU map bounded by total *weight* (bytes, for the
/// answer-document cache). Entries heavier than the whole budget are
/// refused outright rather than flushing everything else.
///
/// Recency is a monotone tick; eviction removes the entry with the
/// smallest tick, which is unique, so eviction order is deterministic
/// regardless of `HashMap` iteration order. This is the one LRU in the
/// module: [`LruCache`] is the same map with every entry weighing one.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    map: HashMap<K, (Entry<V>, usize)>,
    budget: usize,
    used: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> ByteLru<K, V> {
    /// A byte-bounded LRU with the given budget (0 disables it).
    #[must_use]
    pub fn new(budget: usize) -> Self {
        ByteLru {
            map: HashMap::new(),
            budget,
            used: 0,
            tick: 0,
        }
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently charged against the budget.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used
    }

    /// Probes `key` against `generation`. A current-generation entry
    /// is freshened and returned; an older one is dropped lazily.
    pub fn get(&mut self, key: &K, generation: u64) -> Lookup<&V> {
        if self.budget == 0 {
            return Lookup::Miss;
        }
        match self.map.get_mut(key) {
            Some((entry, _)) if entry.generation == generation => {
                self.tick += 1;
                entry.tick = self.tick;
                Lookup::Hit(&self.map[key].0.value)
            }
            Some(_) => {
                if let Some((_, weight)) = self.map.remove(key) {
                    self.used -= weight;
                }
                Lookup::Stale
            }
            None => Lookup::Miss,
        }
    }

    /// Inserts `key` charging `weight` bytes, evicting
    /// least-recently-used entries until the budget holds. Oversized
    /// values (`weight > budget`) are not cached at all. Returns how
    /// many entries were evicted.
    pub fn insert(&mut self, key: K, value: V, weight: usize, generation: u64) -> u64 {
        if self.budget == 0 || weight > self.budget {
            return 0;
        }
        self.tick += 1;
        if let Some((_, old_weight)) = self.map.insert(
            key,
            (
                Entry {
                    value,
                    generation,
                    tick: self.tick,
                },
                weight,
            ),
        ) {
            self.used -= old_weight;
        }
        self.used += weight;
        let mut evicted = 0;
        while self.used > self.budget {
            self.evict_lru();
            evicted += 1;
        }
        evicted
    }

    fn evict_lru(&mut self) {
        if let Some(key) = self
            .map
            .iter()
            .min_by_key(|(_, (e, _))| e.tick)
            .map(|(k, _)| k.clone())
        {
            if let Some((_, weight)) = self.map.remove(&key) {
                self.used -= weight;
            }
        }
    }
}

/// A generation-aware LRU map bounded by entry count: a [`ByteLru`]
/// whose entries all weigh one, so its budget is a capacity and strict
/// least-recently-used eviction is the same loop.
#[derive(Debug)]
pub struct LruCache<K, V>(ByteLru<K, V>);

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An LRU holding at most `capacity` entries (0 disables it).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache(ByteLru::new(capacity))
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Probes `key` against `generation`; same contract as
    /// [`ByteLru::get`].
    pub fn get(&mut self, key: &K, generation: u64) -> Lookup<&V> {
        self.0.get(key, generation)
    }

    /// Inserts (or replaces) `key` under `generation`, evicting
    /// least-recently-used entries to respect capacity. Returns how
    /// many entries were evicted.
    pub fn insert(&mut self, key: K, value: V, generation: u64) -> u64 {
        self.0.insert(key, value, 1, generation)
    }
}

/// All receptionist cache state: the three caches plus the
/// invalidation inputs they are validated against.
#[derive(Debug)]
pub struct CacheState {
    config: CacheConfig,
    /// The fleet generation. Bumped whenever any librarian's epoch
    /// moves, the failed-librarian set changes shape, or global state
    /// is rebuilt (`enable_cv` / `enable_ci`).
    generation: u64,
    /// Last index epoch observed per librarian (grows on demand).
    lib_epochs: Vec<u64>,
    /// The failed-librarian set as of the last observation, sorted.
    failed: Vec<usize>,
    /// Merged rankings.
    pub(crate) results: LruCache<ResultKey, RankedAnswer>,
    /// Global document frequency per term (`None` = not in the merged
    /// vocabulary — negative knowledge is cacheable too).
    pub(crate) terms: LruCache<String, Option<u64>>,
    /// Answer-document bodies: `(docno, body bytes)`.
    pub(crate) docs: ByteLru<DocKey, (String, Vec<u8>)>,
    /// Local counter mirrors, per cache kind.
    pub(crate) results_counters: CacheCounters,
    pub(crate) terms_counters: CacheCounters,
    pub(crate) docs_counters: CacheCounters,
}

impl CacheState {
    /// Fresh caches at generation 0 with nothing observed yet.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        CacheState {
            config,
            generation: 0,
            lib_epochs: Vec::new(),
            failed: Vec::new(),
            results: LruCache::new(config.result_entries),
            terms: LruCache::new(config.term_entries),
            docs: ByteLru::new(config.doc_bytes),
            results_counters: CacheCounters::default(),
            terms_counters: CacheCounters::default(),
            docs_counters: CacheCounters::default(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The current fleet generation.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True while at least one librarian is known to be failed.
    #[must_use]
    pub fn fleet_degraded(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Invalidates everything cached so far (lazily): entries from
    /// older generations are dropped as they are touched.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Folds one librarian's self-reported index epoch into the state;
    /// any movement bumps the fleet generation.
    pub fn observe_epoch(&mut self, librarian: usize, epoch: u64) {
        if self.lib_epochs.len() <= librarian {
            self.lib_epochs.resize(librarian + 1, 0);
        }
        if self.lib_epochs[librarian] != epoch {
            self.lib_epochs[librarian] = epoch;
            self.bump_generation();
        }
    }

    /// Folds the current failed-librarian set into the state; any
    /// change of shape — degradation, recovery, or a different set of
    /// casualties — bumps the fleet generation.
    pub fn observe_failed(&mut self, failed: &[usize]) {
        let mut sorted = failed.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted != self.failed {
            self.failed = sorted;
            self.bump_generation();
        }
    }

    /// Probes the result cache. Degraded entries are served only while
    /// the fleet is still degraded (strict entries never are degraded:
    /// a strict query only succeeds at full coverage).
    pub fn lookup_result(&mut self, key: &ResultKey) -> Lookup<RankedAnswer> {
        let degraded_now = self.fleet_degraded();
        let outcome = match self.results.get(key, self.generation) {
            Lookup::Hit(entry) if !entry.coverage.is_degraded() || degraded_now => {
                Lookup::Hit(entry.clone())
            }
            Lookup::Hit(_) | Lookup::Miss => Lookup::Miss,
            Lookup::Stale => Lookup::Stale,
        };
        match outcome {
            Lookup::Hit(_) => self.results_counters.hits += 1,
            Lookup::Miss => self.results_counters.misses += 1,
            Lookup::Stale => {
                self.results_counters.misses += 1;
                self.results_counters.stale += 1;
            }
        }
        outcome
    }

    /// Caches a merged ranking under the current generation. Returns
    /// entries evicted to make room.
    pub fn insert_result(&mut self, key: ResultKey, answer: RankedAnswer) -> u64 {
        let evicted = self.results.insert(key, answer, self.generation);
        self.results_counters.evictions += evicted;
        evicted
    }

    /// Probes the term-statistics cache for a global document
    /// frequency (`Hit(None)` means the term is known to be absent
    /// from the merged vocabulary).
    pub fn lookup_term(&mut self, term: &str) -> Lookup<Option<u64>> {
        let outcome = match self.terms.get(&term.to_owned(), self.generation) {
            Lookup::Hit(v) => Lookup::Hit(*v),
            Lookup::Miss => Lookup::Miss,
            Lookup::Stale => Lookup::Stale,
        };
        match outcome {
            Lookup::Hit(_) => self.terms_counters.hits += 1,
            Lookup::Miss => self.terms_counters.misses += 1,
            Lookup::Stale => {
                self.terms_counters.misses += 1;
                self.terms_counters.stale += 1;
            }
        }
        outcome
    }

    /// Caches a term's global document frequency (or its absence).
    pub fn insert_term(&mut self, term: String, doc_freq: Option<u64>) -> u64 {
        let evicted = self.terms.insert(term, doc_freq, self.generation);
        self.terms_counters.evictions += evicted;
        evicted
    }

    /// Probes the answer-document cache.
    pub fn lookup_doc(&mut self, key: &DocKey) -> Lookup<(String, Vec<u8>)> {
        let outcome = match self.docs.get(key, self.generation) {
            Lookup::Hit(v) => Lookup::Hit(v.clone()),
            Lookup::Miss => Lookup::Miss,
            Lookup::Stale => Lookup::Stale,
        };
        match outcome {
            Lookup::Hit(_) => self.docs_counters.hits += 1,
            Lookup::Miss => self.docs_counters.misses += 1,
            Lookup::Stale => {
                self.docs_counters.misses += 1;
                self.docs_counters.stale += 1;
            }
        }
        outcome
    }

    /// Caches one answer document's identifier and body bytes, charged
    /// at body + docno + a small fixed overhead.
    pub fn insert_doc(&mut self, key: DocKey, docno: String, body: Vec<u8>) -> u64 {
        let weight = body.len() + docno.len() + 16;
        let evicted = self
            .docs
            .insert(key, (docno, body), weight, self.generation);
        self.docs_counters.evictions += evicted;
        evicted
    }

    /// Snapshot of counters, occupancy and the current generation.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            generation: self.generation,
            results: self.results_counters,
            terms: self.terms_counters,
            docs: self.docs_counters,
            result_entries: self.results.len(),
            term_entries: self.terms.len(),
            doc_bytes_used: self.docs.used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receptionist::{Coverage, GlobalHit};

    #[test]
    fn capacity_one_thrashes_deterministically() {
        let mut lru: LruCache<&str, u32> = LruCache::new(1);
        assert_eq!(lru.insert("a", 1, 0), 0);
        assert_eq!(lru.insert("b", 2, 0), 1, "a must be evicted");
        assert_eq!(lru.get(&"a", 0), Lookup::Miss);
        assert_eq!(lru.get(&"b", 0), Lookup::Hit(&2));
        assert_eq!(lru.insert("c", 3, 0), 1, "b must be evicted");
        assert_eq!(lru.get(&"b", 0), Lookup::Miss);
        assert_eq!(lru.get(&"c", 0), Lookup::Hit(&3));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn zero_capacity_is_a_disabled_fast_path() {
        let mut lru: LruCache<&str, u32> = LruCache::new(0);
        assert_eq!(lru.insert("a", 1, 0), 0);
        assert_eq!(lru.get(&"a", 0), Lookup::Miss);
        assert!(lru.is_empty());
        let mut bytes: ByteLru<&str, Vec<u8>> = ByteLru::new(0);
        assert_eq!(bytes.insert("a", vec![1], 1, 0), 0);
        assert_eq!(bytes.get(&"a", 0), Lookup::Miss);
        assert!(bytes.is_empty());
    }

    #[test]
    fn eviction_follows_recency_after_mixed_hits() {
        let mut lru: LruCache<&str, u32> = LruCache::new(3);
        lru.insert("a", 1, 0);
        lru.insert("b", 2, 0);
        lru.insert("c", 3, 0);
        // Touch "a": it is now the most recent; "b" is the oldest.
        assert_eq!(lru.get(&"a", 0), Lookup::Hit(&1));
        assert_eq!(lru.insert("d", 4, 0), 1);
        assert_eq!(lru.get(&"b", 0), Lookup::Miss, "b was least recent");
        assert_eq!(lru.get(&"a", 0), Lookup::Hit(&1));
        assert_eq!(lru.get(&"c", 0), Lookup::Hit(&3));
        assert_eq!(lru.get(&"d", 0), Lookup::Hit(&4));
    }

    #[test]
    fn stale_generations_drop_lazily() {
        let mut lru: LruCache<&str, u32> = LruCache::new(4);
        lru.insert("a", 1, 0);
        lru.insert("b", 2, 0);
        // Generation moves on; nothing is swept eagerly.
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"a", 1), Lookup::Stale);
        assert_eq!(lru.len(), 1, "only the touched entry was dropped");
        assert_eq!(lru.get(&"a", 1), Lookup::Miss, "stale reported once");
        assert_eq!(lru.get(&"b", 1), Lookup::Stale);
        assert!(lru.is_empty());
    }

    #[test]
    fn byte_budget_evicts_by_recency_and_skips_oversized() {
        let mut docs: ByteLru<u32, Vec<u8>> = ByteLru::new(100);
        assert_eq!(docs.insert(1, vec![0; 40], 40, 0), 0);
        assert_eq!(docs.insert(2, vec![0; 40], 40, 0), 0);
        // Touch 1 so 2 becomes the eviction victim.
        assert_eq!(docs.get(&1, 0), Lookup::Hit(&vec![0u8; 40]));
        assert_eq!(docs.insert(3, vec![0; 40], 40, 0), 1);
        assert_eq!(docs.get(&2, 0), Lookup::Miss);
        assert_eq!(docs.used(), 80);
        // An entry heavier than the whole budget is refused, leaving
        // the cache untouched.
        assert_eq!(docs.insert(4, vec![0; 200], 200, 0), 0);
        assert_eq!(docs.get(&4, 0), Lookup::Miss);
        assert_eq!(docs.used(), 80);
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn byte_budget_replacing_a_key_recharges_its_weight() {
        let mut docs: ByteLru<u32, Vec<u8>> = ByteLru::new(100);
        docs.insert(1, vec![0; 60], 60, 0);
        docs.insert(1, vec![0; 30], 30, 0);
        assert_eq!(docs.used(), 30);
        assert_eq!(docs.len(), 1);
    }

    fn key(q: &str, min_answered: Option<usize>) -> ResultKey {
        ResultKey {
            terms: vec![(q.to_owned(), 1)],
            code: "CN",
            k: 10,
            min_answered,
        }
    }

    fn answer(doc: DocId, degraded: bool) -> RankedAnswer {
        RankedAnswer {
            hits: vec![GlobalHit {
                librarian: 0,
                doc,
                score: 0.5,
            }],
            coverage: Coverage {
                answered: vec![0],
                failed: if degraded { vec![1] } else { vec![] },
                docs_fraction: None,
            },
        }
    }

    #[test]
    fn epoch_movement_bumps_the_generation_once_per_change() {
        let mut state = CacheState::new(CacheConfig::default());
        assert_eq!(state.generation(), 0);
        state.observe_epoch(0, 0);
        state.observe_epoch(3, 0);
        assert_eq!(state.generation(), 0, "epoch 0 is the baseline");
        state.observe_epoch(1, 1);
        assert_eq!(state.generation(), 1);
        state.observe_epoch(1, 1);
        assert_eq!(state.generation(), 1, "unchanged epoch is quiet");
        state.observe_epoch(1, 2);
        assert_eq!(state.generation(), 2);
    }

    #[test]
    fn failed_set_changes_bump_in_both_directions() {
        let mut state = CacheState::new(CacheConfig::default());
        state.observe_failed(&[]);
        assert_eq!(state.generation(), 0);
        state.observe_failed(&[2, 1]);
        assert_eq!(state.generation(), 1);
        assert!(state.fleet_degraded());
        state.observe_failed(&[1, 2]);
        assert_eq!(state.generation(), 1, "same set, different order");
        state.observe_failed(&[1]);
        assert_eq!(state.generation(), 2, "partial recovery still a change");
        state.observe_failed(&[]);
        assert_eq!(state.generation(), 3, "full recovery invalidates too");
        assert!(!state.fleet_degraded());
    }

    #[test]
    fn generation_bump_invalidates_results_lazily() {
        let mut state = CacheState::new(CacheConfig::default());
        state.insert_result(key("q", None), answer(1, false));
        assert!(matches!(
            state.lookup_result(&key("q", None)),
            Lookup::Hit(_)
        ));
        state.observe_epoch(0, 1);
        assert_eq!(state.lookup_result(&key("q", None)), Lookup::Stale);
        assert_eq!(state.lookup_result(&key("q", None)), Lookup::Miss);
        let stats = state.stats();
        assert_eq!(stats.results.hits, 1);
        assert_eq!(stats.results.misses, 2);
        assert_eq!(stats.results.stale, 1);
    }

    #[test]
    fn strict_and_degraded_key_spaces_never_collide() {
        let mut state = CacheState::new(CacheConfig::default());
        // Even `min_answered: 0` — which `set_degrade_policy` accepts —
        // is a different key from the strict one: both entries coexist
        // and each lookup is served its own.
        state.insert_result(key("q", None), answer(1, false));
        state.insert_result(key("q", Some(0)), answer(2, false));
        assert_eq!(state.stats().result_entries, 2);
        assert_eq!(
            state.lookup_result(&key("q", None)),
            Lookup::Hit(answer(1, false))
        );
        assert_eq!(
            state.lookup_result(&key("q", Some(0))),
            Lookup::Hit(answer(2, false))
        );
        assert_eq!(state.lookup_result(&key("q", Some(1))), Lookup::Miss);
    }

    #[test]
    fn degraded_entries_never_serve_a_healthy_fleet() {
        let mut state = CacheState::new(CacheConfig::default());
        state.observe_failed(&[1]);
        state.insert_result(key("q", Some(1)), answer(1, true));
        // While degraded, the entry serves coverage lookups.
        assert!(matches!(
            state.lookup_result(&key("q", Some(1))),
            Lookup::Hit(_)
        ));
        // Strict queries never see it.
        assert_eq!(state.lookup_result(&key("q", None)), Lookup::Miss);
        // Recovery bumps the generation, so the entry is stale.
        state.observe_failed(&[]);
        assert_eq!(state.lookup_result(&key("q", Some(1))), Lookup::Stale);
        // Second line of defence: even stamped with the current
        // generation, a degraded entry does not serve a healthy fleet.
        state.insert_result(key("q", Some(1)), answer(1, true));
        assert_eq!(state.lookup_result(&key("q", Some(1))), Lookup::Miss);
    }

    #[test]
    fn term_cache_remembers_absence() {
        let mut state = CacheState::new(CacheConfig::default());
        assert_eq!(state.lookup_term("zebra"), Lookup::Miss);
        state.insert_term("zebra".to_owned(), None);
        assert_eq!(state.lookup_term("zebra"), Lookup::Hit(None));
        state.insert_term("cat".to_owned(), Some(7));
        assert_eq!(state.lookup_term("cat"), Lookup::Hit(Some(7)));
        state.bump_generation();
        assert_eq!(state.lookup_term("cat"), Lookup::Stale);
    }

    #[test]
    fn doc_cache_round_trips_bodies_and_counts_bytes() {
        let mut state = CacheState::new(CacheConfig::default());
        let key: DocKey = (2, 7, false);
        assert_eq!(state.lookup_doc(&key), Lookup::Miss);
        state.insert_doc(key, "DOC-7".to_owned(), vec![1, 2, 3]);
        assert_eq!(
            state.lookup_doc(&key),
            Lookup::Hit(("DOC-7".to_owned(), vec![1, 2, 3]))
        );
        let stats = state.stats();
        assert_eq!(stats.doc_bytes_used, 3 + 5 + 16);
        assert_eq!(stats.docs.hits, 1);
        assert_eq!(stats.docs.misses, 1);
    }

    #[test]
    fn disabled_config_never_caches_anything() {
        let mut state = CacheState::new(CacheConfig::disabled());
        state.insert_result(key("q", None), answer(1, false));
        assert_eq!(state.lookup_result(&key("q", None)), Lookup::Miss);
        state.insert_term("cat".to_owned(), Some(1));
        assert_eq!(state.lookup_term("cat"), Lookup::Miss);
        state.insert_doc((0, 0, false), "D".to_owned(), vec![0]);
        assert_eq!(state.lookup_doc(&(0, 0, false)), Lookup::Miss);
    }
}
