//! Sharded LRU plan cache keyed by `(canonical query fingerprint,
//! pipeline/config fingerprint, semantics)`.
//!
//! Two clients submitting the *same query up to a vertex-id permutation*
//! share one compiled [`QueryPlan`]: the key's query component is the
//! canonical-form hash from [`sm_graph::canon`], so any relabeling of an
//! isomorphic query lands on the same slot. Hashes alone are not trusted —
//! a lookup verifies the stored form's full canonical **code** against the
//! probe's before reporting a hit, so a 64-bit collision degrades into a
//! miss, never into executing the wrong plan.
//!
//! Entries pin `Arc<QueryPlan>` (plans own their query graph, so they are
//! self-contained) plus the canonical form the plan was compiled under;
//! the service composes the stored labeling with the submitting client's
//! to remap delivered embeddings back to the client's vertex ids.
//!
//! **Epochs.** Each entry records the data-graph epoch its plan was
//! compiled or patched at ([`CachedPlan::epoch`]). A lookup at that epoch
//! hits; a lookup at a later epoch brings the entry forward through the
//! caller's patch ([`PlanCache::lookup`]: the service patches the plan's
//! candidate sets across the commits in between with
//! [`sm_match::Pipeline::patch`]) and still counts a hit; an entry newer
//! than the lookup's epoch is never returned. An in-place update drops
//! only the entries no patch can bring forward ([`PlanCache::retain`]); a
//! wholesale graph swap drops them all ([`PlanCache::clear`]).
//!
//! The cache is sharded by key hash; each shard is an independent
//! mutex-protected map with its own LRU clock, so concurrent lookups from
//! the service's submission path rarely contend. Hits, misses, evictions
//! and semantics splits are registry counters (`plan_cache_hits`,
//! `plan_cache_misses`, `plan_cache_evictions`,
//! `semantics_cache_splits`), one relaxed add each, read through
//! [`PlanCache::counters`].

use sm_graph::canon::CanonicalForm;
use sm_match::QueryPlan;
use sm_runtime::trace::{AtomicCounterBlock, Counter, CounterBlock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: every component that affects what plan gets compiled,
/// except the data-graph epoch, which the entry itself records
/// ([`CachedPlan::epoch`]): one key holds one plan, brought forward across
/// updates rather than duplicated per epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Canonical-form hash of the *base* query (before the semantics
    /// word is appended) — all semantics modes of one query share this
    /// component, so they shard together and splits are detectable.
    pub query: u64,
    /// Fingerprint of the pipeline + match-config knobs that are folded
    /// into a compiled plan (filter, order, method, vf2++ rule,
    /// failing sets, intersection kernel).
    pub config: u64,
    /// [`MatchSemantics`](sm_match::MatchSemantics) fingerprint. Plans
    /// are shared within one semantics mode (a permuted twin of an iso
    /// query hits the iso plan) but never across modes — a homomorphism
    /// plan omits injectivity machinery an isomorphism run requires.
    pub semantics: u64,
}

/// One cached compilation: the plan (or the verdict that the query is
/// unsatisfiable on this graph — empty candidate sets are worth caching
/// too) and the canonical form of the query it was compiled from.
pub struct CachedPlan {
    /// The compiled plan; `None` when filtering proved the query has no
    /// match on this data graph (a negative-result cache entry).
    pub plan: Option<Arc<QueryPlan>>,
    /// Canonical form of the plan's own query — composed with a
    /// submitting client's form to remap embeddings.
    pub form: CanonicalForm,
    /// The combo the self-tuning planner chose for this entry (`None`
    /// for fixed-pipeline services). Completed runs of the entry fold
    /// their counters back into the planner's feedback store under this
    /// combo, so recompilations (eviction, graph swap) re-rank with
    /// observed costs.
    pub combo: Option<sm_planner::PlanCombo>,
    /// The data-graph epoch the plan was compiled or patched at: it is
    /// exact for that epoch's installed graph.
    pub epoch: u64,
}

struct Entry {
    cached: Arc<CachedPlan>,
    /// Last-touch tick for LRU eviction (global clock, monotonically
    /// increasing across shards).
    tick: u64,
}

struct Shard {
    map: HashMap<PlanKey, Entry>,
    /// Plans this shard holds at most; the shards' capacities sum to the
    /// cache's.
    capacity: usize,
}

/// Sharded LRU cache of compiled plans. `capacity == 0` disables caching
/// entirely (every lookup misses, inserts are dropped).
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    clock: AtomicU64,
    counters: AtomicCounterBlock,
}

impl PlanCache {
    /// A cache holding up to `capacity` plans in all, split as evenly as
    /// it goes across `shards` shards (clamped to between 1 and
    /// `capacity`, so no shard holds nothing).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.min(capacity).max(1);
        PlanCache {
            capacity,
            shards: (0..shards)
                .map(|i| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        capacity: capacity / shards + usize::from(i < capacity % shards),
                    })
                })
                .collect(),
            clock: AtomicU64::new(0),
            counters: AtomicCounterBlock::default(),
        }
    }

    fn shard_of(&self, key: &PlanKey) -> &Mutex<Shard> {
        // `semantics` is deliberately left out: all modes of one base
        // query land on the same shard, which is what lets `insert` detect
        // a semantics split with a single-shard scan.
        let mut state = key.query ^ key.config.rotate_left(21);
        let h = sm_runtime::rng::splitmix64(&mut state);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look up the plan for `key` at data-graph epoch `epoch`, verifying
    /// that the stored entry's full canonical code equals `code`
    /// (hash-collision safety). An entry of `epoch` is returned as it is;
    /// an older one is handed to `patch`, and what `patch` brings forward
    /// to `epoch` replaces it and is returned; an entry newer than `epoch`
    /// is never returned. Counts a hit when a plan is returned, a miss
    /// otherwise — the caller then compiles.
    pub fn lookup(
        &self,
        key: &PlanKey,
        code: &[u64],
        epoch: u64,
        patch: impl FnOnce(&CachedPlan) -> Option<Arc<CachedPlan>>,
    ) -> Option<Arc<CachedPlan>> {
        let found = if self.capacity == 0 {
            None
        } else {
            let mut shard = self.shard_of(key).lock().expect("plan cache poisoned");
            match shard.map.get_mut(key) {
                Some(e) if e.cached.form.code == code && e.cached.epoch <= epoch => {
                    e.tick = self.clock.fetch_add(1, Ordering::Relaxed);
                    Some(e.cached.clone())
                }
                _ => None,
            }
        };
        let found = match found {
            Some(stale) if stale.epoch < epoch => {
                let patched = patch(&stale);
                if let Some(p) = &patched {
                    debug_assert_eq!(p.epoch, epoch);
                    self.insert(*key, p.clone());
                }
                patched
            }
            found => found,
        };
        self.counters.bump(match &found {
            Some(_) => Counter::PlanCacheHits,
            None => Counter::PlanCacheMisses,
        });
        found
    }

    /// Insert a compiled or patched plan. A different-code occupant of the
    /// same key (a 64-bit collision) is replaced — at most one plan per
    /// key, and later lookups of the displaced query simply miss again —
    /// and so is an older one; an occupant of the same code and a newer
    /// epoch stays (a query admitted before an update compiled its own).
    /// When the shard is full, its least-recently-used entry is evicted.
    ///
    /// When the shard already holds the same base query + config under a
    /// *different* semantics mode, a **semantics split** is counted: the
    /// cache is now storing more than one plan for one query shape because
    /// clients ask for it under several match semantics.
    pub fn insert(&self, key: PlanKey, cached: Arc<CachedPlan>) {
        if self.capacity == 0 {
            return;
        }
        let mut shard = self.shard_of(&key).lock().expect("plan cache poisoned");
        if shard.map.get(&key).is_some_and(|e| {
            e.cached.form.code == cached.form.code && e.cached.epoch > cached.epoch
        }) {
            return;
        }
        if shard
            .map
            .keys()
            .any(|k| k.query == key.query && k.config == key.config && k.semantics != key.semantics)
        {
            self.counters.bump(Counter::SemanticsCacheSplits);
        }
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        if !shard.map.contains_key(&key) && shard.map.len() >= shard.capacity {
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&victim);
                self.counters.bump(Counter::PlanCacheEvictions);
            }
        }
        shard.map.insert(key, Entry { cached, tick });
    }

    /// Keep only the entries `keep` accepts — after an in-place update,
    /// the ones a patch can bring forward — and drop the others, counting
    /// them as evictions. Returns `(kept, dropped)`.
    pub fn retain(&self, keep: impl Fn(&CachedPlan) -> bool) -> (usize, usize) {
        let (mut kept, mut dropped) = (0, 0);
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan cache poisoned");
            let before = shard.map.len();
            shard.map.retain(|_, e| keep(&e.cached));
            kept += shard.map.len();
            dropped += before - shard.map.len();
        }
        self.counters
            .add(Counter::PlanCacheEvictions, dropped as u64);
        (kept, dropped)
    }

    /// Drop every entry — after a data-graph swap, whose graph no cached
    /// plan was compiled against. Dropped entries count as evictions.
    pub fn clear(&self) {
        self.retain(|_| false);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan cache poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits, misses, evictions (LRU pressure, [`PlanCache::retain`],
    /// [`PlanCache::clear`]) and semantics splits, as a registry block.
    pub fn counters(&self) -> CounterBlock {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_graph::builder::graph_from_edges;
    use sm_graph::canon::canonical_form;

    fn entry_for(labels: &[u32], edges: &[(u32, u32)]) -> (Arc<CachedPlan>, Vec<u64>) {
        let g = graph_from_edges(labels, edges);
        let form = canonical_form(&g);
        let code = form.code.clone();
        (
            Arc::new(CachedPlan {
                plan: None,
                form,
                combo: None,
                epoch: 0,
            }),
            code,
        )
    }

    /// `e` as of `epoch`.
    fn at(e: &CachedPlan, epoch: u64) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            plan: e.plan.clone(),
            form: e.form.clone(),
            combo: e.combo,
            epoch,
        })
    }

    fn key(query: u64, config: u64) -> PlanKey {
        PlanKey {
            query,
            config,
            semantics: 0,
        }
    }

    fn count(cache: &PlanCache, c: Counter) -> u64 {
        cache.counters().get(c)
    }

    fn hits_misses(cache: &PlanCache) -> (u64, u64) {
        let c = cache.counters();
        (
            c.get(Counter::PlanCacheHits),
            c.get(Counter::PlanCacheMisses),
        )
    }

    /// A lookup at epoch 0 that never patches.
    fn get(cache: &PlanCache, k: &PlanKey, code: &[u64]) -> Option<Arc<CachedPlan>> {
        cache.lookup(k, code, 0, |_| panic!("nothing is older than epoch 0"))
    }

    #[test]
    fn hit_requires_code_match() {
        let cache = PlanCache::new(8, 2);
        let (e, code) = entry_for(&[0, 1], &[(0, 1)]);
        let k = key(e.form.hash, 7);
        assert!(get(&cache, &k, &code).is_none());
        cache.insert(k, e.clone());
        assert!(get(&cache, &k, &code).is_some());
        // same key, different code (simulated collision): miss, not a wrong hit
        let (other, other_code) = entry_for(&[0, 1, 1], &[(0, 1), (1, 2)]);
        assert_ne!(other_code, code);
        assert!(get(&cache, &k, &other_code).is_none());
        drop(other);
        assert_eq!(hits_misses(&cache), (1, 2));
    }

    /// The capacity bounds the plans held in all, not per shard, also
    /// when it is smaller than the shard count or not a multiple of it.
    #[test]
    fn capacity_bounds_the_whole_cache() {
        let (e, _) = entry_for(&[0, 0], &[(0, 1)]);
        for (capacity, shards) in [(1, 8), (10, 8), (3, 2), (256, 8)] {
            let cache = PlanCache::new(capacity, shards);
            for q in 0..4 * capacity as u64 + 64 {
                cache.insert(key(q, 0), e.clone());
            }
            assert_eq!(
                cache.len(),
                capacity,
                "capacity {capacity}, {shards} shards"
            );
        }
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = PlanCache::new(2, 1);
        let (e, code) = entry_for(&[0, 0], &[(0, 1)]);
        cache.insert(key(1, 0), e.clone());
        cache.insert(key(2, 0), e.clone());
        // touch key 1 so key 2 is the LRU victim
        assert!(get(&cache, &key(1, 0), &code).is_some());
        cache.insert(key(3, 0), e.clone());
        assert_eq!(count(&cache, Counter::PlanCacheEvictions), 1);
        assert!(get(&cache, &key(1, 0), &code).is_some());
        assert!(get(&cache, &key(2, 0), &code).is_none());
        assert!(get(&cache, &key(3, 0), &code).is_some());
    }

    /// An older entry is patched forward, replaced by the patched one and
    /// counted a hit; a failed patch is a miss; an entry newer than the
    /// lookup is never handed out, nor replaced by an older compile.
    #[test]
    fn older_entries_are_patched_forward_and_newer_ones_never_used() {
        let cache = PlanCache::new(8, 2);
        let (e, code) = entry_for(&[0, 1], &[(0, 1)]);
        let k = key(e.form.hash, 7);
        cache.insert(k, e.clone());
        // A failed patch leaves the entry and misses.
        assert!(cache.lookup(&k, &code, 3, |_| None).is_none());
        assert_eq!(hits_misses(&cache), (0, 1));
        let mut patched_from = None;
        let got = cache.lookup(&k, &code, 3, |stale| {
            patched_from = Some(stale.epoch);
            Some(at(stale, 3))
        });
        assert_eq!(patched_from, Some(0));
        assert_eq!(got.map(|g| g.epoch), Some(3));
        assert_eq!(hits_misses(&cache), (1, 1));
        // The patched entry replaced the old one: epoch 3 hits as is.
        let again = cache.lookup(&k, &code, 3, |_| panic!("already at epoch 3"));
        assert_eq!(again.map(|g| g.epoch), Some(3));
        // A query pinned to epoch 2 never sees the epoch-3 plan...
        let old = cache.lookup(&k, &code, 2, |_| panic!("nothing to patch"));
        assert!(old.is_none());
        // ...and its own compile does not displace it.
        cache.insert(k, at(&e, 2));
        let kept = cache.lookup(&k, &code, 3, |_| panic!("already at epoch 3"));
        assert_eq!(kept.map(|g| g.epoch), Some(3));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn retain_drops_what_cannot_be_patched_and_clear_drops_all() {
        let cache = PlanCache::new(8, 4);
        let (e, code) = entry_for(&[0, 0], &[(0, 1)]);
        for q in 0..4 {
            cache.insert(key(q, 0), at(&e, q));
        }
        assert_eq!(cache.retain(|c| c.epoch >= 2), (2, 2));
        assert_eq!(count(&cache, Counter::PlanCacheEvictions), 2);
        assert!(get(&cache, &key(1, 0), &code).is_none());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(count(&cache, Counter::PlanCacheEvictions), 4);
    }

    #[test]
    fn semantics_split_is_counted_and_modes_never_share() {
        use sm_match::MatchSemantics;
        let cache = PlanCache::new(8, 4);
        let g = graph_from_edges(&[0, 1], &[(0, 1)]);
        let iso = MatchSemantics::isomorphism();
        let homo = MatchSemantics::homomorphism();
        let base = canonical_form(&g);
        let base_hash = base.hash;
        let iso_form = base.clone().with_semantics(iso.fingerprint());
        let homo_form = canonical_form(&g).with_semantics(homo.fingerprint());
        let iso_code = iso_form.code.clone();
        let homo_code = homo_form.code.clone();
        let k_iso = PlanKey {
            query: base_hash,
            config: 7,
            semantics: iso.fingerprint(),
        };
        let k_homo = PlanKey {
            semantics: homo.fingerprint(),
            ..k_iso
        };
        let cached = |form| {
            Arc::new(CachedPlan {
                plan: None,
                form,
                combo: None,
                epoch: 0,
            })
        };
        cache.insert(k_iso, cached(iso_form));
        assert_eq!(count(&cache, Counter::SemanticsCacheSplits), 0);
        // The homo probe never hits the iso entry (different key *and*
        // different code), even though the base query is identical.
        assert!(get(&cache, &k_homo, &homo_code).is_none());
        cache.insert(k_homo, cached(homo_form));
        assert_eq!(count(&cache, Counter::SemanticsCacheSplits), 1);
        // Both modes now resolve independently.
        assert!(get(&cache, &k_iso, &iso_code).is_some());
        assert!(get(&cache, &k_homo, &homo_code).is_some());
        // Re-inserting the same mode is not a split.
        cache.insert(
            k_iso,
            cached(canonical_form(&g).with_semantics(iso.fingerprint())),
        );
        assert_eq!(count(&cache, Counter::SemanticsCacheSplits), 2); // homo entry still present → counted again
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0, 4);
        let (e, code) = entry_for(&[0, 0], &[(0, 1)]);
        let k = key(e.form.hash, 0);
        cache.insert(k, e.clone());
        assert!(get(&cache, &k, &code).is_none());
        assert!(cache.is_empty());
    }
}
