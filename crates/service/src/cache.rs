//! Sharded LRU plan cache keyed by `(data-graph epoch, canonical query
//! fingerprint, pipeline/config fingerprint)`.
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
//! The cache is sharded by key hash; each shard is an independent
//! mutex-protected map with its own LRU clock, so concurrent lookups from
//! the service's submission path rarely contend. Hit/miss/eviction totals
//! are plain atomics, exported through the service into `sm-trace`'s
//! counter registry (`plan_cache_hits` / `plan_cache_misses` /
//! `plan_cache_evictions`).

use sm_graph::canon::CanonicalForm;
use sm_graph::Label;
use sm_match::{CandidateSpace, QueryPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: every component that affects what plan gets compiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Data-graph epoch — bumped by [`crate::Service::swap_graph`], so
    /// plans compiled against a replaced graph can never be returned, and
    /// by in-place updates, which re-key only the plans that stay valid
    /// ([`PlanCache::retarget_epoch`]).
    pub epoch: u64,
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
    /// combo, so recompilations (eviction, epoch bump) re-rank with
    /// observed costs.
    pub combo: Option<sm_planner::PlanCombo>,
}

struct Entry {
    cached: Arc<CachedPlan>,
    /// Last-touch tick for LRU eviction (global clock, monotonically
    /// increasing across shards).
    tick: u64,
}

struct Shard {
    map: HashMap<PlanKey, Entry>,
}

/// Sharded LRU cache of compiled plans. `capacity == 0` disables caching
/// entirely (every lookup misses, inserts are dropped).
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    splits: AtomicU64,
}

impl PlanCache {
    /// A cache holding up to `capacity` plans across `shards` shards
    /// (shard count is clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        PlanCache {
            per_shard: capacity.div_ceil(shards),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                    })
                })
                .collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            splits: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &PlanKey) -> &Mutex<Shard> {
        // Mix the epoch/query/config components so epochs don't collapse
        // onto one shard. `semantics` is deliberately left out: all modes
        // of one base query land on the same shard, which is what lets
        // `insert` detect a semantics split with a single-shard scan.
        let mut state = key.query ^ key.config.rotate_left(21) ^ key.epoch.rotate_left(42);
        let h = sm_runtime::rng::splitmix64(&mut state);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Look up a plan for `key`, verifying that the stored entry's full
    /// canonical code equals `code` (hash-collision safety). Counts a hit
    /// or a miss either way.
    pub fn lookup(&self, key: &PlanKey, code: &[u64]) -> Option<Arc<CachedPlan>> {
        if self.per_shard == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard_of(key).lock().expect("plan cache poisoned");
        let found = match shard.map.get_mut(key) {
            Some(e) if e.cached.form.code == code => {
                e.tick = self.clock.fetch_add(1, Ordering::Relaxed);
                Some(e.cached.clone())
            }
            _ => None,
        };
        drop(shard);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a compiled plan. A different-code occupant of the same key
    /// (a 64-bit collision) is replaced — at most one plan per key, and
    /// later lookups of the displaced query simply miss again. When the
    /// shard is full, its least-recently-used entry is evicted.
    ///
    /// When the shard already holds the same base query + config under a
    /// *different* semantics mode, a **semantics split** is counted: the
    /// cache is now storing more than one plan for one query shape because
    /// clients ask for it under several match semantics.
    pub fn insert(&self, key: PlanKey, cached: Arc<CachedPlan>) {
        if self.per_shard == 0 {
            return;
        }
        let mut shard = self.shard_of(&key).lock().expect("plan cache poisoned");
        if shard.map.keys().any(|k| {
            k.epoch == key.epoch
                && k.query == key.query
                && k.config == key.config
                && k.semantics != key.semantics
        }) {
            self.splits.fetch_add(1, Ordering::Relaxed);
        }
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard {
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(key, Entry { cached, tick });
    }

    /// Scoped invalidation after an **in-place graph update** (as opposed
    /// to a wholesale swap): entries compiled under `old_epoch` whose
    /// query label set is disjoint from the update's `affected_labels`
    /// (sorted) stay valid — no candidate vertex of theirs gained or lost
    /// an edge, changed label, or was added/removed — and are re-keyed to
    /// `new_epoch`, provided their candidate space is built in full
    /// ([`sm_match::CandidateSpace::fully_built`]). A plan with unbuilt
    /// rows would build them from the new graph, whose vertex ranks the
    /// plan's position maps do not know, so it is evicted like
    /// intersecting entries (and entries from any other epoch). Returns
    /// `(retained, evicted)`.
    ///
    /// The label set of a cached entry is read from its canonical code
    /// (`[n, m, labels…]` — see [`sm_graph::canon`]), so no query graph
    /// needs to be kept around.
    pub fn retarget_epoch(
        &self,
        old_epoch: u64,
        new_epoch: u64,
        affected_labels: &[Label],
    ) -> (usize, usize) {
        if self.per_shard == 0 {
            return (0, 0);
        }
        // Drain survivors first: the epoch is part of the shard hash, so a
        // re-keyed entry generally lands in a *different* shard.
        let mut moved = Vec::new();
        let mut evicted = 0usize;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan cache poisoned");
            let map = std::mem::take(&mut shard.map);
            for (k, e) in map {
                let keep = k.epoch == old_epoch
                    && labels_disjoint(&e.cached.form.code, affected_labels)
                    && e.cached
                        .plan
                        .as_ref()
                        .is_none_or(|p| p.space.as_ref().is_none_or(CandidateSpace::fully_built));
                if keep {
                    moved.push((
                        PlanKey {
                            epoch: new_epoch,
                            ..k
                        },
                        e,
                    ));
                } else {
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        let retained = moved.len();
        for (k, e) in moved {
            let mut shard = self.shard_of(&k).lock().expect("plan cache poisoned");
            // Respect per-shard capacity even though re-sharding may pile
            // survivors onto one shard.
            while shard.map.len() >= self.per_shard {
                let victim = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(k, _)| *k)
                    .expect("non-empty shard");
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            shard.map.insert(k, e);
        }
        (retained, evicted)
    }

    /// Drop every entry whose epoch differs from `keep_epoch` — called
    /// after a data-graph swap so stale plans free their memory promptly
    /// instead of waiting to age out. Dropped entries count as evictions.
    pub fn purge_other_epochs(&self, keep_epoch: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan cache poisoned");
            let before = shard.map.len();
            shard.map.retain(|k, _| k.epoch == keep_epoch);
            let dropped = (before - shard.map.len()) as u64;
            if dropped > 0 {
                self.evictions.fetch_add(dropped, Ordering::Relaxed);
            }
        }
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

    /// Lookups that returned a cached plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (or failed code verification).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by LRU pressure or epoch purges.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Inserts that found the same base query + config cached under a
    /// different semantics mode (`semantics_cache_splits`).
    pub fn splits(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }
}

/// Whether the query labels embedded in a canonical code (`[n, m,
/// labels…]`) are disjoint from a sorted label slice.
fn labels_disjoint(code: &[u64], affected: &[Label]) -> bool {
    let n = code[0] as usize;
    code[2..2 + n]
        .iter()
        .all(|&l| affected.binary_search(&(l as Label)).is_err())
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
            }),
            code,
        )
    }

    fn key(epoch: u64, query: u64, config: u64) -> PlanKey {
        PlanKey {
            epoch,
            query,
            config,
            semantics: 0,
        }
    }

    #[test]
    fn hit_requires_code_match() {
        let cache = PlanCache::new(8, 2);
        let (e, code) = entry_for(&[0, 1], &[(0, 1)]);
        let k = key(0, e.form.hash, 7);
        assert!(cache.lookup(&k, &code).is_none());
        cache.insert(k, e.clone());
        assert!(cache.lookup(&k, &code).is_some());
        // same key, different code (simulated collision): miss, not a wrong hit
        let (other, other_code) = entry_for(&[0, 1, 1], &[(0, 1), (1, 2)]);
        assert_ne!(other_code, code);
        assert!(cache.lookup(&k, &other_code).is_none());
        drop(other);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = PlanCache::new(2, 1);
        let (e, code) = entry_for(&[0, 0], &[(0, 1)]);
        cache.insert(key(0, 1, 0), e.clone());
        cache.insert(key(0, 2, 0), e.clone());
        // touch key 1 so key 2 is the LRU victim
        assert!(cache.lookup(&key(0, 1, 0), &code).is_some());
        cache.insert(key(0, 3, 0), e.clone());
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(&key(0, 1, 0), &code).is_some());
        assert!(cache.lookup(&key(0, 2, 0), &code).is_none());
        assert!(cache.lookup(&key(0, 3, 0), &code).is_some());
    }

    #[test]
    fn epoch_purge_drops_stale_plans() {
        let cache = PlanCache::new(8, 4);
        let (e, code) = entry_for(&[0, 0], &[(0, 1)]);
        cache.insert(key(0, 1, 0), e.clone());
        cache.insert(key(1, 1, 0), e.clone());
        assert_eq!(cache.len(), 2);
        cache.purge_other_epochs(1);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(0, 1, 0), &code).is_none());
        assert!(cache.lookup(&key(1, 1, 0), &code).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn retarget_moves_disjoint_entries_and_evicts_touched_ones() {
        let cache = PlanCache::new(16, 4);
        // Labels {0, 1} and labels {2, 3}.
        let (low, low_code) = entry_for(&[0, 1], &[(0, 1)]);
        let (high, high_code) = entry_for(&[2, 3], &[(0, 1)]);
        cache.insert(key(3, low.form.hash, 9), low.clone());
        cache.insert(key(3, high.form.hash, 9), high.clone());
        // A stale entry from an even older epoch is dropped outright.
        cache.insert(key(1, low.form.hash, 9), low.clone());
        let (retained, evicted) = cache.retarget_epoch(3, 4, &[1, 5]);
        assert_eq!((retained, evicted), (1, 2));
        assert_eq!(cache.evictions(), 2);
        // The label-disjoint plan survives under the new epoch only.
        assert!(cache
            .lookup(&key(4, high.form.hash, 9), &high_code)
            .is_some());
        assert!(cache
            .lookup(&key(3, high.form.hash, 9), &high_code)
            .is_none());
        assert!(cache.lookup(&key(4, low.form.hash, 9), &low_code).is_none());
    }

    #[test]
    fn retarget_respects_shard_capacity() {
        let cache = PlanCache::new(1, 1);
        let (e, code) = entry_for(&[4, 4], &[(0, 1)]);
        cache.insert(key(0, e.form.hash, 0), e.clone());
        let (retained, _) = cache.retarget_epoch(0, 1, &[0]);
        assert_eq!(retained, 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key(1, e.form.hash, 0), &code).is_some());
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
            epoch: 0,
            query: base_hash,
            config: 7,
            semantics: iso.fingerprint(),
        };
        let k_homo = PlanKey {
            semantics: homo.fingerprint(),
            ..k_iso
        };
        cache.insert(
            k_iso,
            Arc::new(CachedPlan {
                plan: None,
                form: iso_form,
                combo: None,
            }),
        );
        assert_eq!(cache.splits(), 0);
        // The homo probe never hits the iso entry (different key *and*
        // different code), even though the base query is identical.
        assert!(cache.lookup(&k_homo, &homo_code).is_none());
        cache.insert(
            k_homo,
            Arc::new(CachedPlan {
                plan: None,
                form: homo_form,
                combo: None,
            }),
        );
        assert_eq!(cache.splits(), 1);
        // Both modes now resolve independently.
        assert!(cache.lookup(&k_iso, &iso_code).is_some());
        assert!(cache.lookup(&k_homo, &homo_code).is_some());
        // Re-inserting the same mode is not a split.
        cache.insert(
            k_iso,
            Arc::new(CachedPlan {
                plan: None,
                form: canonical_form(&g).with_semantics(iso.fingerprint()),
                combo: None,
            }),
        );
        assert_eq!(cache.splits(), 2); // homo entry still present → counted again
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0, 4);
        let (e, code) = entry_for(&[0, 0], &[(0, 1)]);
        let k = key(0, e.form.hash, 0);
        cache.insert(k, e.clone());
        assert!(cache.lookup(&k, &code).is_none());
        assert!(cache.is_empty());
    }
}
