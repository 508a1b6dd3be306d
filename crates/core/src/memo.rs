//! Memoized Algorithm 2.
//!
//! The adversarial instances of Theorems 6–8 release *millions* of
//! tasks that share a handful of distinct speedup models, and every
//! release used to re-run the Algorithm 2 binary search. An
//! [`AllocCache`] interns `(model parameters) → Allocation` for one
//! fixed `(P, μ)` pair — the pair is fixed per scheduler run, so it
//! lives in the cache, not the key — and makes repeat allocations a
//! hash lookup.
//!
//! Keys are exact: closed-form models key on the *bit patterns* of
//! their parameters (two models collide only if they are
//! parameter-identical, in which case [`crate::allocate`] returns the
//! same decision); tables key on their full entry bit-pattern; closures key
//! on the `Arc` pointer identity, with a clone of the `Arc` pinned in
//! the cache so an address can never be recycled for a different
//! closure while the cache lives.
//!
//! [`AllocCache::allocate`] is bounded: when per-task sampled
//! parameters make every model distinct, interning is pure overhead
//! and the map would grow with every task for the cache's lifetime (a
//! serve worker's or a tenant scheduler's cache lives as long as the
//! daemon). The cache runs in *trials*: after [`BYPASS_MIN_PROBES`]
//! lookups with fewer than 1 in 16 answered from the map, it stops
//! interning and answers the next [`RETRIAL_AFTER`] calls directly —
//! the same answers, since the allocation is a pure function of
//! `(model, P, μ)` — then empties the map and starts a fresh trial, so
//! traffic that turns repetitive after a cold burst gets its memo
//! back. Every switch is a pure function of the call sequence.

use std::collections::HashMap;
use std::sync::Arc;

use moldable_model::SpeedupModel;

use crate::registry::AlgoName;
use crate::Allocation;

/// Lookups an [`AllocCache`] answers before it may conclude that it is
/// useless and stop interning. Large enough that every adversarial
/// witness in the test corpus (thousands of tasks over a handful of
/// models) warms the cache normally, small enough that a million-task
/// sampled workload stops paying interning after the first few
/// thousand releases — and the bound on a cache that never pays.
pub const BYPASS_MIN_PROBES: u64 = 4096;

/// Direct calls a bypassed [`AllocCache`] answers before it starts a
/// fresh trial. Sixteen trial lengths: a cache that never pays spends
/// at most 1 call in 17 interning.
pub const RETRIAL_AFTER: u64 = 16 * BYPASS_MIN_PROBES;

/// Exact identity of a speedup model for interning purposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ModelKey {
    Roofline { w: u64, pbar: u32 },
    Communication { w: u64, c: u64 },
    Amdahl { w: u64, d: u64 },
    General { w: u64, pbar: u32, d: u64, c: u64 },
    Table(Vec<u64>),
    Formula { ptr: usize, nonincreasing: bool },
}

impl ModelKey {
    fn of(model: &SpeedupModel) -> Self {
        match model {
            SpeedupModel::Roofline { w, pbar } => Self::Roofline {
                w: w.to_bits(),
                pbar: *pbar,
            },
            SpeedupModel::Communication { w, c } => Self::Communication {
                w: w.to_bits(),
                c: c.to_bits(),
            },
            SpeedupModel::Amdahl { w, d } => Self::Amdahl {
                w: w.to_bits(),
                d: d.to_bits(),
            },
            SpeedupModel::General { w, pbar, d, c } => Self::General {
                w: w.to_bits(),
                pbar: *pbar,
                d: d.to_bits(),
                c: c.to_bits(),
            },
            SpeedupModel::Table(ts) => Self::Table(ts.iter().map(|t| t.to_bits()).collect()),
            SpeedupModel::Formula { f, nonincreasing } => Self::Formula {
                ptr: Arc::as_ptr(f).cast::<()>() as usize,
                nonincreasing: *nonincreasing,
            },
        }
    }
}

/// Memoized front-end to the local allocation ([`crate::allocate`] or
/// [`crate::allocate_improved`], per [`AlgoName`]) for a fixed
/// platform size and μ.
#[derive(Debug)]
pub struct AllocCache {
    algo: AlgoName,
    p_total: u32,
    mu: f64,
    map: HashMap<ModelKey, Allocation>,
    /// Clones of every closure seen, pinning their addresses for the
    /// cache's lifetime (see module docs).
    pinned: Vec<SpeedupModel>,
    /// Lifetime lookup count (for hit-rate introspection).
    probes: u64,
    /// Lookups answered from the map.
    hits: u64,
    /// `(probes, hits)` of [`AllocCache::allocate`] in the current
    /// trial.
    trial: (u64, u64),
    /// Direct calls left before the next trial; 0 while interning.
    bypass_left: u64,
}

impl AllocCache {
    /// Cache for allocations on a `P = p_total` platform with
    /// parameter `μ`.
    ///
    /// # Panics
    ///
    /// Same contract as [`crate::allocate`]: `μ ∈ (0, (3−√5)/2]`,
    /// `p_total ≥ 1`.
    #[must_use]
    pub fn new(p_total: u32, mu: f64) -> Self {
        Self::for_algo(AlgoName::Icpp22, p_total, mu)
    }

    /// Cache for `algo`'s allocations on a `P = p_total` platform with
    /// parameter `μ`. For [`AlgoName::Improved23`] the per-class area
    /// budget `λ` is looked up from each model's own class at
    /// allocation time ([`AlgoName::lambda`]), so one cache serves
    /// mixed-class workloads.
    ///
    /// # Panics
    ///
    /// Same contract as [`crate::allocate`]: `μ ∈ (0, (3−√5)/2]`,
    /// `p_total ≥ 1`.
    #[must_use]
    pub fn for_algo(algo: AlgoName, p_total: u32, mu: f64) -> Self {
        assert!(
            mu > 0.0 && mu <= moldable_model::MU_MAX + 1e-12,
            "mu must lie in (0, (3-sqrt(5))/2], got {mu}"
        );
        assert!(p_total >= 1);
        Self {
            algo,
            p_total,
            mu,
            map: HashMap::new(),
            pinned: Vec::new(),
            probes: 0,
            hits: 0,
            trial: (0, 0),
            bypass_left: 0,
        }
    }

    /// Platform size this cache was built for.
    #[must_use]
    pub fn p_total(&self) -> u32 {
        self.p_total
    }

    /// The μ this cache was built for.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The algorithm this cache memoizes.
    #[must_use]
    pub fn algo(&self) -> AlgoName {
        self.algo
    }

    /// Whether this cache's decisions are valid for the given
    /// `(P, μ)` pair under the ICPP'22 algorithm (exact match; μ
    /// compared by bit pattern).
    #[must_use]
    pub fn matches(&self, p_total: u32, mu: f64) -> bool {
        self.matches_algo(AlgoName::Icpp22, p_total, mu)
    }

    /// Whether this cache's decisions are valid for the given
    /// `(algo, P, μ)` triple (exact match; μ compared by bit pattern).
    #[must_use]
    pub fn matches_algo(&self, algo: AlgoName, p_total: u32, mu: f64) -> bool {
        self.algo == algo && self.p_total == p_total && self.mu.to_bits() == mu.to_bits()
    }

    /// The local allocation through the cache: identical to
    /// `allocate(model, p_total, mu)` (or `allocate_improved` with the
    /// model class's λ, per the cache's algorithm), but repeat models
    /// cost one hash lookup. While a trial has shown the cache not to
    /// pay (see the module docs) calls compute directly and are not
    /// counted as probes.
    pub fn allocate(&mut self, model: &SpeedupModel) -> Allocation {
        if self.bypass_left > 0 {
            self.bypass_left -= 1;
            if self.bypass_left == 0 {
                self.map.clear();
                self.pinned.clear();
                self.trial = (0, 0);
            }
            return self.algo.allocate(model, self.p_total, self.mu);
        }
        let (allocation, hit) = self.lookup(model);
        self.trial.0 += 1;
        self.trial.1 += u64::from(hit);
        // Enough evidence, and fewer than 1 in 16 probes answered from
        // the map.
        if self.trial.0 >= BYPASS_MIN_PROBES && self.trial.1 * 16 < self.trial.0 {
            self.bypass_left = RETRIAL_AFTER;
        }
        allocation
    }

    /// Map lookup, interning on a miss; `true` on a hit.
    fn lookup(&mut self, model: &SpeedupModel) -> (Allocation, bool) {
        self.probes += 1;
        let key = ModelKey::of(model);
        if let Some(&hit) = self.map.get(&key) {
            self.hits += 1;
            return (hit, true);
        }
        if matches!(model, SpeedupModel::Formula { .. }) {
            self.pinned.push(model.clone());
        }
        let allocation = self.algo.allocate(model, self.p_total, self.mu);
        self.map.insert(key, allocation);
        (allocation, false)
    }

    /// Number of distinct models interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Lifetime number of map lookups (calls answered directly while
    /// bypassed are not lookups).
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Lifetime number of probes answered from the map. A hit rate of
    /// `hits / probes` near zero means every task carries a distinct
    /// model and the cache is pure overhead — the signal, per trial, on
    /// which [`AllocCache::allocate`] stops interning.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate;
    use moldable_model::{ModelClass, MU_MAX};

    #[test]
    fn cache_hits_return_identical_allocations() {
        let mut cache = AllocCache::new(100, MU_MAX);
        let m = SpeedupModel::amdahl(64.0, 2.0).unwrap();
        let first = cache.allocate(&m);
        assert_eq!(cache.len(), 1);
        // A separately constructed but parameter-identical model hits.
        let m2 = SpeedupModel::amdahl(64.0, 2.0).unwrap();
        assert_eq!(cache.allocate(&m2), first);
        assert_eq!(cache.len(), 1);
        assert_eq!(first, allocate(&m, 100, MU_MAX));
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let mut cache = AllocCache::new(64, 0.3);
        let _ = cache.allocate(&SpeedupModel::amdahl(64.0, 2.0).unwrap());
        let _ = cache.allocate(&SpeedupModel::amdahl(64.0, 3.0).unwrap());
        let _ = cache.allocate(&SpeedupModel::roofline(64.0, 8).unwrap());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn matches_direct_allocate_across_classes() {
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(42);
        let dist = moldable_model::sample::ParamDistribution::default();
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ] {
            let mu = class.optimal_mu();
            let mut cache = AllocCache::new(48, mu);
            for _ in 0..50 {
                let m = dist.sample(class, 48, &mut rng);
                // Twice: once cold, once from the cache.
                assert_eq!(cache.allocate(&m), allocate(&m, 48, mu), "{class}");
                assert_eq!(cache.allocate(&m), allocate(&m, 48, mu), "{class}");
            }
        }
    }

    #[test]
    fn shared_table_arcs_hit_by_content() {
        let m = SpeedupModel::table(vec![8.0, 4.0, 3.0]).unwrap();
        let mut cache = AllocCache::new(8, 0.3);
        let a = cache.allocate(&m);
        let b = cache.allocate(&m.clone());
        // Content-identical but separately built table also hits.
        let c = cache.allocate(&SpeedupModel::table(vec![8.0, 4.0, 3.0]).unwrap());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn improved_cache_matches_direct_dual_allocate() {
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(9);
        let dist = moldable_model::sample::ParamDistribution::default();
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ] {
            let mu = AlgoName::Improved23.optimal_mu(class);
            let mut cache = AllocCache::for_algo(AlgoName::Improved23, 48, mu);
            for _ in 0..30 {
                let m = dist.sample(class, 48, &mut rng);
                let want = AlgoName::Improved23.allocate(&m, 48, mu);
                assert_eq!(cache.allocate(&m), want, "{class}");
                assert_eq!(cache.allocate(&m), want, "{class} (warm)");
            }
        }
    }

    #[test]
    fn matches_is_algo_aware() {
        let c = AllocCache::for_algo(AlgoName::Improved23, 16, 0.3);
        assert!(c.matches_algo(AlgoName::Improved23, 16, 0.3));
        assert!(!c.matches_algo(AlgoName::Icpp22, 16, 0.3));
        assert!(!c.matches(16, 0.3), "matches() means icpp22");
        assert_eq!(c.algo(), AlgoName::Improved23);
        let c = AllocCache::new(16, 0.3);
        assert!(c.matches(16, 0.3));
        assert_eq!(c.algo(), AlgoName::Icpp22);
    }

    #[test]
    fn distinct_models_stop_interning_at_the_bypass_bound() {
        // Per-task sampled parameters: (almost) every model distinct.
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(5);
        let dist = moldable_model::sample::ParamDistribution::default();
        for algo in [AlgoName::Icpp22, AlgoName::Improved23] {
            let mu = algo.optimal_mu(ModelClass::General);
            let mut cache = AllocCache::for_algo(algo, 256, mu);
            let bound = usize::try_from(BYPASS_MIN_PROBES).unwrap();
            for i in 0..100_000 {
                let m = dist.sample(ModelClass::General, 256, &mut rng);
                assert_eq!(
                    cache.allocate(&m),
                    algo.allocate(&m, 256, mu),
                    "{algo} #{i}"
                );
                assert!(
                    cache.len() <= bound,
                    "{algo} #{i}: {} interned",
                    cache.len()
                );
            }
            // Two trials fit in 100k calls: one at the start, one after
            // the first bypassed stretch.
            const { assert!(BYPASS_MIN_PROBES + RETRIAL_AFTER < 100_000) };
            assert_eq!(cache.probes(), 2 * BYPASS_MIN_PROBES, "{algo}");
        }
    }

    #[test]
    fn a_cold_burst_does_not_switch_the_memo_off_for_good() {
        // A fresh worker's first traffic is all distinct, the traffic
        // after it repeats eight models: the first trial bypasses, the
        // next one interns the eight and answers the rest from the map.
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(9);
        let dist = moldable_model::sample::ParamDistribution::default();
        let mut cache = AllocCache::new(256, 0.3);
        for _ in 0..BYPASS_MIN_PROBES {
            let _ = cache.allocate(&dist.sample(ModelClass::General, 256, &mut rng));
        }
        let models: Vec<_> = (1..=8)
            .map(|w| SpeedupModel::amdahl(f64::from(w), 0.5).unwrap())
            .collect();
        let hits_before = cache.hits();
        let calls = usize::try_from(RETRIAL_AFTER).unwrap() + 10_000;
        for i in 0..calls {
            let _ = cache.allocate(&models[i % 8]);
        }
        assert_eq!(cache.hits() - hits_before, 10_000 - 8);
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn a_paying_cache_keeps_interning() {
        // Eight models repeated: the hit rate stays high, so the cache
        // never bypasses and every lookup past the first eight hits.
        let models: Vec<_> = (1..=8)
            .map(|w| SpeedupModel::amdahl(f64::from(w), 0.5).unwrap())
            .collect();
        let mut cache = AllocCache::new(64, 0.3);
        for i in 0..10_000 {
            let _ = cache.allocate(&models[i % 8]);
        }
        assert_eq!(cache.len(), 8);
        assert_eq!((cache.probes(), cache.hits()), (10_000, 9_992));
    }

    #[test]
    fn formulas_key_on_closure_identity() {
        let f = SpeedupModel::formula(|p| 10.0 / f64::from(p), true);
        let mut cache = AllocCache::new(16, 0.3);
        let a = cache.allocate(&f);
        assert_eq!(cache.allocate(&f.clone()), a, "same Arc must hit");
        assert_eq!(cache.len(), 1);
        // A different closure object is a different key even if the
        // function is extensionally equal.
        let g = SpeedupModel::formula(|p| 10.0 / f64::from(p), true);
        assert_eq!(cache.allocate(&g), a);
        assert_eq!(cache.len(), 2);
    }
}
