//! The membership decision `Σ ⊨ σ` (Theorem 6.4): run Algorithm 5.1 for
//! `σ`'s left-hand side and apply Proposition 4.10.
//!
//! [`Reasoner`] answers queries either one at a time or in parallel
//! batches ([`Reasoner::implies_batch`]). Concurrent readers — batch
//! workers and serve workers alike — share the per-LHS basis cache,
//! which is sharded across mutexes so queries with distinct left-hand
//! sides rarely contend. Batches are first run through a query
//! *planner* that deduplicates items by left-hand side — each distinct
//! LHS basis is computed exactly once per batch — and orders cache-warm
//! LHSs before cold ones; workers then claim the planned groups from one
//! shared cursor.
//!
//! The reasoner is *incremental*: `Σ` edits ([`Reasoner::add`] /
//! [`Reasoner::remove`]) no longer clear the cache. Each cached basis
//! carries the set of dependencies that fired while it was computed;
//! an edit evicts only the entries the edited dependency could actually
//! affect (see the soundness argument in [`crate::worklist`]), and a
//! from-scratch recompute of every surviving entry is bit-identical.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use nalist_algebra::{Algebra, AlgebraError, AtomSet};
use nalist_deps::{CompiledDep, DepKind, Dependency, PreparedDep};
use nalist_guard::{Budget, ResourceExhausted};
use nalist_obs::{Counter, Hist, Recorder};
use nalist_types::attr::NestedAttr;
use nalist_types::error::{ParseError, TypeError};
use nalist_types::parser::ParseLimits;

use crate::certify::CertifyError;
use crate::closure::{check_downward_closed, closure_and_basis, ClosureError, DependencyBasis};
use crate::witness::WitnessError;
use crate::worklist::{fixpoint, run, step_would_change};

/// Floor on the number of independently locked cache shards. The actual
/// count is `max(available_parallelism, MIN_CACHE_SHARDS)`: concurrent
/// readers (serve workers, batch workers) with distinct left-hand sides
/// then rarely wait on the same lock, and the floor keeps contention
/// negligible when callers oversubscribe threads on a small machine.
const MIN_CACHE_SHARDS: usize = 8;

/// One cached basis plus its invalidation index: the stable ids (see
/// [`Reasoner::add`]) of the dependencies that fired while it was
/// computed, ascending.
///
/// The basis is shared: a hit hands out the `Arc`, so answering from the
/// cache never copies a basis.
#[derive(Debug, Clone)]
struct CacheEntry {
    basis: Arc<DependencyBasis>,
    fired: Vec<u64>,
}

/// Cache-effectiveness counters ([`Reasoner::cache_stats`]). `misses`
/// counts full Algorithm 5.1 runs, so a batch with duplicated left-hand
/// sides must raise it by the number of *distinct* LHSs only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered straight from the cache.
    pub hits: u64,
    /// Queries that ran Algorithm 5.1 (one miss == one basis
    /// computation).
    pub misses: u64,
    /// Entries that survived `Σ` edits because the edited dependency
    /// provably could not affect them.
    pub retained: u64,
    /// Entries evicted — by a `Σ` edit that could affect them, or by
    /// [`Reasoner::clear_cache`].
    pub evicted: u64,
    /// Entries currently live.
    pub entries: u64,
}

/// One exported cache entry ([`Reasoner::export_cache`] /
/// [`Reasoner::restore_parts`]): the public, persistence-facing shape
/// of a cache slot — LHS key, cached basis, and the stable ids of the
/// dependencies that fired while the basis was computed (ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheExport {
    /// The left-hand side the basis was computed for.
    pub lhs: AtomSet,
    /// The cached dependency basis.
    pub basis: DependencyBasis,
    /// Stable ids of the dependencies that fired, ascending.
    pub fired: Vec<u64>,
}

/// Errors from [`Reasoner::restore_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The resource [`Budget`] was exhausted rebuilding the algebra.
    Resource(ResourceExhausted),
    /// A structural invariant of the persisted state is broken
    /// (non-ascending ids, fired-set naming an unknown dependency,
    /// atom sets of the wrong capacity, …).
    Invalid(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Resource(e) => write!(f, "{e}"),
            RestoreError::Invalid(msg) => write!(f, "invalid persisted state: {msg}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A thread-safe per-LHS dependency-basis cache, sharded by the hash of
/// the left-hand side.
///
/// Lookups lock exactly one shard, and no lock is held while a basis is
/// *computed*; within one batch the planner guarantees a distinct LHS is
/// computed once, and concurrent *independent* callers racing on the
/// same fresh LHS produce deterministic, idempotent inserts.
///
/// The same no-lock-while-computing discipline is what makes poison
/// recovery sound: a worker can only panic *outside* the critical
/// sections (every value is fully constructed before `insert` takes the
/// lock), so a poisoned mutex never guards half-written data and the
/// cache simply keeps serving after a worker dies.
#[derive(Debug)]
struct BasisCache {
    shards: Vec<Mutex<HashMap<AtomSet, CacheEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    retained: AtomicU64,
    evicted: AtomicU64,
}

impl Default for BasisCache {
    /// Shard count: one per CPU, floored at [`MIN_CACHE_SHARDS`].
    fn default() -> Self {
        BasisCache::with_shards(default_batch_threads().get().max(MIN_CACHE_SHARDS))
    }
}

impl Clone for BasisCache {
    /// Deep copy: the clone owns independent shard storage (mutating
    /// either side can never leak entries across), with the same shard
    /// count and counters reset.
    fn clone(&self) -> Self {
        let cloned = BasisCache::with_shards(self.shards.len());
        for (src, dst) in self.shards.iter().zip(&cloned.shards) {
            let src = src.lock().unwrap_or_else(PoisonError::into_inner);
            *dst.lock().unwrap_or_else(PoisonError::into_inner) = src.clone();
        }
        cloned
    }
}

impl BasisCache {
    fn with_shards(n: usize) -> Self {
        BasisCache {
            shards: (0..n.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The shard `x` lives in, picked by the hash of `x`.
    fn shard(&self, x: &AtomSet) -> &Mutex<HashMap<AtomSet, CacheEntry>> {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    fn get(&self, x: &AtomSet) -> Option<Arc<DependencyBasis>> {
        let hit = self
            .shard(x)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(x)
            .map(|e| Arc::clone(&e.basis));
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Warmth probe for the batch planner — no stats impact.
    fn contains(&self, x: &AtomSet) -> bool {
        self.shard(x)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(x)
    }

    fn insert(&self, x: AtomSet, entry: CacheEntry) {
        self.shard(&x)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(x, entry);
    }

    /// Keeps only the entries `keep` approves, updating the
    /// retained/evicted counters. Returns `(retained, evicted)` for this
    /// sweep so callers can mirror the deltas into an observability
    /// recorder.
    fn retain(&self, mut keep: impl FnMut(&CacheEntry) -> bool) -> (u64, u64) {
        let mut totals = (0u64, 0u64);
        for shard in &self.shards {
            let mut map = shard.lock().unwrap_or_else(PoisonError::into_inner);
            let before = map.len() as u64;
            map.retain(|_, e| keep(e));
            let after = map.len() as u64;
            self.retained.fetch_add(after, Ordering::Relaxed);
            self.evicted.fetch_add(before - after, Ordering::Relaxed);
            totals.0 += after;
            totals.1 += before - after;
        }
        totals
    }

    fn clear(&self) {
        for shard in &self.shards {
            let mut map = shard.lock().unwrap_or_else(PoisonError::into_inner);
            self.evicted.fetch_add(map.len() as u64, Ordering::Relaxed);
            map.clear();
        }
    }

    fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            retained: self.retained.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// Decides `Σ ⊨ σ` on compiled inputs.
pub fn implies(alg: &Algebra, sigma: &[CompiledDep], dep: &CompiledDep) -> bool {
    derivable(&closure_and_basis(alg, sigma, &dep.lhs), dep)
}

/// Proposition 4.10: `dep` is implied iff its right-hand side is
/// derivable from the dependency basis of its left-hand side.
fn derivable(basis: &DependencyBasis, dep: &CompiledDep) -> bool {
    match dep.kind {
        DepKind::Fd => basis.fd_derivable(&dep.rhs),
        DepKind::Mvd => basis.mvd_derivable(&dep.rhs),
    }
}

/// A convenience engine bundling an ambient attribute, its algebra and a
/// compiled `Σ`, with string-level entry points.
///
/// ```
/// use nalist_guard::Budget;
/// use nalist_membership::Reasoner;
/// use nalist_types::parser::parse_attr;
///
/// let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
/// let mut r = Reasoner::new(&n);
/// r.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])").unwrap();
/// let b = Budget::unlimited();
/// // the mixed meet rule yields: Person determines the visit list shape
/// assert!(r.implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[λ])", &b).unwrap());
/// assert!(!r.implies_str("Pubcrawl(Person) -> Pubcrawl(Visit[Drink(Pub)])", &b).unwrap());
/// ```
#[derive(Debug)]
pub struct Reasoner {
    alg: Algebra,
    compiled: Vec<CompiledDep>,
    /// the anchor masks of `compiled[i]`, index-aligned with `compiled`:
    /// prepared once per edit, read by every cold fixpoint
    prepared: Vec<PreparedDep>,
    /// stable id of each `compiled[i]`, parallel to `compiled`;
    /// ids are never reused, so cached `fired` lists stay unambiguous
    /// across removals
    ids: Vec<u64>,
    /// next id handed out by [`Reasoner::add`]
    next_id: u64,
    /// per-LHS dependency-basis cache, *selectively* invalidated when Σ
    /// changes (see [`Reasoner::add`] / [`Reasoner::remove`])
    cache: BasisCache,
    /// observability sink; the shared noop by default, so unobserved
    /// reasoners pay one never-taken branch per instrumented site
    recorder: Arc<dyn Recorder>,
}

impl Clone for Reasoner {
    /// The clone carries a *deep copy* of the basis cache: warm entries
    /// keep answering on the clone without recomputation, and because
    /// the storage is copied (never shared), a later `Σ` edit on either
    /// side evicts only from that side's own cache. Stats counters
    /// restart at zero on the clone.
    fn clone(&self) -> Self {
        Reasoner {
            alg: self.alg.clone(),
            compiled: self.compiled.clone(),
            prepared: self.prepared.clone(),
            ids: self.ids.clone(),
            next_id: self.next_id,
            cache: self.cache.clone(),
            recorder: Arc::clone(&self.recorder),
        }
    }
}

/// Errors from the string-level [`Reasoner`] API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReasonerError {
    /// Dependency text failed to parse or resolve.
    Parse(ParseError),
    /// Dependency sides are not subattributes of the ambient attribute.
    Type(TypeError),
    /// The query ran out of its resource [`Budget`] (fuel, deadline,
    /// size cap, or cooperative cancellation).
    Resource(ResourceExhausted),
    /// Witness construction failed while refuting a non-implied
    /// dependency.
    Witness(WitnessError),
    /// Proof construction hit an invalid rule instance while certifying
    /// an implied dependency (see [`CertifyError`]).
    Certify(CertifyError),
    /// A raw atom-set argument violated Algorithm 5.1's downward-closed
    /// precondition (`X` is not an element of `Sub(N)`).
    NotDownwardClosed {
        /// A witness atom present without its list-node ancestors.
        atom: usize,
    },
    /// A raw atom-set argument was built for a different universe than
    /// this reasoner's algebra ([`AlgebraError::CapacityMismatch`]).
    Algebra(AlgebraError),
}

impl std::fmt::Display for ReasonerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReasonerError::Parse(e) => write!(f, "parse error: {e}"),
            ReasonerError::Type(e) => write!(f, "type error: {e}"),
            ReasonerError::Resource(e) => write!(f, "{e}"),
            ReasonerError::Witness(e) => write!(f, "witness error: {e}"),
            ReasonerError::Certify(e) => write!(f, "certify error: {e}"),
            ReasonerError::NotDownwardClosed { atom } => {
                ClosureError::NotDownwardClosed { atom: *atom }.fmt(f)
            }
            ReasonerError::Algebra(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReasonerError {}

impl From<ResourceExhausted> for ReasonerError {
    fn from(e: ResourceExhausted) -> Self {
        ReasonerError::Resource(e)
    }
}

impl From<ClosureError> for ReasonerError {
    fn from(e: ClosureError) -> Self {
        match e {
            ClosureError::Resource(r) => ReasonerError::Resource(r),
            ClosureError::NotDownwardClosed { atom } => ReasonerError::NotDownwardClosed { atom },
            ClosureError::Algebra(a) => ReasonerError::Algebra(a),
        }
    }
}

impl From<CertifyError> for ReasonerError {
    fn from(e: CertifyError) -> Self {
        ReasonerError::Certify(e)
    }
}

/// Per-item failure inside a batch call ([`Reasoner::implies_batch`]):
/// the failed query is reported here while the rest of the batch
/// completes normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query ran out of the batch's shared resource [`Budget`].
    Resource(ResourceExhausted),
    /// The query panicked; the panic was confined to this item.
    Panicked {
        /// The rendered panic payload: string payloads verbatim, typed
        /// payloads with their type name preserved (see
        /// [`panic_message`]).
        message: String,
    },
    /// The query's input was invalid (e.g. a raw atom set that is not
    /// downward closed).
    Invalid {
        /// Human-readable description of the violated precondition.
        message: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Resource(e) => write!(f, "{e}"),
            QueryError::Panicked { message } => write!(f, "query panicked: {message}"),
            QueryError::Invalid { message } => write!(f, "invalid query: {message}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Renders a caught panic payload for [`QueryError::Panicked`].
///
/// `&str`/`String` payloads (what `panic!` produces) are rendered
/// verbatim. Typed payloads thrown via `std::panic::panic_any` used to
/// collapse into an anonymous `"non-string panic payload"`; known typed
/// payloads now keep their type name, and unknown ones at least carry
/// their `TypeId` so distinct payload types stay distinguishable.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<nalist_guard::InjectedPanic>() {
        format!(
            "typed panic payload nalist_guard::InjectedPanic (site: {})",
            p.site
        )
    } else {
        format!(
            "non-string panic payload of type {:?}",
            payload.as_ref().type_id()
        )
    }
}

impl Reasoner {
    /// Creates a reasoner over the ambient attribute `n` with empty `Σ`.
    pub fn new(n: &NestedAttr) -> Self {
        Reasoner::try_new(n, &Budget::unlimited(), Arc::new(nalist_obs::NoopRecorder))
            .expect("unlimited budget cannot be exhausted")
    }

    /// [`Reasoner::new`] under a resource [`Budget`] and an observability
    /// recorder. Algebra construction (the memory hot spot — see
    /// [`Algebra::try_new`]) honours the budget's `max_atoms`, fuel and
    /// deadline and runs under an `algebra::atoms` span; every later
    /// query on this reasoner reports spans, counters and histograms to
    /// `rec` (see the `nalist-obs` crate). Threading mirrors [`Budget`]:
    /// the recorder rides along on the reasoner instead of appearing in
    /// every method signature.
    pub fn try_new(
        n: &NestedAttr,
        budget: &Budget,
        rec: Arc<dyn Recorder>,
    ) -> Result<Self, ResourceExhausted> {
        Ok(Reasoner {
            alg: Algebra::try_new(n, budget, rec.as_ref())?,
            compiled: Vec::new(),
            prepared: Vec::new(),
            ids: Vec::new(),
            next_id: 0,
            cache: BasisCache::default(),
            recorder: rec,
        })
    }

    /// Replaces the observability recorder (builder style).
    #[must_use]
    pub fn with_recorder(mut self, rec: Arc<dyn Recorder>) -> Self {
        self.recorder = rec;
        self
    }

    /// The active observability recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
    }

    /// The ambient attribute.
    pub fn attr(&self) -> &NestedAttr {
        self.alg.attr()
    }

    /// The underlying algebra.
    pub fn algebra(&self) -> &Algebra {
        &self.alg
    }

    /// The current `Σ`, compiled.
    pub fn compiled_sigma(&self) -> &[CompiledDep] {
        &self.compiled
    }

    /// Adds a dependency to `Σ`, evicting only the cached bases the new
    /// dependency can actually change.
    ///
    /// A cached basis survives iff one step of the new dependency is a
    /// no-op at that basis ([`step_would_change`] replays the step
    /// non-mutatingly): the cached state is then a fixpoint of
    /// `Σ ∪ {dep}` too, and by the confluence theorem (Theorem 6.3)
    /// every fixpoint *is* the canonical basis — so the surviving entry
    /// is bit-identical to a from-scratch recompute. Note the weaker
    /// "does `dep`'s footprint intersect the entry's LHS?" test is
    /// unsound here: a dependency can anchor on atoms the original run
    /// never touched.
    pub fn add(&mut self, dep: Dependency) -> Result<(), ReasonerError> {
        let c = dep.compile(&self.alg).map_err(ReasonerError::Type)?;
        self.add_compiled(c);
        Ok(())
    }

    /// Adds a dependency written as `"X -> Y"` / `"X ->> Y"`, resolved
    /// straight to atom sets ([`CompiledDep::parse`]).
    pub fn add_str(&mut self, src: &str) -> Result<(), ReasonerError> {
        let c = self.parse_dep(src, ParseLimits::default())?;
        self.add_compiled(c);
        Ok(())
    }

    /// [`Reasoner::add`] for a dependency already compiled against this
    /// reasoner's algebra (e.g. by [`CompiledDep::parse`]).
    pub fn add_compiled(&mut self, c: CompiledDep) {
        let prepared = c.prepare(&self.alg);
        self.evict_if_step_fires(&c, &prepared);
        self.append(c, prepared, self.next_id);
        self.next_id += 1;
    }

    /// Appends one dependency to the index-aligned `Σ` vectors.
    fn append(&mut self, c: CompiledDep, prepared: PreparedDep, id: u64) {
        self.compiled.push(c);
        self.prepared.push(prepared);
        self.ids.push(id);
    }

    /// Resolves dependency text against this reasoner's algebra.
    fn parse_dep(&self, src: &str, limits: ParseLimits) -> Result<CompiledDep, ReasonerError> {
        CompiledDep::parse(&self.alg, src, limits).map_err(ReasonerError::Parse)
    }

    /// Removes the first dependency of `Σ` equal to `dep` (compiled
    /// comparison, so distinct spellings of the same dependency match).
    /// Returns whether anything was removed.
    ///
    /// Only cached bases whose computation the removed dependency
    /// *fired in* are evicted: a dependency that never fired contributed
    /// no step to the run's trajectory, so replaying the run without it
    /// visits the exact same states and converges to the bit-identical
    /// basis.
    pub fn remove(&mut self, dep: &Dependency) -> Result<bool, ReasonerError> {
        let c = dep.compile(&self.alg).map_err(ReasonerError::Type)?;
        Ok(self.remove_compiled(&c))
    }

    /// [`Reasoner::remove`] for a dependency written as `"X -> Y"` /
    /// `"X ->> Y"`.
    pub fn remove_str(&mut self, src: &str) -> Result<bool, ReasonerError> {
        let c = self.parse_dep(src, ParseLimits::default())?;
        Ok(self.remove_compiled(&c))
    }

    /// [`Reasoner::remove`] for a dependency already compiled against
    /// this reasoner's algebra.
    pub fn remove_compiled(&mut self, c: &CompiledDep) -> bool {
        match self.compiled.iter().position(|have| have == c) {
            Some(i) => {
                self.remove_at(i);
                true
            }
            None => false,
        }
    }

    /// Removes `compiled_sigma()[i]`, evicting only the cached bases it
    /// fired in.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn remove_at(&mut self, i: usize) {
        let removed_id = self.ids.remove(i);
        self.compiled.remove(i);
        self.prepared.remove(i);
        self.observed_retain(|entry| !entry.fired.contains(&removed_id));
    }

    /// Evicts every cached entry at which one step of `dep` (with its
    /// anchor masks `prepared`) would change the basis (the `add`
    /// eviction rule).
    fn evict_if_step_fires(&self, dep: &CompiledDep, prepared: &PreparedDep) {
        self.observed_retain(|entry| !step_would_change(&self.alg, dep, prepared, &entry.basis));
    }

    /// [`BasisCache::retain`] with the eviction sweep mirrored into the
    /// recorder: a `cache::evict` span (enter payload: live entries
    /// before, exit payload: entries evicted) plus the
    /// `cache_retained` / `cache_evicted` counters.
    fn observed_retain(&self, keep: impl FnMut(&CacheEntry) -> bool) {
        let rec = self.recorder.as_ref();
        if !rec.enabled() {
            self.cache.retain(keep);
            return;
        }
        let before = self.cache.stats().entries;
        let token = rec.enter(nalist_obs::site::CACHE_EVICT, before);
        let (retained, evicted) = self.cache.retain(keep);
        rec.add(Counter::CacheRetained, retained);
        rec.add(Counter::CacheEvicted, evicted);
        rec.exit(token, evicted);
    }

    /// Drops every cached basis. This is the pre-incremental behaviour
    /// of `Σ` edits, kept public as the cold-cache baseline for
    /// benchmarks and tests.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Cache-effectiveness counters for this reasoner (clones restart
    /// from zero).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The stable id of each `compiled_sigma()[i]`, parallel to
    /// [`Reasoner::compiled_sigma`].
    /// Ids are handed out by [`Reasoner::add`] and never reused, so they
    /// survive arbitrary interleavings of adds and removals — the
    /// property persistence (`membership::persist`) is keyed on.
    pub fn dep_ids(&self) -> &[u64] {
        &self.ids
    }

    /// The id the next [`Reasoner::add`] will assign.
    pub fn next_dep_id(&self) -> u64 {
        self.next_id
    }

    /// Every live cache entry — LHS key, basis and fired-set — sorted
    /// by LHS, so the export is deterministic regardless of shard count
    /// or hash order. This is the warm state a snapshot persists.
    pub fn export_cache(&self) -> Vec<CacheExport> {
        let mut out = Vec::new();
        for shard in &self.cache.shards {
            let map = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for (lhs, entry) in map.iter() {
                out.push(CacheExport {
                    lhs: lhs.clone(),
                    basis: DependencyBasis::clone(&entry.basis),
                    fired: entry.fired.clone(),
                });
            }
        }
        out.sort_by(|a, b| a.lhs.cmp(&b.lhs));
        out
    }

    /// Rebuilds a reasoner from persisted parts: `Σ` with *pinned*
    /// stable ids, the id counter, and previously warm cache entries
    /// (inserted verbatim — no eviction sweep, no stats impact), so the
    /// result is bit-identical to the reasoner that was exported.
    ///
    /// Everything is validated: this entry point accepts bytes that
    /// merely passed a checksum, which guards against accidental
    /// corruption but not against a well-formed file encoding broken
    /// invariants.
    pub fn restore_parts(
        n: &NestedAttr,
        sigma: Vec<(u64, String)>,
        next_id: u64,
        cache: Vec<CacheExport>,
        budget: &Budget,
        rec: Arc<dyn Recorder>,
    ) -> Result<Self, RestoreError> {
        let mut r = Reasoner::try_new(n, budget, rec).map_err(RestoreError::Resource)?;
        let mut prev: Option<u64> = None;
        for (id, text) in sigma {
            if prev.is_some_and(|p| p >= id) {
                return Err(RestoreError::Invalid(
                    "dependency ids are not strictly ascending".to_string(),
                ));
            }
            if id >= next_id {
                return Err(RestoreError::Invalid(format!(
                    "dependency id {id} is not below the next-id counter {next_id}"
                )));
            }
            prev = Some(id);
            let c = CompiledDep::parse(&r.alg, &text, ParseLimits::default()).map_err(|e| {
                RestoreError::Invalid(format!("dependency {text:?} does not parse back: {e}"))
            })?;
            let prepared = c.prepare(&r.alg);
            r.append(c, prepared, id);
        }
        r.next_id = next_id;
        let atoms = r.alg.atom_count();
        for entry in cache {
            for (set, what) in std::iter::once((&entry.lhs, "LHS"))
                .chain(std::iter::once((&entry.basis.closure, "closure")))
                .chain(entry.basis.blocks.iter().map(|b| (b, "block")))
                .chain(entry.basis.basis.iter().map(|b| (b, "basis element")))
            {
                if set.capacity() != atoms {
                    return Err(RestoreError::Invalid(format!(
                        "cache entry {what} is over {} atoms, schema has {atoms}",
                        set.capacity()
                    )));
                }
            }
            if !r.alg.is_downward_closed(&entry.lhs) {
                return Err(RestoreError::Invalid(
                    "cache entry LHS is not downward closed".to_string(),
                ));
            }
            let mut prev_fired: Option<u64> = None;
            for &id in &entry.fired {
                if prev_fired.is_some_and(|p| p >= id) {
                    return Err(RestoreError::Invalid(
                        "cache entry fired-set is not strictly ascending".to_string(),
                    ));
                }
                prev_fired = Some(id);
                if r.ids.binary_search(&id).is_err() {
                    return Err(RestoreError::Invalid(format!(
                        "cache entry fired on dependency id {id} which is not in Σ"
                    )));
                }
            }
            r.cache.insert(
                entry.lhs,
                CacheEntry {
                    basis: Arc::new(entry.basis),
                    fired: entry.fired,
                },
            );
        }
        Ok(r)
    }

    /// Decides `Σ ⊨ σ` under a resource [`Budget`], using the per-LHS
    /// basis cache. The answer, when one is returned, is exactly the
    /// unbudgeted answer — a starved run yields
    /// [`ReasonerError::Resource`], never a wrong verdict.
    /// Both sides must belong to this reasoner's universe: a foreign
    /// capacity or a side that is not downward closed is an error, not
    /// a verdict.
    pub fn implies(&self, dep: &CompiledDep, budget: &Budget) -> Result<bool, ReasonerError> {
        check_downward_closed(&self.alg, &dep.rhs)?;
        let basis = self.cached_basis(&dep.lhs, budget)?;
        Ok(derivable(&basis, dep))
    }

    /// Decides `Σ ⊨ σ` for every dependency in `deps` on up to `threads`
    /// workers (capped at the number of distinct left-hand sides;
    /// [`default_batch_threads`] is one per CPU) under a shared resource
    /// [`Budget`], with **per-query fault isolation**: a query that
    /// exhausts the budget or panics yields a per-item `Err` while the
    /// rest of the batch completes — graceful degradation, not
    /// all-or-nothing. A dependency whose sides do not belong to this
    /// reasoner's universe (wrong capacity, or not downward closed) is
    /// reported up front, before any work is spawned. The result vector
    /// is index-aligned with `deps`; workers share the basis cache, so
    /// duplicated left-hand sides are computed once.
    pub fn implies_batch(
        &self,
        deps: &[CompiledDep],
        budget: &Budget,
        threads: NonZeroUsize,
    ) -> Result<Vec<Result<bool, QueryError>>, ReasonerError> {
        for side in deps.iter().flat_map(|c| [&c.lhs, &c.rhs]) {
            check_downward_closed(&self.alg, side)?;
        }
        let groups = self.plan_groups(deps.iter().map(|c| &c.lhs));
        let slots: Vec<OnceLock<Result<bool, QueryError>>> =
            (0..deps.len()).map(|_| OnceLock::new()).collect();
        let rec = self.recorder.as_ref();
        // Computes a group's basis once (panic- and budget-isolated), then
        // fans it out to every member; per-item slots keep the output
        // index-aligned with `deps`.
        let fill = |g: &PlanGroup| {
            // span per planner group (enter: member count; exit: members
            // answered OK), plus a per-query span and latency histogram
            // when observability is on — all behind one `enabled` check
            // so the unobserved batch path stays timer-free.
            let enabled = rec.enabled();
            let gtoken =
                enabled.then(|| rec.enter(nalist_obs::site::BATCH_GROUP, g.members.len() as u64));
            let gstart = enabled.then(Instant::now);
            let mut ok_members = 0u64;
            match self.isolated(|| self.cached_basis(&g.x, budget)) {
                Ok(basis) => {
                    for &i in &g.members {
                        let qtoken =
                            enabled.then(|| rec.enter(nalist_obs::site::BATCH_QUERY, i as u64));
                        let qstart = enabled.then(Instant::now);
                        // the verdict is also confined per item: a panic
                        // while deriving one member's answer must not take
                        // down its LHS-mates.
                        let r = catch_unwind(AssertUnwindSafe(|| derivable(&basis, &deps[i])))
                            .map_err(|payload| QueryError::Panicked {
                                message: panic_message(payload),
                            });
                        let item_ok = r.is_ok();
                        ok_members += u64::from(item_ok);
                        if let (Some(t), Some(start)) = (qtoken, qstart) {
                            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                            rec.observe(Hist::QueryNs, ns);
                            rec.add(Counter::BatchQueries, 1);
                            rec.exit(t, u64::from(item_ok));
                        }
                        let filled = slots[i].set(r);
                        debug_assert!(filled.is_ok(), "item {i} claimed twice");
                    }
                }
                Err(e) => {
                    for &i in &g.members {
                        if enabled {
                            rec.add(Counter::BatchQueries, 1);
                        }
                        let filled = slots[i].set(Err(e.clone()));
                        debug_assert!(filled.is_ok(), "item {i} claimed twice");
                    }
                }
            }
            if let (Some(t), Some(start)) = (gtoken, gstart) {
                let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                rec.observe(Hist::GroupNs, ns);
                rec.exit(t, ok_members);
            }
        };
        let workers = threads.get().min(groups.len());
        if rec.enabled() {
            rec.add(Counter::BatchThreads, workers as u64);
        }
        if workers <= 1 {
            for g in &groups {
                fill(g);
            }
        } else {
            // One shared cursor hands out each group exactly once, in the
            // planner's warm-then-cold order; the calling thread is one of
            // the workers. Which worker computes a group, and when, cannot
            // change its basis (Theorem 6.3), and each result lands in its
            // own `OnceLock` slots, so the output is bit-identical to
            // sequential execution. `Relaxed` suffices: the cursor
            // publishes no data, since the groups are fixed before the
            // workers start and results travel through the `OnceLock`s.
            let next = AtomicUsize::new(0);
            let drain = || {
                while let Some(g) = groups.get(next.fetch_add(1, Ordering::Relaxed)) {
                    fill(g);
                }
            };
            std::thread::scope(|s| {
                for _ in 1..workers {
                    s.spawn(drain);
                }
                drain();
            });
        }
        Ok(slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("every item belongs to exactly one group")
            })
            .collect())
    }

    /// The batch query planner: deduplicates batch items by left-hand
    /// side (each distinct LHS becomes one [`PlanGroup`], computed
    /// exactly once) and orders cache-warm LHSs before cold ones —
    /// warm groups answer instantly, freeing workers and the shared
    /// budget's headroom for the cold groups as early as possible.
    /// Warm/cold ordering is stable by first occurrence, so single-thread
    /// execution is deterministic.
    fn plan_groups<'a>(&self, lhss: impl Iterator<Item = &'a AtomSet>) -> Vec<PlanGroup> {
        let mut index: HashMap<&'a AtomSet, usize> = HashMap::new();
        let mut groups: Vec<PlanGroup> = Vec::new();
        for (i, x) in lhss.enumerate() {
            match index.entry(x) {
                Entry::Occupied(e) => groups[*e.get()].members.push(i),
                Entry::Vacant(v) => {
                    v.insert(groups.len());
                    groups.push(PlanGroup {
                        x: x.clone(),
                        members: vec![i],
                    });
                }
            }
        }
        let (warm, cold): (Vec<_>, Vec<_>) =
            groups.into_iter().partition(|g| self.cache.contains(&g.x));
        warm.into_iter().chain(cold).collect()
    }

    /// Runs one batch item with panic confinement: a panicking query
    /// becomes [`QueryError::Panicked`] instead of unwinding through the
    /// worker (the sharded cache tolerates the poisoned shard — see
    /// [`BasisCache`]).
    fn isolated<T>(&self, f: impl FnOnce() -> Result<T, ClosureError>) -> Result<T, QueryError> {
        catch_unwind(AssertUnwindSafe(f))
            .map_err(|payload| QueryError::Panicked {
                message: panic_message(payload),
            })?
            .map_err(|e| match e {
                ClosureError::Resource(r) => QueryError::Resource(r),
                invalid @ (ClosureError::NotDownwardClosed { .. } | ClosureError::Algebra(_)) => {
                    QueryError::Invalid {
                        message: invalid.to_string(),
                    }
                }
            })
    }

    /// Decides `Σ ⊨ σ` for a dependency written as text, under a resource
    /// [`Budget`]: the budget's `max_depth` also caps the query text's
    /// nesting.
    pub fn implies_str(&self, src: &str, budget: &Budget) -> Result<bool, ReasonerError> {
        let c = self.parse_dep(src, ParseLimits::from_budget(budget))?;
        self.implies(&c, budget)
    }

    /// Attribute-set closure `X⁺` of a subattribute given as text, under
    /// a resource [`Budget`] (whose `max_depth` also caps the text's
    /// nesting). Bypasses the basis cache.
    pub fn closure_str(&self, src: &str, budget: &Budget) -> Result<NestedAttr, ReasonerError> {
        let x = self.parse_subattr(src, budget)?;
        let fixed = run(&self.alg, &self.compiled, &self.prepared, &x, budget)?;
        Ok(self.alg.to_attr(&fixed.basis.closure))
    }

    /// Parses `src` as a subattribute of the ambient attribute under the
    /// budget's nesting limit and compiles it to an atom set.
    fn parse_subattr(&self, src: &str, budget: &Budget) -> Result<AtomSet, ReasonerError> {
        nalist_types::parser::parse_loose_with(src, ParseLimits::from_budget(budget))
            .and_then(|d| self.alg.resolve(&d, src))
            .map_err(ReasonerError::Parse)
    }

    /// Full dependency basis for a subattribute `X`. Results are cached
    /// per left-hand side, and `Σ` edits evict only the entries they can
    /// affect, so repeated queries with the same `X` (common in
    /// cover/normal-form workloads) pay once even across edits.
    ///
    /// # Panics
    /// Panics if `x` is not downward closed (not an element of `Sub(N)`)
    /// or was built for a universe of a different capacity than this
    /// reasoner's algebra. [`Reasoner::dependency_basis_governed`]
    /// returns both as a [`ClosureError`] instead.
    pub fn dependency_basis(&self, x: &AtomSet) -> DependencyBasis {
        self.dependency_basis_governed(x, &Budget::unlimited())
            .expect("X must be downward closed and match the algebra's capacity")
    }

    /// [`Reasoner::dependency_basis`] under a resource [`Budget`]. Only
    /// complete fixpoints are ever cached: a budget-truncated run returns
    /// `Err` without touching the cache, so later (better-funded) queries
    /// can never observe a partial basis. A non-downward-closed `x`
    /// yields [`ClosureError::NotDownwardClosed`] (checked, not just
    /// debug-asserted — this entry point accepts raw atom sets).
    pub fn dependency_basis_governed(
        &self,
        x: &AtomSet,
        budget: &Budget,
    ) -> Result<DependencyBasis, ClosureError> {
        self.cached_basis(x, budget)
            .map(|b| DependencyBasis::clone(&b))
    }

    /// The cache lookup behind every basis query: a hit shares the cached
    /// `Arc`, a miss runs the fixpoint on the prepared `Σ` and caches it.
    fn cached_basis(
        &self,
        x: &AtomSet,
        budget: &Budget,
    ) -> Result<Arc<DependencyBasis>, ClosureError> {
        let rec = self.recorder.as_ref();
        if rec.enabled() {
            let token = rec.enter(nalist_obs::site::CACHE_LOOKUP, x.count() as u64);
            let hit = self.cache.get(x);
            let counter = if hit.is_some() {
                Counter::CacheHits
            } else {
                Counter::CacheMisses
            };
            rec.add(counter, 1);
            rec.exit(token, u64::from(hit.is_some()));
            if let Some(hit) = hit {
                return Ok(hit);
            }
        } else if let Some(hit) = self.cache.get(x) {
            return Ok(hit);
        }
        let run = fixpoint(&self.alg, &self.compiled, &self.prepared, x, budget, rec)?;
        // `run.fired` indexes Σ in ascending order and ids grow with the
        // index, so the mapped list stays ascending.
        let fired = run.fired.iter().map(|&i| self.ids[i]).collect();
        let basis = Arc::new(run.basis);
        self.cache.insert(
            x.clone(),
            CacheEntry {
                basis: Arc::clone(&basis),
                fired,
            },
        );
        Ok(basis)
    }

    /// Dependency basis for a subattribute given in abbreviated notation,
    /// under a resource [`Budget`] (whose `max_depth` also caps the
    /// text's nesting).
    pub fn dependency_basis_str(
        &self,
        src: &str,
        budget: &Budget,
    ) -> Result<DependencyBasis, ReasonerError> {
        let x = self.parse_subattr(src, budget)?;
        Ok(self.dependency_basis_governed(&x, budget)?)
    }

    /// Decides `Σ ⊨ σ` and returns evidence: a checkable derivation DAG
    /// when implied, a verified counterexample instance when not.
    pub fn decide_with_evidence(&self, src: &str) -> Result<Evidence, ReasonerError> {
        let c = self.parse_dep(src, ParseLimits::default())?;
        let budget = Budget::unlimited();
        match crate::certify::certify(&self.alg, &self.compiled, &c, &budget)? {
            Some(proof) => Ok(Evidence::Implied { proof }),
            None => {
                // Σ ⊭ σ, so the completeness construction yields a
                // witness; a `None` here means the two procedures
                // disagree — surface it as a typed error, not a panic.
                match crate::witness::refute(&self.alg, &self.compiled, &c, &budget)
                    .map_err(ReasonerError::Witness)?
                {
                    Some(witness) => Ok(Evidence::NotImplied {
                        witness: Box::new(witness),
                    }),
                    None => Err(ReasonerError::Witness(WitnessError::Implied)),
                }
            }
        }
    }
}

/// Default batch-worker count for [`Reasoner::implies_batch`]: one per
/// available CPU (what the `nalist batch` command uses when no explicit
/// `--threads` is given). Falls back to 1 when the platform cannot
/// report its parallelism.
pub fn default_batch_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// One deduplicated unit of planned batch work: a distinct left-hand
/// side and the indices of every batch item that shares it. A group is
/// claimed by exactly one worker.
struct PlanGroup {
    x: AtomSet,
    members: Vec<usize>,
}

/// Evidence accompanying a membership verdict (see
/// [`Reasoner::decide_with_evidence`]).
#[derive(Debug, Clone)]
pub enum Evidence {
    /// The dependency is implied; the proof DAG re-verifies against `Σ`.
    Implied {
        /// A machine-checkable derivation over the 14 rules.
        proof: nalist_deps::ProofDag,
    },
    /// The dependency is not implied; the witness satisfies `Σ` and
    /// violates the dependency.
    NotImplied {
        /// The verified counterexample.
        witness: Box<crate::witness::Witness>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use nalist_types::parser::parse_attr;

    fn compile_all(r: &Reasoner, deps: &[Dependency]) -> Vec<CompiledDep> {
        deps.iter()
            .map(|d| d.compile(r.algebra()).unwrap())
            .collect()
    }

    #[test]
    fn reasoner_end_to_end() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(B) ->> L(C)").unwrap();
        assert!(r.implies_str("L(A) -> L(B)", &b).unwrap());
        assert!(r.implies_str("L(A) ->> L(B)", &b).unwrap());
        assert!(!r.implies_str("L(B) -> L(A)", &b).unwrap());
        assert_eq!(r.closure_str("L(A)", &b).unwrap().to_string(), "L(A, B, λ)");
        assert_eq!(r.compiled_sigma().len(), 2);
    }

    #[test]
    fn equivalence_of_fd_and_derived_mvd() {
        let b = Budget::unlimited();
        // FD implies MVD (implication rule), checked through the decision
        // procedure rather than the rules.
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B, C)").unwrap();
        assert!(r.implies_str("L(A) ->> L(B)", &b).unwrap());
        assert!(r.implies_str("L(A) ->> L(C)", &b).unwrap());
    }

    #[test]
    fn parse_errors_surface() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B)").unwrap();
        let mut r = Reasoner::new(&n);
        assert!(matches!(
            r.add_str("L(Z) -> L(A)"),
            Err(ReasonerError::Parse(_))
        ));
        assert!(matches!(
            r.implies_str("garbage", &b),
            Err(ReasonerError::Parse(_))
        ));
    }

    #[test]
    fn evidence_api() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        match r.decide_with_evidence("L(A) ->> L(B)").unwrap() {
            Evidence::Implied { proof } => {
                proof.check(r.algebra(), r.compiled_sigma(), &b).unwrap();
            }
            Evidence::NotImplied { .. } => panic!("should be implied"),
        }
        match r.decide_with_evidence("L(A) -> L(C)").unwrap() {
            Evidence::NotImplied { witness } => {
                assert!(witness
                    .instance
                    .satisfies_all(r.algebra(), r.compiled_sigma()));
            }
            Evidence::Implied { .. } => panic!("should not be implied"),
        }
        let basis = r.dependency_basis_str("L(A)", &b).unwrap();
        assert!(basis.fd_derivable(&basis.closure));
    }

    #[test]
    fn basis_cache_invalidated_on_add() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        // query once (fills the cache), then change Σ and re-query
        assert!(!r.implies_str("L(A) -> L(C)", &b).unwrap());
        r.add_str("L(B) -> L(C)").unwrap();
        assert!(r.implies_str("L(A) -> L(C)", &b).unwrap());
        // repeated queries hit the cache and stay consistent
        for _ in 0..3 {
            assert!(r.implies_str("L(A) -> L(C)", &b).unwrap());
        }
        // clones carry a deep copy of the cache and remain independent
        let r2 = r.clone();
        assert!(r2.implies_str("L(A) -> L(C)", &b).unwrap());
    }

    #[test]
    fn reasoner_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Reasoner>();
    }

    #[test]
    fn cloned_reasoner_shares_no_stale_cache_state() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        // warm the original's cache for LHS = L(A)
        assert!(!r.implies_str("L(A) -> L(C)", &b).unwrap());
        let mut r2 = r.clone();
        // diverge the clone's Σ — this must invalidate only ITS cache...
        r2.add_str("L(B) -> L(C)").unwrap();
        assert!(r2.implies_str("L(A) -> L(C)", &b).unwrap());
        // ...and the original must not observe the clone's entries
        assert!(!r.implies_str("L(A) -> L(C)", &b).unwrap());
        // the mirror-image direction: mutate the original instead
        r.add_str("L(A) -> L(C)").unwrap();
        assert!(r.implies_str("L(A) -> L(C)", &b).unwrap());
        assert_eq!(r2.compiled_sigma().len(), 2);
        assert!(!r2.implies_str("L(B) -> L(A)", &b).unwrap());
    }

    #[test]
    fn implies_batch_agrees_with_sequential() {
        let b = Budget::unlimited();
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        r.add_str("A'(C[λ]) -> A'(B)").unwrap();
        let queries = [
            "A'(B) -> A'(C[λ])",
            "A'(B) ->> A'(C[D(F[λ])])",
            "A'(C[λ]) ->> A'(B, C[D(E)])",
            "A'(B) -> A'(B, C[D(E, F[G])])",
            "λ ->> A'(C[λ])",
            "A'(C[D(E)]) -> A'(B)",
        ];
        let deps: Vec<Dependency> = queries
            .iter()
            .map(|q| Dependency::parse(&n, q).unwrap())
            .collect();
        let deps = compile_all(&r, &deps);
        let sequential: Vec<_> = deps.iter().map(|d| Ok(r.implies(d, &b).unwrap())).collect();
        for threads in [1, 2, 4] {
            let batch = r
                .implies_batch(&deps, &b, NonZeroUsize::new(threads).unwrap())
                .unwrap();
            assert_eq!(batch, sequential, "threads = {threads}");
        }
        let batch = r.implies_batch(&deps, &b, default_batch_threads());
        assert_eq!(batch.unwrap(), sequential);
    }

    #[test]
    fn implies_batch_fails_fast_on_bad_input() {
        let n = parse_attr("L(A, B)").unwrap();
        let r = Reasoner::new(&n);
        let good = CompiledDep::parse(r.algebra(), "L(A) -> L(B)", ParseLimits::default()).unwrap();
        let m = Reasoner::new(&parse_attr("M(C)").unwrap());
        let foreign =
            CompiledDep::parse(m.algebra(), "M(C) -> M(C)", ParseLimits::default()).unwrap();
        assert!(matches!(
            r.implies_batch(&[good, foreign], &Budget::unlimited(), NonZeroUsize::MIN),
            Err(ReasonerError::Algebra(_))
        ));
        // a side that is not downward closed is refused up front too
        // atoms of L(A, M[B]): A = 0, M = 1, B = 2 — {B} lacks its list M
        let b_only = CompiledDep::fd(AtomSet::empty(3), AtomSet::from_indices(3, [2]));
        let r = Reasoner::new(&parse_attr("L(A, M[B])").unwrap());
        assert!(matches!(
            r.implies_batch(&[b_only], &Budget::unlimited(), NonZeroUsize::MIN),
            Err(ReasonerError::NotDownwardClosed { atom: 2 })
        ));
    }

    #[test]
    fn implies_batch_caches_the_sequential_bases() {
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) ->> L(B)").unwrap();
        r.add_str("L(B) -> L(C)").unwrap();
        let xs: Vec<AtomSet> = ["λ", "L(A)", "L(B)", "L(A, D)"]
            .iter()
            .map(|s| {
                let sub = nalist_types::parser::parse_subattr_of(&n, s).unwrap();
                r.algebra().from_attr(&sub).unwrap()
            })
            .collect();
        let sequential: Vec<_> = xs.iter().map(|x| r.dependency_basis(x)).collect();
        // one query per LHS: X -> X⁺ is implied exactly when the batch
        // computed the same closure as the sequential run
        let deps: Vec<CompiledDep> = xs
            .iter()
            .zip(&sequential)
            .map(|(x, basis)| CompiledDep::fd(x.clone(), basis.closure.clone()))
            .collect();
        let b = Budget::unlimited();
        for threads in [1, 3] {
            let fresh = r.clone();
            fresh.clear_cache();
            let batch = fresh
                .implies_batch(&deps, &b, NonZeroUsize::new(threads).unwrap())
                .unwrap();
            assert_eq!(batch, vec![Ok(true); xs.len()], "threads = {threads}");
            // the bases the batch cached are the sequential ones: reading
            // them back is all hits and no new computation
            let misses = fresh.cache_stats().misses;
            let cached: Vec<_> = xs.iter().map(|x| fresh.dependency_basis(x)).collect();
            assert_eq!(cached, sequential, "threads = {threads}");
            assert_eq!(fresh.cache_stats().misses, misses, "threads = {threads}");
        }
    }

    #[test]
    fn batch_planner_computes_each_distinct_lhs_once() {
        // Regression for the duplicate-LHS double-compute race: before
        // the planner, two workers racing on the same cold LHS both ran
        // Algorithm 5.1 (the shard lock is dropped during compute). The
        // planner folds equal LHSs into one group, so `misses` — which
        // counts full basis computations — must equal the number of
        // *distinct* LHSs at any thread count.
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) ->> L(B)").unwrap();
        r.add_str("L(B) -> L(C)").unwrap();
        let dep = |s: &str| CompiledDep::parse(r.algebra(), s, ParseLimits::default()).unwrap();
        let deps = vec![
            dep("L(A) -> L(C)"),
            dep("L(B) -> L(C)"),
            dep("L(A) ->> L(B)"),
            dep("L(A) -> L(D)"),
            dep("L(B) -> L(A)"),
            dep("L(A) ->> L(C, D)"),
        ];
        let sequential: Vec<_> = deps
            .iter()
            .map(|d| Ok(r.implies(d, &Budget::unlimited()).unwrap()))
            .collect();
        for threads in [1, 4] {
            let fresh = r.clone();
            fresh.clear_cache();
            let threads = NonZeroUsize::new(threads).unwrap();
            let batch = fresh
                .implies_batch(&deps, &Budget::unlimited(), threads)
                .unwrap();
            assert_eq!(batch, sequential, "threads = {threads}");
            let stats = fresh.cache_stats();
            assert_eq!(
                stats.misses, 2,
                "threads = {threads}: each distinct LHS computed exactly once"
            );
            assert_eq!(stats.entries, 2, "threads = {threads}");
        }
    }

    #[test]
    fn clone_carries_warm_cache() {
        let b = Budget::unlimited();
        // Regression: `Reasoner::clone` used to silently drop every
        // cached basis. The clone must answer warm LHSs without any new
        // basis computation.
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        assert!(r.implies_str("L(A) -> L(B)", &b).unwrap());
        let warmed = r.cache_stats();
        assert_eq!((warmed.misses, warmed.entries), (1, 1));
        let r2 = r.clone();
        // stats restart on the clone, but the entries came along
        assert_eq!(r2.cache_stats().entries, 1);
        assert!(r2.implies_str("L(A) -> L(B)", &b).unwrap());
        let after = r2.cache_stats();
        assert_eq!(after.misses, 0, "warm query on the clone recomputed");
        assert_eq!(after.hits, 1);
    }

    #[test]
    fn add_evicts_only_affected_entries() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        // warm two entries: LHS = L(A) (closure {A, B, λ}) and LHS = L(C)
        // (closure {C, λ})
        assert!(r.implies_str("L(A) -> L(B)", &b).unwrap());
        assert!(!r.implies_str("L(C) -> L(D)", &b).unwrap());
        assert_eq!(r.cache_stats().entries, 2);
        // C -> D fires at the L(C) entry but is a no-op at the L(A)
        // entry (C is not in {A, B}⁺), so exactly one entry survives
        r.add_str("L(C) -> L(D)").unwrap();
        let stats = r.cache_stats();
        assert_eq!(stats.entries, 1, "only the affected entry evicted");
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.retained, 1);
        // the survivor still answers correctly without recomputation...
        assert!(r.implies_str("L(A) -> L(B)", &b).unwrap());
        assert_eq!(r.cache_stats().misses, 2, "surviving entry was a hit");
        // ...and the evicted LHS reflects the new Σ
        assert!(r.implies_str("L(C) -> L(D)", &b).unwrap());
    }

    #[test]
    fn remove_evicts_only_entries_the_dependency_fired_in() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(C) -> L(D)").unwrap();
        // L(A): only A -> B fires; L(C): only C -> D fires
        assert!(r.implies_str("L(A) -> L(B)", &b).unwrap());
        assert!(r.implies_str("L(C) -> L(D)", &b).unwrap());
        assert_eq!(r.cache_stats().entries, 2);
        // removing C -> D must keep the L(A) entry
        assert!(r.remove_str("L(C) -> L(D)").unwrap());
        assert_eq!(r.compiled_sigma().len(), 1);
        let stats = r.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evicted, 1);
        // answers track the edited Σ
        assert!(r.implies_str("L(A) -> L(B)", &b).unwrap());
        assert!(!r.implies_str("L(C) -> L(D)", &b).unwrap());
        // removing something absent is reported, not an error
        assert!(!r.remove_str("L(C) -> L(D)").unwrap());
        assert!(r.remove_str("L(A) -> L(B)").unwrap());
        assert!(r.compiled_sigma().is_empty());
        assert!(!r.implies_str("L(A) -> L(B)", &b).unwrap());
    }

    #[test]
    fn add_then_remove_round_trips_to_identical_answers() {
        let b = Budget::unlimited();
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        r.add_str("A'(C[λ]) -> A'(B)").unwrap();
        let queries = [
            "A'(B) -> A'(C[λ])",
            "A'(B) ->> A'(C[D(F[λ])])",
            "A'(C[λ]) ->> A'(B, C[D(E)])",
            "A'(C[D(E)]) -> A'(B)",
        ];
        let before: Vec<bool> = queries
            .iter()
            .map(|q| r.implies_str(q, &b).unwrap())
            .collect();
        r.add_str("A'(B) -> A'(C[D(E, F[G])])").unwrap();
        assert!(r.remove_str("A'(B) -> A'(C[D(E, F[G])])").unwrap());
        let after: Vec<bool> = queries
            .iter()
            .map(|q| r.implies_str(q, &b).unwrap())
            .collect();
        assert_eq!(before, after);
        // and the bases themselves are bit-identical to a fresh build
        let mut fresh = Reasoner::new(&n);
        fresh.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        fresh.add_str("A'(C[λ]) -> A'(B)").unwrap();
        for q in &queries {
            let dep = Dependency::parse(&n, q).unwrap();
            let c = dep.compile(r.algebra()).unwrap();
            assert_eq!(r.dependency_basis(&c.lhs), fresh.dependency_basis(&c.lhs));
        }
    }

    /// Runs `f` with the default panic hook silenced, so intentionally
    /// injected panics don't spray backtraces over test output.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn governed_implies_never_wrong_only_starved() {
        let b = Budget::unlimited();
        let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
        r.add_str("A'(C[λ]) -> A'(B)").unwrap();
        let dep =
            CompiledDep::parse(r.algebra(), "A'(B) -> A'(C[λ])", ParseLimits::default()).unwrap();
        let truth = r.implies(&dep, &b).unwrap();
        for fuel in 0..20 {
            // fresh reasoner per fuel level so the cache can't answer
            let mut fresh = Reasoner::new(&n);
            fresh.add_str("A'(B) ->> A'(C[D(E)])").unwrap();
            fresh.add_str("A'(C[λ]) -> A'(B)").unwrap();
            let b = Budget::unlimited().with_fuel(fuel);
            match fresh.implies(&dep, &b) {
                Ok(answer) => assert_eq!(answer, truth, "fuel = {fuel}"),
                Err(ReasonerError::Resource(e)) => {
                    assert_eq!(e.kind, nalist_guard::ResourceKind::Fuel, "fuel = {fuel}");
                }
                Err(other) => panic!("unexpected error at fuel {fuel}: {other}"),
            }
        }
    }

    #[test]
    fn governed_cache_never_holds_partial_results() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(B) -> L(C)").unwrap();
        let dep = CompiledDep::parse(r.algebra(), "L(A) -> L(C)", ParseLimits::default()).unwrap();
        // starve a query: it must NOT leave a truncated basis behind
        let starved = Budget::unlimited().with_fuel(1);
        assert!(matches!(
            r.implies(&dep, &starved),
            Err(ReasonerError::Resource(_))
        ));
        // the same reasoner answers correctly afterwards
        assert!(r.implies(&dep, &b).unwrap());
    }

    #[test]
    fn poisoned_batch_item_degrades_gracefully() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C, D)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        r.add_str("L(B) ->> L(C)").unwrap();
        let queries = [
            "L(A) -> L(B)",
            "L(B) -> L(A)",
            "L(A) ->> L(C)",
            "L(A) -> L(D)",
        ];
        let deps: Vec<Dependency> = queries
            .iter()
            .map(|q| Dependency::parse(&n, q).unwrap())
            .collect();
        let deps = compile_all(&r, &deps);
        let expected: Vec<bool> = deps.iter().map(|d| r.implies(d, &b).unwrap()).collect();
        // Inject a panic into the closure computation with 0-based hit
        // index 1. The planner folds the LHSs A, B, A, A into two cold
        // groups (A with three members, B with one); the second group to
        // reach the failpoint poisons all of its members: with threads=1
        // that is deterministically the B group (1 item), with threads=4
        // the two groups race, so either 1 (B lost) or 3 (A lost) items
        // report the confined panic.
        for threads in [1, 4] {
            let fresh = r.clone();
            // the clone carries r's warm cache; start cold so the
            // failpoint inside the closure computation is reachable
            fresh.clear_cache();
            let poison = Budget::unlimited().with_failpoint(nalist_guard::FailPoint::nth(
                "membership::closure",
                1,
                nalist_guard::FailAction::Panic,
            ));
            let items = quiet_panics(|| {
                fresh
                    .implies_batch(&deps, &poison, NonZeroUsize::new(threads).unwrap())
                    .unwrap()
            });
            assert_eq!(items.len(), deps.len());
            let panicked = items
                .iter()
                .filter(|r| matches!(r, Err(QueryError::Panicked { .. })))
                .count();
            if threads == 1 {
                assert_eq!(panicked, 1, "threads = 1: exactly the L(B) group poisoned");
            } else {
                assert!(
                    panicked == 1 || panicked == 3,
                    "threads = {threads}: exactly one group poisoned, got {panicked} items"
                );
            }
            for (i, item) in items.iter().enumerate() {
                if let Ok(answer) = item {
                    assert_eq!(*answer, expected[i], "threads = {threads}, item {i}");
                }
                if let Err(QueryError::Panicked { message }) = item {
                    assert!(
                        message.contains(nalist_guard::INJECTED_PANIC),
                        "panic message should carry the injection marker: {message}"
                    );
                }
            }
            // cache survives the worker panic: same reasoner still works
            for (d, want) in deps.iter().zip(&expected) {
                assert_eq!(fresh.implies(d, &b).unwrap(), *want);
            }
        }
    }

    #[test]
    fn non_string_panic_payload_keeps_its_type_name() {
        // Regression: the batch rethrow used to collapse every
        // `panic_any` payload into "non-string panic payload". The typed
        // InjectedPanic payload must surface with its type name and site.
        let n = parse_attr("L(A, B)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        let deps = compile_all(&r, &[Dependency::parse(&n, "L(A) -> L(B)").unwrap()]);
        let b = Budget::unlimited().with_failpoint(nalist_guard::FailPoint::every(
            "membership::closure",
            nalist_guard::FailAction::PanicPayload,
        ));
        let items = quiet_panics(|| r.implies_batch(&deps, &b, NonZeroUsize::MIN).unwrap());
        match &items[0] {
            Err(QueryError::Panicked { message }) => {
                assert!(
                    message.contains("InjectedPanic"),
                    "type name preserved: {message}"
                );
                assert!(
                    message.contains("membership::closure"),
                    "site preserved: {message}"
                );
            }
            other => panic!("expected a confined typed panic, got {other:?}"),
        }
    }

    #[test]
    fn unknown_panic_payloads_carry_a_type_id() {
        let payload: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        let message = super::panic_message(payload);
        assert!(message.contains("non-string panic payload of type"));
        // distinct types render distinct messages
        let other = super::panic_message(Box::new(42_u64));
        assert_ne!(message, other);
    }

    #[test]
    fn raw_atom_set_entry_points_reject_non_downward_closed_input() {
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("K[λ] ->> K[L(C)]").unwrap();
        // atom 1 (the inner list M) without its ancestor K (atom 0)
        let bad = AtomSet::from_indices(5, [1]);
        let b = Budget::unlimited();
        assert!(matches!(
            r.dependency_basis_governed(&bad, &b),
            Err(ClosureError::NotDownwardClosed { atom: 1 })
        ));
    }

    #[test]
    fn raw_atom_set_entry_points_reject_foreign_capacity_input() {
        let n = parse_attr("K[L(M[N'(A, B)], C)]").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("K[λ] ->> K[L(C)]").unwrap();
        // a set from some other universe: 7 atoms instead of 5
        let foreign = AtomSet::from_indices(7, [0, 1]);
        let b = Budget::unlimited();
        assert!(matches!(
            r.dependency_basis_governed(&foreign, &b),
            Err(ClosureError::Algebra(AlgebraError::CapacityMismatch {
                have: 7,
                want: 5,
            }))
        ));
    }

    #[test]
    fn observed_reasoner_mirrors_cache_traffic() {
        let b = Budget::unlimited();
        let n = parse_attr("L(A, B, C)").unwrap();
        let rec = Arc::new(nalist_obs::MetricsRecorder::new());
        let mut r = Reasoner::try_new(&n, &b, rec.clone()).unwrap();
        r.add_str("L(A) -> L(B)").unwrap();
        assert!(r.implies_str("L(A) -> L(B)", &b).unwrap()); // miss
        assert!(r.implies_str("L(A) ->> L(B)", &b).unwrap()); // hit
        assert_eq!(rec.counter(Counter::CacheMisses), 1);
        assert_eq!(rec.counter(Counter::CacheHits), 1);
        assert!(rec.counter(Counter::DepsFired) >= 1);
        // an edit's eviction sweep is mirrored too
        r.add_str("L(B) -> L(C)").unwrap();
        assert_eq!(
            rec.counter(Counter::CacheEvicted) + rec.counter(Counter::CacheRetained),
            1,
            "the one cached entry was either evicted or retained"
        );
        // recorded counters agree with CacheStats where they overlap
        let stats = r.cache_stats();
        assert_eq!(rec.counter(Counter::CacheHits), stats.hits);
        assert_eq!(rec.counter(Counter::CacheMisses), stats.misses);
    }

    #[test]
    fn batch_budget_starvation_is_per_item_not_all_or_nothing() {
        let n = parse_attr("L(A, B, C)").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("L(A) -> L(B)").unwrap();
        let deps: Vec<CompiledDep> = ["L(A) -> L(B)", "L(B) -> L(A)", "L(C) ->> L(B)"]
            .iter()
            .map(|q| CompiledDep::parse(r.algebra(), q, ParseLimits::default()).unwrap())
            .collect();
        // one unit of fuel covers exactly the first closure (one worklist
        // step); the later distinct-LHS items starve but still get
        // individual answers
        let b = Budget::unlimited().with_fuel(1);
        let items = r.implies_batch(&deps, &b, NonZeroUsize::MIN).unwrap();
        assert!(items[0].is_ok());
        assert!(items
            .iter()
            .any(|i| matches!(i, Err(QueryError::Resource(_)))));
    }

    #[test]
    fn try_new_respects_atom_cap() {
        let n = parse_attr("L(A, B, C, D, E)").unwrap();
        let b = Budget::unlimited().with_max_atoms(3);
        let noop = || Arc::new(nalist_obs::NoopRecorder);
        let err = Reasoner::try_new(&n, &b, noop()).unwrap_err();
        assert_eq!(err.kind, nalist_guard::ResourceKind::Atoms);
        assert!(Reasoner::try_new(&n, &Budget::unlimited().with_max_atoms(5), noop()).is_ok());
    }

    #[test]
    fn governed_string_helpers_agree_with_ungoverned() {
        let b = Budget::unlimited();
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let mut r = Reasoner::new(&n);
        r.add_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])")
            .unwrap();
        let roomy = Budget::unlimited().with_fuel(1_000_000);
        let q = "Pubcrawl(Person) -> Pubcrawl(Visit[λ])";
        assert_eq!(
            r.implies_str(q, &roomy).unwrap(),
            r.implies_str(q, &b).unwrap()
        );
        assert_eq!(
            r.closure_str("Pubcrawl(Person)", &roomy).unwrap(),
            r.closure_str("Pubcrawl(Person)", &b).unwrap()
        );
        // the budget's max_depth also guards the query text
        let shallow = Budget::unlimited().with_max_depth(1);
        assert!(matches!(
            r.implies_str(q, &shallow),
            Err(ReasonerError::Parse(
                nalist_types::error::ParseError::TooDeep { .. }
            ))
        ));
    }

    #[test]
    fn trivial_dependencies_always_implied() {
        let b = Budget::unlimited();
        let n = parse_attr("Pubcrawl(Person, Visit[Drink(Beer, Pub)])").unwrap();
        let r = Reasoner::new(&n);
        assert!(r.implies_str("Pubcrawl(Person) -> λ", &b).unwrap());
        assert!(r
            .implies_str("Pubcrawl(Person) -> Pubcrawl(Person)", &b)
            .unwrap());
        assert!(r
            .implies_str("Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Beer, Pub)])", &b)
            .unwrap());
        assert!(!r.implies_str("λ -> Pubcrawl(Person)", &b).unwrap());
    }
}
