//! The query-evaluation engine: fans any [`Backend`] over whole
//! networks and training steps — in parallel, with one result cache
//! keyed on the query fingerprint.
//!
//! Two observations make this the right architecture for the ROADMAP's
//! production-scale goal:
//!
//! 1. **Evaluations are independent.** Both the analytical model and the
//!    trace-driven simulator answer one [`EvalQuery`] at a time with no
//!    shared mutable state, so a network's queries parallelize perfectly
//!    across cores ([`rayon`]).
//! 2. **Real CNNs repeat layer shapes.** GoogLeNet's inception branches
//!    and ResNet152's residual blocks reuse identical `(B, Ci, H, W, Co,
//!    Hf, Wf, stride, pad)` configurations many times; a cache keyed on
//!    [`EvalQuery::fingerprint`] evaluates each unique query once.
//!    ResNet152's full 151-conv forward pass collapses to ~17 unique
//!    simulations.
//!
//! The fingerprint is **injective across every configuration axis**
//! (pass, shard workers, device list, interconnect, topology), so one
//! flat map caches all of them without collisions, and the persistent
//! cache file carries the query keys themselves — results computed under
//! a different parallelism simply never match, with no bespoke guard
//! fields.
//!
//! ```rust
//! use delta_model::engine::Engine;
//! use delta_model::query::Parallelism;
//! use delta_model::{ConvLayer, Delta, GpuSpec};
//!
//! # fn main() -> Result<(), delta_model::Error> {
//! let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
//! let a = ConvLayer::builder("a").batch(8).input(16, 14, 14)
//!     .output_channels(32).filter(3, 3).pad(1).build()?;
//! let b = a.with_label("b"); // same shape, different label
//! let eval = engine.evaluate_network(&[a, b], &Parallelism::Single)?;
//! assert_eq!(eval.rows.len(), 2);
//! assert_eq!(engine.cache_stats().misses, 1); // shape evaluated once
//! # Ok(())
//! # }
//! ```

use crate::backend::{Backend, BackendFingerprint, FingerprintMismatch, LayerEstimate};
use crate::error::Error;
use crate::layer::ConvLayer;
use crate::perf::Bottleneck;
use crate::query::{EvalQuery, Parallelism, StepEvaluation, StepQuery};
use crate::scaling::DesignOption;
use delta_obs::{span, Counter};
use rayon::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

pub use crate::query::LayerShape;

/// The persistent cache format revision this engine writes and reads.
/// v3 adds a second entry kind — whole-step evaluations keyed on
/// [`StepQuery::fingerprint`] — next to v2's per-layer query entries.
/// Every other revision is refused with a clear error: v1 (the
/// pre-query format keyed on `(shape, pass, devices)`) cannot express
/// shard/topology axes, and v2 files are simply regenerated.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// One cached result: the query that produced it (kept so the persistent
/// cache can write structured keys) and the estimate.
#[derive(Debug, Clone)]
struct CacheSlot {
    query: EvalQuery,
    estimate: LayerEstimate,
}

/// One persisted cache entry ([`Engine::save_cache`]): the full query as
/// the key, the estimate as the value.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheFileEntry {
    query: EvalQuery,
    estimate: LayerEstimate,
}

/// One persisted whole-step entry (cache v3): the step fingerprint as
/// the key, the full table-plus-timeline evaluation as the value. The
/// fingerprint is label-free, so the engine relabels on every hit.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StepCacheFileEntry {
    key: String,
    evaluation: StepEvaluation,
}

/// The on-disk cache format (v3) as one value tree: versioned,
/// query-keyed per-layer entries plus step-keyed whole-step entries,
/// plus the backend/GPU/sampling fingerprint that guards the knobs a
/// query does not carry. [`Engine::save_cache`] and
/// [`Engine::load_cache`] stream the file one entry at a time instead;
/// this tree, rendered by `to_string_pretty`, is the reference their
/// bytes are tested against.
#[cfg(test)]
#[derive(Debug, Serialize)]
struct CacheFile {
    version: u32,
    backend: String,
    gpu: String,
    config: String,
    entries: Vec<CacheFileEntry>,
    step_entries: Vec<StepCacheFileEntry>,
}

/// Reads the entry array `doc` has open one element at a time,
/// converting each to its typed entry and dropping its tree. After the
/// first element that does not convert, the rest are only parsed, and
/// that conversion error is the result.
fn read_entries<T: Deserialize>(
    doc: &mut serde_json::ObjectReader<'_>,
) -> Result<Result<Vec<T>, DeError>, serde_json::Error> {
    let mut entries = Ok(Vec::new());
    while let Some(item) = doc.next_item()? {
        if let Ok(list) = &mut entries {
            match T::from_value(&item) {
                Ok(entry) => list.push(entry),
                Err(e) => entries = Err(e),
            }
        }
    }
    Ok(entries)
}

/// Cache-effectiveness counters (cumulative over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache (or deduplicated within one
    /// call).
    pub hits: u64,
    /// Queries that ran a backend evaluation.
    pub misses: u64,
    /// Whole-step queries answered from the step cache (zero backend
    /// work, zero replays).
    pub step_hits: u64,
    /// Whole-step queries that ran an evaluation.
    pub step_misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served without running the backend.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Shared handles to the engine's cache counters ([`delta_obs`]
/// instruments): what [`Engine::cache_counters`] hands a metrics
/// registry so the same atomics that back [`Engine::cache_stats`] are
/// scraped live, with no second bookkeeping surface.
#[derive(Debug, Clone)]
pub struct CacheCounters {
    /// Per-layer queries answered from the cache.
    pub hits: Counter,
    /// Per-layer queries that ran a backend evaluation.
    pub misses: Counter,
    /// Whole-step queries answered from the step cache.
    pub step_hits: Counter,
    /// Whole-step queries that ran an evaluation.
    pub step_misses: Counter,
}

/// The parallel cached evaluation driver over one [`Backend`].
#[derive(Debug)]
pub struct Engine<B: Backend> {
    backend: B,
    cache: Mutex<HashMap<String, CacheSlot>>,
    step_cache: Mutex<HashMap<String, StepEvaluation>>,
    counters: CacheCounters,
}

impl<B: Backend> Engine<B> {
    /// Creates an engine over `backend` with empty caches.
    pub fn new(backend: B) -> Engine<B> {
        Engine {
            backend,
            cache: Mutex::new(HashMap::new()),
            step_cache: Mutex::new(HashMap::new()),
            counters: CacheCounters {
                hits: Counter::new(),
                misses: Counter::new(),
                step_hits: Counter::new(),
                step_misses: Counter::new(),
            },
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            step_hits: self.counters.step_hits.get(),
            step_misses: self.counters.step_misses.get(),
        }
    }

    /// Shared handles to the counters behind [`Engine::cache_stats`],
    /// for registration in a [`delta_obs::Registry`].
    pub fn cache_counters(&self) -> CacheCounters {
        self.counters.clone()
    }

    /// Drops all cached results — per-layer and whole-step — (the
    /// counters are preserved).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("engine cache poisoned").clear();
        self.step_cache
            .lock()
            .expect("engine step cache poisoned")
            .clear();
    }

    /// Serializes the result cache to `path` as versioned JSON
    /// ([`CACHE_FORMAT_VERSION`]), so a later process can
    /// [`Engine::load_cache`] it and skip re-evaluating queries it has
    /// already answered. Every per-layer entry carries its full
    /// [`EvalQuery`] as the key, so
    /// shard/device/interconnect/topology configurations coexist in one
    /// file; whole-step results are written as a second entry kind
    /// keyed on [`StepQuery::fingerprint`], which is what lets a warm
    /// process answer a repeated `evaluate_step` with zero backend
    /// work. The header additionally records the backend name, GPU
    /// name, and [`Backend::config_fingerprint`] guarding the knobs a
    /// query does not carry (sampling limits). Entries of both kinds
    /// are written in a deterministic order (sorted by fingerprint) and
    /// the write is atomic (temp file + rename), so a concurrent reader
    /// never sees a truncated file. The caches' locks are held only
    /// while their entries are copied out; the file is then written
    /// through a buffered writer one entry at a time, never built whole
    /// in memory. Returns the total number of entries written (per-layer
    /// plus step).
    ///
    /// # Errors
    ///
    /// Propagates filesystem and serialization failures.
    pub fn save_cache(&self, path: &Path) -> io::Result<usize> {
        let (entries, step_entries) = self.cache_snapshot();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        // Write-then-rename so concurrent loaders (several CLI processes
        // sharing one --cache-file) never observe a half-written file;
        // the PID suffix keeps concurrent writers off each other's temp
        // files.
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        self.write_cache_file(&tmp, &entries, &step_entries)
            .and_then(|()| std::fs::rename(&tmp, path))
            .inspect_err(|_| {
                let _ = std::fs::remove_file(&tmp);
            })?;
        Ok(entries.len() + step_entries.len())
    }

    /// Copies both caches' entries out under their locks, so that
    /// writing the file holds neither; each kind is sorted by its key.
    fn cache_snapshot(&self) -> (Vec<CacheFileEntry>, Vec<StepCacheFileEntry>) {
        let mut entries: Vec<(String, CacheFileEntry)> = {
            let cache = self.cache.lock().expect("engine cache poisoned");
            cache
                .iter()
                .map(|(key, slot)| {
                    (
                        key.clone(),
                        CacheFileEntry {
                            query: slot.query.clone(),
                            estimate: slot.estimate.clone(),
                        },
                    )
                })
                .collect()
        };
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut step_entries: Vec<StepCacheFileEntry> = {
            let step_cache = self.step_cache.lock().expect("engine step cache poisoned");
            step_cache
                .iter()
                .map(|(key, evaluation)| StepCacheFileEntry {
                    key: key.clone(),
                    evaluation: evaluation.clone(),
                })
                .collect()
        };
        step_entries.sort_by(|a, b| a.key.cmp(&b.key));
        (entries.into_iter().map(|(_, e)| e).collect(), step_entries)
    }

    /// Writes the cache file to `path` one entry at a time, in exactly
    /// the bytes `to_string_pretty` gives for the whole [`CacheFile`]
    /// tree, without building that tree or the file's text.
    fn write_cache_file(
        &self,
        path: &Path,
        entries: &[CacheFileEntry],
        step_entries: &[StepCacheFileEntry],
    ) -> io::Result<()> {
        let mut doc = serde_json::PrettyObjectWriter::new(BufWriter::new(File::create(path)?));
        doc.field("version", &CACHE_FORMAT_VERSION)?;
        doc.field("backend", self.backend.name())?;
        doc.field("gpu", self.backend.gpu().name())?;
        doc.field("config", &self.backend.config_fingerprint())?;
        doc.array_field("entries", entries)?;
        doc.array_field("step_entries", step_entries)?;
        doc.finish()?.flush()
    }

    /// Loads a cache file previously written by [`Engine::save_cache`]
    /// into this engine's caches (merging over anything already
    /// present). Returns the total number of entries loaded (per-layer
    /// plus step).
    ///
    /// The file is read one entry at a time: each entry becomes its
    /// typed form and its value tree is dropped, so the whole document
    /// never exists as one tree. Loading is all-or-nothing: nothing is
    /// inserted until the whole file has parsed, every guard below has
    /// passed and every entry has converted, so a truncated or corrupt
    /// file leaves the caches as they were.
    ///
    /// Loaded results are served as cache hits; the backend is never
    /// consulted for them. Three guards apply, in order:
    ///
    /// 1. **format version** — only v3 files load. A file without a
    ///    `version` field is the pre-query v1 format and is refused with
    ///    a "cache format v1, expected v3" error (its `(shape, pass,
    ///    devices)` keys cannot express the query axes); any other
    ///    version, v2 included, is refused with "cache format vN,
    ///    expected v3";
    /// 2. **backend/GPU/sampling fingerprint** — the header must match
    ///    this engine's backend exactly (these knobs are not part of the
    ///    query key);
    /// 3. **key equality** — everything else (pass, shards, devices,
    ///    interconnect, topology) lives in each entry's query, so
    ///    results from a different configuration load harmlessly and
    ///    simply never match a lookup.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; returns
    /// [`io::ErrorKind::InvalidData`] for malformed files, a format
    /// version mismatch, or a backend/GPU/configuration mismatch.
    pub fn load_cache(&self, path: &Path) -> io::Result<usize> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let malformed =
            |e: &dyn fmt::Display| invalid(format!("malformed cache file {}: {e}", path.display()));
        let text = std::fs::read_to_string(path)?;
        // Every top-level field except a streamed entry array; as in a
        // tree lookup, the first field of a name wins.
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut entries: Option<Result<Vec<CacheFileEntry>, DeError>> = None;
        let mut step_entries: Option<Result<Vec<StepCacheFileEntry>, DeError>> = None;
        let parsed = (|| -> Result<(), serde_json::Error> {
            let mut doc = serde_json::ObjectReader::new(&text)?;
            while let Some(key) = doc.next_key()? {
                let first = !fields.iter().any(|(k, _)| *k == key);
                let stream = first
                    && match key.as_str() {
                        "entries" => entries.is_none(),
                        "step_entries" => step_entries.is_none(),
                        _ => false,
                    };
                if stream && doc.begin_items()? {
                    if key == "entries" {
                        entries = Some(read_entries(&mut doc)?);
                    } else {
                        step_entries = Some(read_entries(&mut doc)?);
                    }
                } else {
                    let value = doc.value()?;
                    fields.push((key, value));
                }
            }
            Ok(())
        })();
        parsed.map_err(|e| malformed(&e))?;
        // The whole file has parsed. The guards and conversions run in
        // the order a whole-tree load applied them, wherever in the file
        // their fields sit: version, header fields, per-layer entries,
        // step entries, then the fingerprint.
        let header = Value::Map(fields);
        match header.get("version") {
            Some(Value::U64(v)) if *v == u64::from(CACHE_FORMAT_VERSION) => {}
            None => {
                return Err(invalid(format!(
                    "cache file {} is cache format v1 (pre-query, no `version` field), \
                     expected v{CACHE_FORMAT_VERSION}: its (shape, pass, devices) keys cannot \
                     express the query's shard/interconnect/topology axes — delete the file \
                     and let this binary regenerate it",
                    path.display()
                )))
            }
            Some(other) => {
                return Err(invalid(format!(
                    "cache file {} is cache format v{}, expected \
                     v{CACHE_FORMAT_VERSION} — delete the file and let this binary \
                     regenerate it",
                    path.display(),
                    match other {
                        Value::U64(v) => v.to_string(),
                        v => format!("<{}>", v.kind()),
                    }
                )))
            }
        }
        let missing = |name: &str| DeError(format!("missing field `{name}` in CacheFile"));
        let field = |name: &str| {
            header
                .get(name)
                .ok_or_else(|| missing(name))
                .and_then(String::from_value)
                .map_err(|e| malformed(&e))
        };
        let theirs = BackendFingerprint {
            backend: field("backend")?,
            gpu: field("gpu")?,
            config: field("config")?,
        };
        let entries = entries
            .unwrap_or_else(|| {
                Vec::from_value(header.get("entries").ok_or_else(|| missing("entries"))?)
            })
            .map_err(|e| malformed(&e))?;
        let step_entries = step_entries
            .unwrap_or_else(|| {
                Vec::from_value(
                    header
                        .get("step_entries")
                        .ok_or_else(|| missing("step_entries"))?,
                )
            })
            .map_err(|e| malformed(&e))?;
        // The compatibility decision is the shared fingerprint triple
        // (also the fleet handshake and `/healthz` check); only the
        // wording of the refusal is cache-specific.
        let ours = BackendFingerprint::of(&self.backend);
        match theirs.mismatch(&ours) {
            Some(FingerprintMismatch::Identity) => {
                return Err(invalid(format!(
                    "cache file {} was produced by backend `{}` on `{}`, \
                     but this engine runs `{}` on `{}`",
                    path.display(),
                    theirs.backend,
                    theirs.gpu,
                    ours.backend,
                    ours.gpu
                )));
            }
            Some(FingerprintMismatch::Config) => {
                return Err(invalid(format!(
                    "cache file {} was produced under a different backend \
                     configuration (e.g. sampling limits): \
                     file has `{}`, this engine has `{}`",
                    path.display(),
                    theirs.config,
                    ours.config
                )));
            }
            None => {}
        }
        let n = entries.len() + step_entries.len();
        {
            let mut cache = self.cache.lock().expect("engine cache poisoned");
            for e in entries {
                cache.insert(
                    e.query.fingerprint(),
                    CacheSlot {
                        query: e.query,
                        estimate: e.estimate,
                    },
                );
            }
        }
        let mut step_cache = self.step_cache.lock().expect("engine step cache poisoned");
        for e in step_entries {
            step_cache.insert(e.key, e.evaluation);
        }
        Ok(n)
    }

    /// Answers one evaluation query through the cache.
    ///
    /// # Errors
    ///
    /// Propagates backend estimation failures.
    pub fn evaluate(&self, query: &EvalQuery) -> Result<LayerEstimate, Error> {
        Ok(self
            .evaluate_queries(std::slice::from_ref(query))?
            .remove(0))
    }

    /// Evaluates a whole network (any ordered layer slice) under one
    /// parallelism: every layer becomes a forward-pass [`EvalQuery`],
    /// unique uncached queries are evaluated in parallel, repeated
    /// shapes are served once.
    ///
    /// # Errors
    ///
    /// Propagates the first backend estimation failure.
    pub fn evaluate_network(
        &self,
        layers: &[ConvLayer],
        parallelism: &Parallelism,
    ) -> Result<NetworkEvaluation, Error> {
        let queries: Vec<EvalQuery> = layers
            .iter()
            .map(|l| EvalQuery::forward(l, parallelism.clone()))
            .collect();
        let estimates = self.evaluate_queries(&queries)?;
        Ok(NetworkEvaluation {
            backend: self.backend.name().to_string(),
            gpu: self.backend.gpu().name().to_string(),
            rows: layers
                .iter()
                .zip(estimates)
                .map(|(l, estimate)| LayerRow {
                    label: l.label().to_string(),
                    estimate,
                })
                .collect(),
        })
    }

    /// Evaluates one whole training step: the per-layer
    /// forward/dgrad/wgrad table plus the scheduled timeline, both
    /// derived from **one** evaluation pass over the step's unique layer
    /// shapes.
    ///
    /// The whole step is consulted against the **step cache** first
    /// (cache v3's second entry kind, keyed on
    /// [`StepQuery::fingerprint`]): a hit answers with zero backend
    /// work — no per-pass queries, no replays — after relabeling the
    /// rows and spans to this query's layer labels (the fingerprint is
    /// label-free). A miss evaluates and stores the result, so any
    /// repeated `evaluate_step` — same process or warmed through
    /// [`Engine::load_cache`] — skips evaluation entirely.
    ///
    /// On a miss, under `Single`/`Sharded` parallelism the step's
    /// [`StepQuery::pass_queries`] go through the per-layer cache
    /// (parallel fan-out, repeats and previously-loaded results served
    /// without replay) and [`StepEvaluation::serial`] assembles the
    /// answer from the estimates — bitwise what
    /// [`Backend::evaluate_step`] answers. Under `Multi` the backend
    /// runs (its overlapped timeline needs per-device measurement detail
    /// that cached estimates do not carry), and the engine folds the
    /// step's per-pass estimates into its per-layer cache so later pass
    /// queries hit too. Counters:
    /// each unique pass query counts as one miss, each repeat (or
    /// cache-served query) as one hit; whole-step lookups count under
    /// [`CacheStats::step_hits`]/[`CacheStats::step_misses`].
    ///
    /// # Errors
    ///
    /// Propagates pass-construction and estimation failures.
    pub fn evaluate_step(&self, query: &StepQuery) -> Result<StepEvaluation, Error> {
        let _span = span!("engine.evaluate_step", layers = query.layers.len());
        let key = {
            let _lookup = span!("engine.step_cache_lookup");
            query.fingerprint()
        };
        let cached = self
            .step_cache
            .lock()
            .expect("engine step cache poisoned")
            .get(&key)
            .cloned();
        if let Some(hit) = cached {
            self.counters.step_hits.inc();
            let _hit = span!("engine.step_cache_hit");
            return Ok(relabel_step(hit, query));
        }
        self.counters.step_misses.inc();
        let result = self.evaluate_step_fresh(query)?;
        self.step_cache
            .lock()
            .expect("engine step cache poisoned")
            .insert(key, result.clone());
        Ok(result)
    }

    /// The step-cache miss path (see [`Engine::evaluate_step`]): under
    /// `Single`/`Sharded` the step's pass queries go through
    /// [`Engine::evaluate_queries`] and [`StepEvaluation::serial`]
    /// assembles the answer; under `Multi` the backend answers and its
    /// pass estimates are folded into the per-layer cache.
    fn evaluate_step_fresh(&self, query: &StepQuery) -> Result<StepEvaluation, Error> {
        let pass_queries = query.pass_queries();
        if !matches!(query.parallelism, Parallelism::Multi { .. }) {
            let estimates = self.evaluate_queries(&pass_queries)?;
            let _span = span!("engine.step_schedule", layers = query.layers.len());
            return Ok(StepEvaluation::serial(
                self.backend.name(),
                self.backend.gpu().name(),
                query,
                estimates,
            ));
        }
        let result = self.backend.evaluate_step(query)?;
        // Rows hold their passes in `pass_queries` order: forward, dgrad
        // (absent on the first row), wgrad.
        let estimates = result
            .table
            .rows
            .iter()
            .flat_map(|r| [Some(&r.forward), r.dgrad.as_ref(), Some(&r.wgrad)])
            .flatten();
        let (mut fresh, mut seen) = (0u64, 0u64);
        {
            let mut cache = self.cache.lock().expect("engine cache poisoned");
            for (q, estimate) in pass_queries.into_iter().zip(estimates) {
                match cache.entry(q.fingerprint()) {
                    Entry::Occupied(_) => seen += 1,
                    Entry::Vacant(slot) => {
                        slot.insert(CacheSlot {
                            query: q,
                            estimate: estimate.clone(),
                        });
                        fresh += 1;
                    }
                }
            }
        }
        self.counters.misses.add(fresh);
        self.counters.hits.add(seen);
        Ok(result)
    }

    /// The shared batched path: dedup against the cache, evaluate what is
    /// missing (in parallel), then assemble in input order.
    fn evaluate_queries(&self, queries: &[EvalQuery]) -> Result<Vec<LayerEstimate>, Error> {
        let _span = span!("engine.evaluate", queries = queries.len());
        let keys: Vec<String> = queries.iter().map(EvalQuery::fingerprint).collect();
        let mut missing: Vec<(&str, &EvalQuery)> = Vec::new();
        {
            let _lookup = span!("engine.cache_lookup", queries = queries.len());
            let cache = self.cache.lock().expect("engine cache poisoned");
            let mut queued = HashSet::new();
            for (key, query) in keys.iter().zip(queries) {
                if !cache.contains_key(key.as_str()) && queued.insert(key.as_str()) {
                    missing.push((key.as_str(), query));
                }
            }
        }
        self.counters
            .hits
            .add((queries.len() - missing.len()) as u64);
        self.counters.misses.add(missing.len() as u64);

        let fresh: Vec<&EvalQuery> = missing.iter().map(|(_, q)| *q).collect();
        let results = self.run_backend(&fresh);

        let mut cache = self.cache.lock().expect("engine cache poisoned");
        for ((key, query), result) in missing.iter().zip(results) {
            cache.insert(
                key.to_string(),
                CacheSlot {
                    query: (*query).clone(),
                    estimate: result?,
                },
            );
        }
        Ok(keys
            .iter()
            .map(|key| {
                cache
                    .get(key)
                    .expect("every key was inserted above")
                    .estimate
                    .clone()
            })
            .collect())
    }

    /// Runs the backend over `queries`, in parallel when there is more
    /// than one.
    fn run_backend(&self, queries: &[&EvalQuery]) -> Vec<Result<LayerEstimate, Error>> {
        let _span = span!("engine.cache_miss_backend", queries = queries.len());
        if queries.len() > 1 {
            queries
                .par_iter()
                .map(|q| self.backend.evaluate(q))
                .collect()
        } else {
            queries.iter().map(|q| self.backend.evaluate(q)).collect()
        }
    }
}

/// Rewrites a cached step evaluation's labels to `query`'s layer
/// labels. [`StepQuery::fingerprint`] is label-free, so a step-cache
/// hit may come from a step whose layers were named differently; every
/// numeric field is already bitwise what a fresh evaluation would
/// produce, and the labels are a pure function of the query. Row `i`
/// takes layer `i`'s label; in the compute stream the `k`-th forward
/// span is layer `k` and the `j`-th dgrad/wgrad span is layer `L−1−j`
/// (the serial-order convention shared by [`StepEvaluation::serial`]
/// and the collective scheduler); all-reduce spans are re-bucketized from this query's
/// gradient payloads in ready (reverse-layer) order and labeled via
/// [`crate::schedule::bucket_label`].
fn relabel_step(mut eval: StepEvaluation, query: &StepQuery) -> StepEvaluation {
    let labels: Vec<&str> = query.layers.iter().map(ConvLayer::label).collect();
    let n = labels.len();
    for (row, label) in eval.table.rows.iter_mut().zip(&labels) {
        row.label = (*label).to_string();
    }
    let grads: Vec<u64> = query
        .layers
        .iter()
        .rev()
        .map(ConvLayer::filter_bytes)
        .collect();
    let rev_labels: Vec<&str> = labels.iter().rev().copied().collect();
    let buckets = crate::schedule::bucketize(&grads, u64::from(query.bucket_mb) << 20);
    for dev in &mut eval.timeline.per_device {
        let (mut fwd, mut dgrad, mut wgrad) = (0usize, 0usize, 0usize);
        let next = |c: &mut usize| {
            let i = *c;
            *c += 1;
            i
        };
        for span in &mut dev.compute {
            use crate::schedule::SpanKind;
            let label = match span.kind {
                SpanKind::Forward => labels[next(&mut fwd)],
                SpanKind::Dgrad => labels[n - 1 - next(&mut dgrad)],
                SpanKind::Wgrad => labels[n - 1 - next(&mut wgrad)],
                SpanKind::AllReduce => continue,
            };
            span.label = label.to_string();
        }
        for (k, (span, b)) in dev.comm.iter_mut().zip(&buckets).enumerate() {
            span.label = crate::schedule::bucket_label(k, b, &rev_labels);
        }
    }
    eval
}

/// One labeled per-layer result inside a [`NetworkEvaluation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerRow {
    /// The layer's label (paper naming).
    pub label: String,
    /// The backend's estimate.
    pub estimate: LayerEstimate,
}

/// A whole network's evaluation: ordered per-layer rows plus summary
/// accessors, produced by [`Engine::evaluate_network`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkEvaluation {
    /// Which backend produced the rows (`"model"` / `"sim"`).
    pub backend: String,
    /// Device name.
    pub gpu: String,
    /// Per-layer results in network order.
    pub rows: Vec<LayerRow>,
}

impl NetworkEvaluation {
    /// Unwraps the per-layer estimates in network order, discarding the
    /// labels — for sweep drivers that pair estimates with layers they
    /// already hold.
    pub fn into_estimates(self) -> Vec<LayerEstimate> {
        self.rows.into_iter().map(|r| r.estimate).collect()
    }

    /// Sum of per-layer predicted/measured seconds.
    pub fn total_seconds(&self) -> f64 {
        self.rows.iter().map(|r| r.estimate.seconds).sum()
    }

    /// Sum of per-layer DRAM read traffic in bytes.
    pub fn total_dram_read_bytes(&self) -> f64 {
        self.rows.iter().map(|r| r.estimate.dram_read_bytes).sum()
    }

    /// Sum of per-layer L2 traffic in bytes.
    pub fn total_l2_bytes(&self) -> f64 {
        self.rows.iter().map(|r| r.estimate.l2_bytes).sum()
    }

    /// Sum of per-layer L1 traffic in bytes.
    pub fn total_l1_bytes(&self) -> f64 {
        self.rows.iter().map(|r| r.estimate.l1_bytes).sum()
    }

    /// Histogram of limiting resources over layers that report one, in
    /// [`Bottleneck::ALL`] order with zero-count entries removed.
    pub fn bottleneck_counts(&self) -> Vec<(Bottleneck, usize)> {
        Bottleneck::ALL
            .iter()
            .map(|b| {
                (
                    *b,
                    self.rows
                        .iter()
                        .filter(|r| r.estimate.bottleneck == Some(*b))
                        .count(),
                )
            })
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

impl fmt::Display for NetworkEvaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>10} {:>10} {:>10} {:>9} {:>10}",
            "layer", "L1 GB", "L2 GB", "DRAM GB", "ms", "bottleneck"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>9.3} {:>10}",
                r.label,
                r.estimate.l1_bytes / 1e9,
                r.estimate.l2_bytes / 1e9,
                r.estimate.dram_read_bytes / 1e9,
                r.estimate.millis(),
                r.estimate
                    .bottleneck
                    .map_or("-".to_string(), |b| b.to_string()),
            )?;
        }
        write!(
            f,
            "total ({} on {}): {:.3} ms",
            self.backend,
            self.gpu,
            self.total_seconds() * 1e3
        )
    }
}

/// One layer's training-step estimates inside a
/// [`TrainingStepEvaluation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingRow {
    /// The forward layer's label.
    pub label: String,
    /// Forward-pass estimate.
    pub forward: LayerEstimate,
    /// Data-gradient estimate; `None` for the network's first layer.
    pub dgrad: Option<LayerEstimate>,
    /// Weight-gradient estimate.
    pub wgrad: LayerEstimate,
}

impl TrainingRow {
    /// Total step time for this layer in seconds.
    pub fn seconds(&self) -> f64 {
        self.forward.seconds + self.dgrad.as_ref().map_or(0.0, |d| d.seconds) + self.wgrad.seconds
    }
}

/// A whole network's training-step table: the per-layer half of a
/// [`StepEvaluation`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingStepEvaluation {
    /// Which backend produced the rows.
    pub backend: String,
    /// Device name.
    pub gpu: String,
    /// Per-layer results in network order.
    pub rows: Vec<TrainingRow>,
}

impl TrainingStepEvaluation {
    /// Total step time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.rows.iter().map(TrainingRow::seconds).sum()
    }

    /// Forward-pass time in seconds.
    pub fn forward_seconds(&self) -> f64 {
        self.rows.iter().map(|r| r.forward.seconds).sum()
    }

    /// Backward-pass (dgrad + wgrad) time in seconds.
    pub fn backward_seconds(&self) -> f64 {
        self.total_seconds() - self.forward_seconds()
    }
}

/// One design option's whole-network result from
/// [`evaluate_design_space`].
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPointEvaluation {
    /// The design option evaluated.
    pub option: DesignOption,
    /// The network evaluation under that option.
    pub evaluation: NetworkEvaluation,
}

impl DesignPointEvaluation {
    /// Speedup of this option over a baseline time.
    pub fn speedup_over(&self, baseline_seconds: f64) -> f64 {
        baseline_seconds / self.evaluation.total_seconds()
    }
}

/// Evaluates `layers` under every design option: the §VII-C scaling
/// study generalized over backends. `make_backend` builds the
/// option-scaled backend (e.g. `opt.model(&base)` for the analytical
/// model, or a simulator on `opt.apply(&base)`); each option gets its own
/// engine so query caching applies within — but never across — device
/// configurations.
///
/// # Errors
///
/// Propagates backend-construction and estimation failures.
pub fn evaluate_design_space<B, F>(
    options: &[DesignOption],
    layers: &[ConvLayer],
    make_backend: F,
) -> Result<Vec<DesignPointEvaluation>, Error>
where
    B: Backend,
    F: Fn(&DesignOption) -> Result<B, Error>,
{
    options
        .iter()
        .map(|option| {
            let engine = Engine::new(make_backend(option)?);
            Ok(DesignPointEvaluation {
                option: option.clone(),
                evaluation: engine.evaluate_network(layers, &Parallelism::Single)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::InterconnectKind;
    use crate::query::Pass;
    use crate::{Delta, GpuSpec};

    fn conv(label: &str, ci: u32, hw: u32, co: u32) -> ConvLayer {
        ConvLayer::builder(label)
            .batch(8)
            .input(ci, hw, hw)
            .output_channels(co)
            .filter(3, 3)
            .pad(1)
            .build()
            .unwrap()
    }

    fn repeated_net() -> Vec<ConvLayer> {
        vec![
            conv("a1", 16, 14, 32),
            conv("b", 32, 14, 32),
            conv("a2", 16, 14, 32), // same shape as a1
            conv("a3", 16, 14, 32), // same shape as a1
        ]
    }

    fn fwd(l: &ConvLayer) -> EvalQuery {
        EvalQuery::forward(l, Parallelism::Single)
    }

    fn multi(l: &ConvLayer, g: u32) -> EvalQuery {
        EvalQuery::forward(
            l,
            Parallelism::multi(&GpuSpec::titan_xp(), g, InterconnectKind::Ideal),
        )
    }

    #[test]
    fn network_rows_match_direct_backend_calls() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let engine = Engine::new(delta.clone());
        let net = repeated_net();
        let eval = engine.evaluate_network(&net, &Parallelism::Single).unwrap();
        assert_eq!(eval.rows.len(), 4);
        assert_eq!(eval.backend, "model");
        for (row, layer) in eval.rows.iter().zip(&net) {
            assert_eq!(row.label, layer.label());
            let direct = delta.evaluate(&fwd(layer)).unwrap();
            assert_eq!(row.estimate, direct, "{}", layer.label());
        }
    }

    #[test]
    fn cache_deduplicates_repeated_shapes() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        engine
            .evaluate_network(&repeated_net(), &Parallelism::Single)
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "two unique shapes");
        assert_eq!(stats.hits, 2, "two repeats");
        // Second run is fully cached.
        engine
            .evaluate_network(&repeated_net(), &Parallelism::Single)
            .unwrap();
        assert_eq!(engine.cache_stats().misses, 2);
        assert_eq!(engine.cache_stats().hits, 6);
        assert!(engine.cache_stats().hit_rate() > 0.7);
    }

    #[test]
    fn step_table_matches_training_module() {
        let delta = Delta::new(GpuSpec::titan_xp());
        let engine = Engine::new(delta.clone());
        let net = vec![conv("first", 3, 28, 16), conv("second", 16, 28, 32)];
        let eval = engine
            .evaluate_step(&StepQuery::new(&net, Parallelism::Single))
            .unwrap();
        let table = &eval.table;
        assert!(table.rows[0].dgrad.is_none(), "first layer skips dgrad");
        assert!(table.rows[1].dgrad.is_some());
        // The reference: each pass asked of the model directly.
        for (i, (row, l)) in table.rows.iter().zip(&net).enumerate() {
            let pass = |pass| delta.evaluate(&EvalQuery::new(l, pass, Parallelism::Single));
            assert_eq!(row.forward, pass(Pass::Fwd).unwrap());
            assert_eq!(row.dgrad, (i > 0).then(|| pass(Pass::Dgrad).unwrap()));
            assert_eq!(row.wgrad, pass(Pass::Wgrad).unwrap());
        }
        assert!(table.backward_seconds() > table.forward_seconds() * 0.5);
        // The bundled timeline is the serial fallback derived from the
        // same estimates.
        assert_eq!(eval.timeline.comm_seconds, 0.0);
        assert!(
            (eval.timeline.step_seconds - table.total_seconds()).abs()
                < 1e-12 * table.total_seconds()
        );
        assert!(eval.timeline.bounds_hold());
    }

    #[test]
    fn step_populates_the_query_cache() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let net = repeated_net();
        let step = StepQuery::new(&net, Parallelism::Single);
        let eval = engine.evaluate_step(&step).unwrap();
        // 4 layers → 4 fwd + 3 dgrad + 4 wgrad = 11 pass queries; shapes
        // repeat (a1 == a2 == a3), so unique queries are fewer.
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, 11);
        assert!(stats.misses < 11, "repeated shapes dedup");
        // Follow-up single-query evaluations are pure hits.
        let misses_before = engine.cache_stats().misses;
        let est = engine.evaluate(&fwd(&net[0])).unwrap();
        assert_eq!(est, eval.table.rows[0].forward);
        assert_eq!(engine.cache_stats().misses, misses_before);
    }

    #[test]
    fn sharded_queries_cache_under_their_own_keys() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let l = conv("big", 64, 28, 256);
        let plain = engine.evaluate(&fwd(&l)).unwrap();
        for n in [1u32, 2, 4] {
            let q = EvalQuery::forward(&l, Parallelism::Sharded { workers: n });
            // The model ignores the hint, so values agree…
            assert_eq!(engine.evaluate(&q).unwrap(), plain);
        }
        // …but each worker count is its own cache entry.
        assert_eq!(engine.cache_stats().misses, 4, "1 single + 3 shard counts");
        assert_eq!(engine.cache_stats().hits, 0);
        // Repeats hit.
        engine
            .evaluate(&EvalQuery::forward(&l, Parallelism::Sharded { workers: 2 }))
            .unwrap();
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn multi_device_queries_use_their_own_cache_keys() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let l = conv("m", 32, 14, 64);
        engine.evaluate(&fwd(&l)).unwrap();
        // Each distinct device count is a distinct cache entry, even for
        // the model backend (whose answer ignores the fleet).
        engine.evaluate(&multi(&l, 2)).unwrap();
        engine.evaluate(&multi(&l, 4)).unwrap();
        assert_eq!(engine.cache_stats().misses, 3, "1 single + 2 device counts");
        // Repeats of every configuration are hits.
        engine.evaluate(&fwd(&l)).unwrap();
        engine.evaluate(&multi(&l, 2)).unwrap();
        engine.evaluate(&multi(&l, 4)).unwrap();
        assert_eq!(engine.cache_stats().misses, 3);
        assert_eq!(engine.cache_stats().hits, 3);
        // A different interconnect is a different key too.
        engine
            .evaluate(&EvalQuery::forward(
                &l,
                Parallelism::multi(&GpuSpec::titan_xp(), 2, InterconnectKind::NvLink),
            ))
            .unwrap();
        assert_eq!(engine.cache_stats().misses, 4);
    }

    #[test]
    fn cache_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("delta_engine_cache_test");
        let path = dir.join("cache.json");
        let net = repeated_net();

        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        engine.evaluate_network(&net, &Parallelism::Single).unwrap();
        engine.evaluate(&multi(&net[0], 2)).unwrap();
        let saved = engine.save_cache(&path).unwrap();
        assert_eq!(saved, 3, "two unique shapes + one multi entry");
        // The file is the versioned format.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"version\": 3"), "{text}");

        // A fresh engine answers everything from the loaded file.
        let fresh = Engine::new(Delta::new(GpuSpec::titan_xp()));
        assert_eq!(fresh.load_cache(&path).unwrap(), saved);
        let eval = fresh.evaluate_network(&net, &Parallelism::Single).unwrap();
        assert_eq!(
            eval.rows,
            engine
                .evaluate_network(&net, &Parallelism::Single)
                .unwrap()
                .rows
        );
        assert_eq!(fresh.cache_stats().misses, 0, "all served from the file");
        assert_eq!(fresh.cache_stats().hits, net.len() as u64);
        // The multi entry round-tripped with its device key intact.
        fresh.evaluate(&multi(&net[0], 2)).unwrap();
        assert_eq!(fresh.cache_stats().misses, 0);

        // Deterministic bytes: saving the same cache twice is identical.
        let first = std::fs::read_to_string(&path).unwrap();
        engine.save_cache(&path).unwrap();
        assert_eq!(first, std::fs::read_to_string(&path).unwrap());
    }

    #[test]
    fn v1_cache_files_are_refused_with_a_version_error() {
        // Satellite: a file written by the pre-query cache (no `version`
        // field, (shape, pass, devices) keys) must be refused with a
        // clear format error — not a panic, not a silent miss.
        let dir = std::env::temp_dir().join("delta_engine_cache_v1_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.json");
        std::fs::write(
            &path,
            r#"{
  "backend": "model",
  "gpu": "TITAN Xp",
  "config": "",
  "entries": [
    {
      "shape": {"batch": 8, "in_channels": 16, "in_height": 14, "in_width": 14,
                "out_channels": 32, "filter_height": 3, "filter_width": 3,
                "stride": 1, "pad": 1},
      "pass": "Forward",
      "devices": 0,
      "estimate": {"l1_bytes": 1.0, "l2_bytes": 1.0, "dram_read_bytes": 1.0,
                   "dram_write_bytes": 1.0, "l1_miss_rate": 0.5, "l2_miss_rate": 0.5,
                   "cycles": 1.0, "seconds": 1.0, "link_bytes": 0.0,
                   "bottleneck": null, "source": "Model"}
    }
  ]
}"#,
        )
        .unwrap();
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let err = engine.load_cache(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("cache format v1"), "{msg}");
        assert!(msg.contains("expected v3"), "{msg}");
        // Nothing was loaded.
        engine.evaluate(&fwd(&conv("x", 16, 14, 32))).unwrap();
        assert_eq!(engine.cache_stats().misses, 1);

        // A future version number is refused too, naming both the
        // file's version and the expected one.
        std::fs::write(
            &path,
            r#"{"version": 4, "backend": "model", "gpu": "TITAN Xp", "config": "", "entries": []}"#,
        )
        .unwrap();
        let err = engine.load_cache(&path).unwrap_err();
        assert!(err.to_string().contains("v4"), "{err}");
        assert!(err.to_string().contains("expected v3"), "{err}");
    }

    #[test]
    fn v2_cache_files_are_refused_naming_v3() {
        // A v2 file is a v3 file minus the step-entry section. It is
        // refused like any other wrong version, and nothing loads.
        let dir = std::env::temp_dir().join("delta_engine_cache_v2_test");
        std::fs::create_dir_all(&dir).unwrap();
        let v3_path = dir.join("v3.json");
        let v2_path = dir.join("v2.json");
        let net = repeated_net();
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        engine.evaluate_network(&net, &Parallelism::Single).unwrap();
        assert_eq!(engine.save_cache(&v3_path).unwrap(), 2, "two unique shapes");

        // Rewrite the saved file as a faithful v2 document: version 2,
        // no `step_entries` field at all.
        let text = std::fs::read_to_string(&v3_path).unwrap();
        let mut doc: Value = serde_json::from_str(&text).unwrap();
        if let Value::Map(fields) = &mut doc {
            fields.retain(|(k, _)| k != "step_entries");
            for (k, val) in fields.iter_mut() {
                if k == "version" {
                    *val = Value::U64(2);
                }
            }
        } else {
            panic!("cache file is a JSON object");
        }
        std::fs::write(&v2_path, serde_json::to_string(&doc).unwrap()).unwrap();

        let fresh = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let err = fresh.load_cache(&v2_path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("cache format v2, expected v3"), "{msg}");
        fresh.evaluate_network(&net, &Parallelism::Single).unwrap();
        assert_eq!(
            fresh.cache_stats().misses,
            2,
            "nothing loaded from the v2 file"
        );

        // A v3 file without its step section is malformed, not a v2.
        let text = serde_json::to_string(&doc).unwrap();
        std::fs::write(&v2_path, text.replacen("\"version\":2", "\"version\":3", 1)).unwrap();
        let err = fresh.load_cache(&v2_path).unwrap_err();
        assert!(err.to_string().contains("step_entries"), "{err}");
    }

    #[test]
    fn step_cache_round_trips_and_relabels() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let net = vec![conv("first", 3, 28, 16), conv("second", 16, 28, 32)];
        let step = StepQuery::new(&net, Parallelism::Single);
        let cold = engine.evaluate_step(&step).unwrap();
        assert_eq!(engine.cache_stats().step_misses, 1);
        assert_eq!(engine.cache_stats().step_hits, 0);

        // Warm repeat: answered from the step cache, zero per-pass
        // lookups, bitwise-equal result.
        let before = engine.cache_stats();
        let warm = engine.evaluate_step(&step).unwrap();
        assert_eq!(warm, cold);
        let after = engine.cache_stats();
        assert_eq!(after.step_hits, 1);
        assert_eq!(after.step_misses, 1);
        assert_eq!(after.hits, before.hits, "no per-pass lookups on a step hit");
        assert_eq!(after.misses, before.misses);

        // Renamed layers share the (label-free) fingerprint; the hit is
        // relabeled to bitwise what a fresh engine computes.
        let renamed: Vec<ConvLayer> = net
            .iter()
            .enumerate()
            .map(|(i, l)| l.with_label(format!("renamed{i}")))
            .collect();
        let renamed_step = StepQuery::new(&renamed, Parallelism::Single);
        let hit = engine.evaluate_step(&renamed_step).unwrap();
        assert_eq!(engine.cache_stats().step_hits, 2);
        let fresh = Engine::new(Delta::new(GpuSpec::titan_xp()))
            .evaluate_step(&renamed_step)
            .unwrap();
        assert_eq!(hit, fresh);
        assert_eq!(hit.table.rows[0].label, "renamed0");
        assert_eq!(hit.timeline.per_device[0].compute[0].label, "renamed0");

        // Round-trip through a v3 file: a fresh engine answers the step
        // from the file with zero backend work.
        let dir = std::env::temp_dir().join("delta_engine_step_cache_test");
        let path = dir.join("cache.json");
        let saved = engine.save_cache(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"step_entries\""), "{text}");
        let loaded = Engine::new(Delta::new(GpuSpec::titan_xp()));
        assert_eq!(loaded.load_cache(&path).unwrap(), saved);
        let from_file = loaded.evaluate_step(&step).unwrap();
        assert_eq!(from_file, cold);
        assert_eq!(loaded.cache_stats().step_hits, 1);
        assert_eq!(loaded.cache_stats().misses, 0, "no backend evaluations");

        // clear_cache drops the step side too.
        loaded.clear_cache();
        loaded.evaluate_step(&step).unwrap();
        assert_eq!(loaded.cache_stats().step_misses, 1);
    }

    #[test]
    fn cache_file_rejects_backend_and_gpu_mismatch() {
        let dir = std::env::temp_dir().join("delta_engine_cache_mismatch_test");
        let path = dir.join("cache.json");
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        engine.evaluate(&fwd(&conv("x", 16, 14, 32))).unwrap();
        engine.save_cache(&path).unwrap();

        let other = Engine::new(Delta::new(GpuSpec::v100()));
        let err = other.load_cache(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("TITAN Xp"), "{err}");

        // Malformed JSON is InvalidData too, not a panic.
        std::fs::write(&path, "{not json").unwrap();
        let err = engine.load_cache(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A missing file is a plain filesystem error.
        assert!(engine.load_cache(&dir.join("absent.json")).is_err());
    }

    /// The whole-tree rendering of `engine`'s caches, which `save_cache`
    /// wrote with `to_string_pretty` before it streamed.
    fn cache_file_tree<B: Backend>(engine: &Engine<B>) -> CacheFile {
        let (entries, step_entries) = engine.cache_snapshot();
        CacheFile {
            version: CACHE_FORMAT_VERSION,
            backend: engine.backend.name().to_string(),
            gpu: engine.backend.gpu().name().to_string(),
            config: engine.backend.config_fingerprint(),
            entries,
            step_entries,
        }
    }

    #[test]
    fn streamed_save_writes_the_bytes_of_the_tree_writer() {
        let dir = std::env::temp_dir().join("delta_engine_streamed_save_test");
        let path = dir.join("cache.json");
        let net = vec![conv("first", 3, 28, 16), conv("second", 16, 28, 32)];
        let fresh = || Engine::new(Delta::new(GpuSpec::titan_xp()));
        let empty = fresh();
        let layers = fresh();
        layers
            .evaluate_network(&repeated_net(), &Parallelism::Single)
            .unwrap();
        layers.evaluate(&multi(&net[0], 2)).unwrap();
        let both = fresh();
        both.evaluate_step(&StepQuery::new(&net, Parallelism::Single))
            .unwrap();
        // Step entries alone: load a file holding only `both`'s steps.
        let steps = fresh();
        let mut tree = cache_file_tree(&both);
        tree.entries.clear();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, serde_json::to_string_pretty(&tree).unwrap()).unwrap();
        steps.load_cache(&path).unwrap();

        for (name, engine, kinds) in [
            ("empty", &empty, (false, false)),
            ("per-layer only", &layers, (true, false)),
            ("step only", &steps, (false, true)),
            ("both", &both, (true, true)),
        ] {
            let tree = cache_file_tree(engine);
            assert_eq!(
                (!tree.entries.is_empty(), !tree.step_entries.is_empty()),
                kinds,
                "{name}"
            );
            engine.save_cache(&path).unwrap();
            let streamed = std::fs::read_to_string(&path).unwrap();
            assert_eq!(
                streamed,
                serde_json::to_string_pretty(&tree).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn truncated_or_corrupt_files_load_nothing() {
        let dir = std::env::temp_dir().join("delta_engine_corrupt_cache_test");
        let path = dir.join("cache.json");
        let net = vec![conv("first", 3, 28, 16), conv("second", 16, 28, 32)];
        let source = Engine::new(Delta::new(GpuSpec::titan_xp()));
        source
            .evaluate_network(&repeated_net(), &Parallelism::Single)
            .unwrap();
        source
            .evaluate_step(&StepQuery::new(&net, Parallelism::Single))
            .unwrap();
        source.save_cache(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        let mut bad: Vec<String> = (1..8)
            .map(|k| text.len() * k / 8)
            .chain([text.len() - 1])
            .map(|cut| text[..cut].to_string())
            .collect();
        // One entry in the middle of `entries` that does not convert, and
        // one that does not parse.
        let mut doc: Value = serde_json::from_str(&text).unwrap();
        let Value::Map(fields) = &mut doc else {
            panic!("cache file is a JSON object")
        };
        let Some((_, Value::Seq(entries))) = fields.iter_mut().find(|(k, _)| k == "entries") else {
            panic!("cache file has entries")
        };
        assert!(entries.len() >= 3, "a middle entry exists");
        let middle = entries.len() / 2;
        entries[middle] = Value::Str("corrupt".into());
        bad.push(serde_json::to_string_pretty(&doc).unwrap());
        let second = text.match_indices("\"estimate\"").nth(1).unwrap().0;
        bad.push(format!("{}x{}", &text[..second], &text[second..]));

        let target = Engine::new(Delta::new(GpuSpec::titan_xp()));
        target.evaluate(&fwd(&conv("x", 16, 14, 32))).unwrap();
        let state = || {
            (
                serde_json::to_string(&target.cache_snapshot()).unwrap(),
                target.cache_stats(),
            )
        };
        let before = state();
        for file in &bad {
            std::fs::write(&path, file).unwrap();
            let err = target.load_cache(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("malformed cache file"), "{err}");
            assert_eq!(state(), before, "a failed load changed the engine");
        }
        // The intact file loads.
        std::fs::write(&path, &text).unwrap();
        assert!(target.load_cache(&path).unwrap() > 0);
        assert_ne!(state(), before);
    }

    #[test]
    fn refusals_do_not_depend_on_field_order() {
        let dir = std::env::temp_dir().join("delta_engine_field_order_test");
        let path = dir.join("cache.json");
        let source = Engine::new(Delta::new(GpuSpec::titan_xp()));
        source
            .evaluate_network(&repeated_net(), &Parallelism::Single)
            .unwrap();
        source.save_cache(&path).unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        let Value::Map(fields) = serde_json::from_str(&saved).unwrap() else {
            panic!("cache file is a JSON object")
        };
        let with = |key: &str, value: Option<Value>| -> Vec<(String, Value)> {
            let mut out: Vec<_> = fields.iter().filter(|(k, _)| k != key).cloned().collect();
            if let Some(v) = value {
                out.insert(0, (key.to_string(), v));
            }
            out
        };
        for (refusal, header_first) in [
            ("cache format v1", with("version", None)),
            ("cache format v4", with("version", Some(Value::U64(4)))),
            ("on `V100`", with("gpu", Some(Value::Str("V100".into())))),
        ] {
            // The same file with both entry arrays ahead of the header.
            let mut entries_first = header_first.clone();
            let n_header = entries_first.len() - 2;
            entries_first.rotate_left(n_header);
            assert_eq!(entries_first[0].0, "entries");
            let mut errors = Vec::new();
            for fields in [header_first, entries_first] {
                let text = serde_json::to_string_pretty(&Value::Map(fields)).unwrap();
                std::fs::write(&path, text).unwrap();
                let err = source.load_cache(&path).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains(refusal), "{err}");
                errors.push(err.to_string());
            }
            assert_eq!(errors[0], errors[1]);
        }
    }

    #[test]
    fn evaluate_uses_cache() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let l = conv("x", 16, 14, 32);
        let a = engine.evaluate(&fwd(&l)).unwrap();
        let b = engine.evaluate(&fwd(&l)).unwrap();
        assert_eq!(a, b);
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 1);
        engine.clear_cache();
        engine.evaluate(&fwd(&l)).unwrap();
        assert_eq!(engine.cache_stats().misses, 2);
    }

    #[test]
    fn design_space_driver_reproduces_scaling_shape() {
        let base = GpuSpec::titan_xp();
        let net = vec![conv("l1", 64, 28, 128), conv("l2", 128, 14, 256)];
        let options = DesignOption::paper_options();
        let points = evaluate_design_space(&options, &net, |opt| opt.model(&base)).unwrap();
        assert_eq!(points.len(), options.len());
        let baseline = Engine::new(Delta::new(base))
            .evaluate_network(&net, &Parallelism::Single)
            .unwrap()
            .total_seconds();
        for p in &points {
            assert!(
                p.speedup_over(baseline) > 0.8,
                "option {} slower than baseline: {:.2}",
                p.option.name,
                p.speedup_over(baseline)
            );
        }
    }

    #[test]
    fn propagates_backend_errors() {
        // An invalid GPU spec fails validation inside Delta::analyze.
        let bad = GpuSpec::titan_xp().to_builder().num_sm(0).build();
        assert!(bad.is_err(), "builder rejects directly");
    }

    #[test]
    fn display_renders_summary_table() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let eval = engine
            .evaluate_network(&repeated_net(), &Parallelism::Single)
            .unwrap();
        let s = eval.to_string();
        assert!(s.contains("bottleneck"));
        assert!(s.contains("a1") && s.contains("total (model on TITAN Xp)"));
    }

    #[test]
    fn serde_round_trip() {
        let engine = Engine::new(Delta::new(GpuSpec::titan_xp()));
        let eval = engine
            .evaluate_network(&repeated_net(), &Parallelism::Single)
            .unwrap();
        let json = serde_json::to_string(&eval).unwrap();
        let back: NetworkEvaluation = serde_json::from_str(&json).unwrap();
        assert_eq!(eval, back);
    }
}
