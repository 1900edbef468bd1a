//! Process-wide decoded-layer cache shared across models — the serving
//! layer's hot-path allocation (`docs/SERVING.md`) and, with a disk tier,
//! the spill store that lets a model larger than RAM skip re-decoding.
//!
//! Streaming inference's decoded-bytes budget
//! ([`CompressedFcModel::with_decoded_bytes_budget`](crate::streaming::CompressedFcModel::with_decoded_bytes_budget))
//! bounds *one* model's prefetch footprint. A multi-tenant server holding
//! N models under one RAM budget needs the opposite shape: **one** quota,
//! shared by every tenant, with the globally hottest layers resident and
//! the cold tail re-decoded (or rehydrated from disk) on demand.
//! [`SharedLayerCache`] is that cache:
//!
//! * Entries are keyed by `(model, layer, record_fnv)` — the FNV of the
//!   layer's compressed record is part of the key, so hot-swapping a
//!   model id to new container bytes can never serve the old model's
//!   weights (the stale key simply stops being looked up and ages out;
//!   [`SharedLayerCache::purge_model`] drops it eagerly).
//! * Payloads are `Arc<Vec<f32>>`: a hit is a pointer clone, so any
//!   number of concurrent requests (micro-batches included) multiply
//!   against one resident copy. Eviction drops the cache's reference;
//!   requests mid-flight keep theirs until their matmul retires.
//! * The global quota is enforced by a [`ByteBudget`] ledger at
//!   *insertion* time: a decoded layer is parked only if its bytes
//!   [`try_charge`](ByteBudget::try_charge) under the cap after LRU
//!   eviction has made room, and a layer larger than the whole quota
//!   bypasses the cache entirely. The ledger therefore **never exceeds
//!   the quota** — not even transiently — and its high-water mark proves
//!   it. (The layer currently executing a matmul is owned by its
//!   request, not the cache; total live dense bytes are bounded by
//!   `quota + one executing layer per in-flight request`.)
//!
//! # Disk tier
//!
//! [`SharedLayerCache::with_spill_dir`] adds a second tier behind the
//! same map and ledger. An entry evicted from memory, and a payload too
//! large for the whole quota, is written to a file once — only if its
//! key has no file yet. A memory miss reads and verifies that file and
//! re-parks the payload under the quota; only a miss in both tiers runs
//! the container decode. The tier reads only files it wrote itself, and
//! they persist until [`SharedLayerCache::purge_model`] or until one
//! fails verification.
//!
//! A spill file is trusted exactly as much as a container record: not at
//! all. Each carries a header `"DSPL" | model | layer | record_fnv |
//! element count | payload FNV-1a` (u64 LE each) followed by the raw
//! little-endian f32 payload, and is verified on read. A stomped,
//! truncated or swapped file is deleted and forgotten, and the lookup
//! returns [`DeepSzError::Corrupt`] with stage `"spill"` — transient, so
//! a retry misses cleanly and decodes (`docs/ROBUSTNESS.md`). Writes go
//! to a temp file renamed into place, so a crash mid-spill leaves no
//! plausible file.
//!
//! Lock discipline: one mutex guards the map and the set of spilled
//! keys; decodes and file I/O never run under it. Two threads that miss
//! the same key concurrently both decode and the later insert wins (its
//! twin's ledger charge is released) — a deliberate thundering-herd
//! trade: decodes are idempotent and bit-identical, so correctness is
//! unaffected and the hot path stays wait-free for hits.

// The cache sits on the serving decode path: malformed input, spill
// files included, and quota pressure must surface as values, never
// panics (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::pipeline::{corrupt, read_u64_le};
use crate::DeepSzError;
use dsz_lossless::fnv1a;
use dsz_tensor::budget::ByteBudget;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Cache key: which model, which fc layer, and the FNV-1a digest of the
/// layer's compressed record (content-addressing, so swapped bytes can
/// never alias).
pub type LayerKey = (u64, usize, u64);

/// A looked-up payload and whether it is resident, i.e. already counted
/// in [`SharedLayerCache::live_bytes`].
type Found = (Arc<Vec<f32>>, bool);

const SPILL_MAGIC: &[u8; 4] = b"DSPL";
/// Magic, then model, layer, record FNV, element count and payload FNV.
const SPILL_HEADER_LEN: usize = 4 + 5 * 8;
/// Hard cap on elements accepted from a spill-file header, mirroring the
/// container's dims cap: a corrupt length field must not size an
/// allocation.
const MAX_SPILL_ELEMS: usize = 1 << 28;

#[derive(Debug)]
struct Entry {
    payload: Arc<Vec<f32>>,
    bytes: usize,
    /// Logical touch clock; the smallest value is the LRU victim.
    touched: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<LayerKey, Entry>,
    clock: u64,
    /// Keys whose spill file this cache wrote and has not deleted
    /// (always empty without a disk tier).
    spilled: HashSet<LayerKey>,
}

/// Monotonic activity counters plus the ledger's current/peak state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory (a pointer clone).
    pub hits: u64,
    /// Lookups that found the layer in neither tier (caller decoded it
    /// from the container).
    pub misses: u64,
    /// Decoded layers parked in the cache.
    pub insertions: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
    /// Decoded layers that could not park (larger than the whole quota,
    /// or raced with an insert of the same key) and went straight to the
    /// caller uncached.
    pub bypasses: u64,
    /// Bytes currently resident.
    pub live_bytes: usize,
    /// Peak resident bytes over the cache's lifetime (≤ quota, always).
    pub high_water: usize,
    /// Payloads written to the disk tier; a key whose file exists is not
    /// written again.
    pub spills: u64,
    /// Lookups served by reading and verifying a spill file.
    pub rehydrates: u64,
    /// Spill files that failed verification; each was deleted, so the
    /// next lookup of its key decodes.
    pub poisoned: u64,
}

impl CacheStats {
    /// Fraction of lookups served from memory, in `[0, 1]`; `0.0` before
    /// any lookup. Without a disk tier `rehydrates` is 0 and this is
    /// `hits / (hits + misses)`, the hit-rate definition every bench
    /// records (`BENCH_serve.json`, `BENCH_encode_decode.json`).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.rehydrates + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The process-wide decoded-layer LRU cache. See the module docs for the
/// quota and keying contract; construct one per serving process (or per
/// test) and hand models a [`CacheHandle`] each via
/// [`SharedLayerCache::handle`].
#[derive(Debug)]
pub struct SharedLayerCache {
    budget: ByteBudget,
    inner: Mutex<Inner>,
    /// Spill directory of the disk tier, if any.
    spill_dir: Option<PathBuf>,
    next_model: AtomicU64,
    /// Makes concurrent writers of one key use distinct temp files.
    next_tmp: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    spills: AtomicU64,
    rehydrates: AtomicU64,
    poisoned: AtomicU64,
}

impl SharedLayerCache {
    /// A cache bounded at `bytes_quota` resident decoded bytes, with no
    /// disk tier. Quota 0 is legal and means "never park anything" —
    /// every lookup misses, which is exactly the uncached serial path.
    pub fn new(bytes_quota: usize) -> Arc<Self> {
        Arc::new(Self::build(bytes_quota, None))
    }

    /// A cache bounded at `bytes_quota` resident decoded bytes whose
    /// evicted and oversized payloads spill into `dir` (created if
    /// absent) and rehydrate from there instead of re-decoding. At quota
    /// 0 every payload lives on disk alone.
    pub fn with_spill_dir(
        bytes_quota: usize,
        dir: impl Into<PathBuf>,
    ) -> Result<Arc<Self>, DeepSzError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DeepSzError::BadContainer(format!("spill dir {}: {e}", dir.display())))?;
        Ok(Arc::new(Self::build(bytes_quota, Some(dir))))
    }

    fn build(bytes_quota: usize, spill_dir: Option<PathBuf>) -> Self {
        Self {
            budget: ByteBudget::bounded(bytes_quota),
            inner: Mutex::new(Inner::default()),
            spill_dir,
            next_model: AtomicU64::new(0),
            next_tmp: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            rehydrates: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
        }
    }

    /// Issues a handle with a fresh model id. Ids are never reused, so a
    /// reloaded model can never hit the unloaded generation's entries.
    pub fn handle(self: &Arc<Self>) -> CacheHandle {
        CacheHandle {
            cache: Arc::clone(self),
            model: self.next_model.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The configured byte quota.
    pub fn quota(&self) -> usize {
        self.budget.cap().unwrap_or(usize::MAX)
    }

    /// Bytes of decoded payloads currently resident (≤ quota).
    pub fn live_bytes(&self) -> usize {
        self.budget.current()
    }

    /// Resident bytes as a fraction of the quota, in `[0, 1]`; `0.0`
    /// for a zero quota (nothing can ever park). A cheap load watermark
    /// for serving dashboards and shed heuristics.
    pub fn utilization(&self) -> f64 {
        self.budget.utilization()
    }

    /// Snapshot of the activity counters and ledger state.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            live_bytes: self.budget.current(),
            high_water: self.budget.high_water(),
            spills: self.spills.load(Ordering::Relaxed),
            rehydrates: self.rehydrates.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic under this lock can only be a bug in this module; the
        // map is still structurally sound, so recover rather than poison
        // every future request.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up `key` in memory, refreshing its recency on a hit.
    fn fetch(&self, key: LayerKey) -> Option<Arc<Vec<f32>>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let e = inner.map.get_mut(&key)?;
        e.touched = clock;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&e.payload))
    }

    /// Looks up `key` in memory, then in the disk tier; a rehydrated
    /// payload is re-parked under the quota. `Ok(None)` means neither
    /// tier had it.
    fn lookup(&self, key: LayerKey) -> Result<Option<Found>, DeepSzError> {
        if let Some(hit) = self.fetch(key) {
            return Ok(Some((hit, true)));
        }
        let dir = match &self.spill_dir {
            Some(dir) if self.lock().spilled.contains(&key) => dir,
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        };
        match Self::read_spill_file(dir, key) {
            Ok(payload) => {
                self.rehydrates.fetch_add(1, Ordering::Relaxed);
                let payload = Arc::new(payload);
                let resident = self.insert(key, Arc::clone(&payload));
                Ok(Some((payload, resident)))
            }
            Err(e) => {
                // A poisoned file would fail identically on every read:
                // delete it and forget the key, so the caller's retry
                // misses cleanly and decodes from the verified container.
                self.remove_spill_file(key);
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Parks a decoded payload under `key`, evicting LRU entries until
    /// its bytes fit under the quota; with a disk tier each victim, and a
    /// payload that cannot park, is spilled first. Returns whether it was
    /// cached (`false` = bypass: larger than the whole quota, or an
    /// insert of the same key raced ahead). The ledger is charged
    /// *before* the map holds the entry and never exceeds the quota.
    fn insert(&self, key: LayerKey, payload: Arc<Vec<f32>>) -> bool {
        let bytes = payload.len() * 4;
        while !self.budget.try_charge(bytes) {
            // Evict the least-recently-touched entry; if there is
            // nothing left to evict the payload simply cannot fit.
            let evicted = {
                let mut inner = self.lock();
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.touched)
                    .map(|(k, _)| *k);
                victim.and_then(|k| inner.map.remove(&k).map(|e| (k, e)))
            };
            match evicted {
                Some((k, e)) => {
                    self.spill(k, &e.payload);
                    self.budget.release(e.bytes);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    self.spill(key, &payload);
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let entry = Entry {
            payload,
            bytes,
            touched: inner.clock,
        };
        if let Some(old) = inner.map.insert(key, entry) {
            // A concurrent decode of the same key got here first; the
            // payloads are bit-identical, keep ours and release its
            // charge so the ledger stays exact.
            self.budget.release(old.bytes);
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Drops every entry belonging to `model`, releasing their bytes and
    /// deleting their spill files — the unload/hot-swap path.
    pub fn purge_model(&self, model: u64) {
        let (removed, files): (Vec<Entry>, Vec<LayerKey>) = {
            let mut inner = self.lock();
            let keys: Vec<LayerKey> = inner
                .map
                .keys()
                .filter(|(m, _, _)| *m == model)
                .copied()
                .collect();
            let removed = keys
                .into_iter()
                .filter_map(|k| inner.map.remove(&k))
                .collect();
            let files = inner
                .spilled
                .iter()
                .filter(|(m, _, _)| *m == model)
                .copied()
                .collect();
            (removed, files)
        };
        for e in removed {
            self.budget.release(e.bytes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        for key in files {
            self.remove_spill_file(key);
        }
    }

    /// Number of resident entries (diagnostics).
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn spill_path(dir: &Path, (model, layer, fnv): LayerKey) -> PathBuf {
        dir.join(format!("layer-{model}-{layer}-{fnv:016x}.dspill"))
    }

    /// Writes `payload` to the disk tier unless `key` already has a file
    /// there (or there is no tier). A failed write leaves no file, so the
    /// key simply decodes again on its next miss.
    fn spill(&self, key: LayerKey, payload: &[f32]) {
        let Some(dir) = &self.spill_dir else {
            return;
        };
        if self.lock().spilled.contains(&key) {
            return;
        }
        let (model, layer, fnv) = key;
        let mut bytes = Vec::with_capacity(SPILL_HEADER_LEN + payload.len() * 4);
        bytes.extend_from_slice(SPILL_MAGIC);
        // The payload FNV (last field) is patched in once the body is laid
        // out.
        for field in [model, layer as u64, fnv, payload.len() as u64, 0] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        for v in payload {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let digest = fnv1a(&bytes[SPILL_HEADER_LEN..]).to_le_bytes();
        bytes[SPILL_HEADER_LEN - 8..SPILL_HEADER_LEN].copy_from_slice(&digest);

        let path = Self::spill_path(dir, key);
        let tmp = path.with_extension(format!(
            "tmp{}",
            self.next_tmp.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            std::fs::remove_file(&tmp).ok();
            return;
        }
        self.lock().spilled.insert(key);
        self.spills.fetch_add(1, Ordering::Relaxed);
    }

    /// Deletes `key`'s spill file and forgets it.
    fn remove_spill_file(&self, key: LayerKey) {
        if let Some(dir) = &self.spill_dir {
            self.lock().spilled.remove(&key);
            std::fs::remove_file(Self::spill_path(dir, key)).ok();
        }
    }

    /// Reads `key`'s spill file and verifies every header field and the
    /// payload digest before trusting a single weight.
    fn read_spill_file(dir: &Path, key: LayerKey) -> Result<Vec<f32>, DeepSzError> {
        let (model, layer, fnv) = key;
        let label = format!("<spill {model}/{layer}>");
        let path = Self::spill_path(dir, key);
        let bytes = std::fs::read(&path)
            .map_err(|e| corrupt(&label, "spill", format!("read {}: {e}", path.display())))?;
        if bytes.get(..4) != Some(SPILL_MAGIC.as_slice()) {
            return Err(corrupt(&label, "spill", "bad spill file header"));
        }
        let field = |i: usize| {
            read_u64_le(&bytes, 4 + 8 * i).ok_or_else(|| corrupt(&label, "spill", "truncated"))
        };
        let stamped = (field(0)?, field(1)?, field(2)?);
        if stamped != (model, layer as u64, fnv) {
            return Err(corrupt(
                &label,
                "spill",
                format!(
                    "file stamped for {stamped:?}, expected {:?}",
                    (model, layer, fnv)
                ),
            ));
        }
        let elems = usize::try_from(field(3)?)
            .ok()
            .filter(|&n| n <= MAX_SPILL_ELEMS)
            .ok_or_else(|| corrupt(&label, "spill", "element count out of range"))?;
        let want_fnv = field(4)?;
        let body = &bytes[SPILL_HEADER_LEN..];
        if body.len() != elems * 4 {
            return Err(corrupt(
                &label,
                "spill",
                format!(
                    "payload is {} bytes, header declares {}",
                    body.len(),
                    elems * 4
                ),
            ));
        }
        if fnv1a(body) != want_fnv {
            return Err(corrupt(&label, "spill", "payload fnv mismatch"));
        }
        Ok(body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// One model's view of a [`SharedLayerCache`]: the cache pointer plus
/// the model id baked into every key. Clones share the id (a clone of a
/// streaming model keeps hitting the same entries); a *new* generation
/// of the model must take a fresh handle.
#[derive(Debug, Clone)]
pub struct CacheHandle {
    cache: Arc<SharedLayerCache>,
    model: u64,
}

impl CacheHandle {
    /// The shared cache this handle points into.
    pub fn cache(&self) -> &Arc<SharedLayerCache> {
        &self.cache
    }

    /// This handle's model id (unique per [`SharedLayerCache::handle`]).
    pub fn model(&self) -> u64 {
        self.model
    }

    /// Looks up `(self.model, layer, record_fnv)` in memory, then in the
    /// disk tier; on a miss in both runs `decode`, parks the result
    /// (quota permitting), and returns it. The decode runs outside every
    /// cache lock. A spill file that fails verification surfaces as a
    /// transient [`DeepSzError::Corrupt`] at stage `"spill"`.
    pub fn get_or_decode<E: From<DeepSzError>>(
        &self,
        layer: usize,
        record_fnv: u64,
        decode: impl FnOnce() -> Result<Vec<f32>, E>,
    ) -> Result<Arc<Vec<f32>>, E> {
        self.lookup_or_decode(layer, record_fnv, decode)
            .map(|(payload, _)| payload)
    }

    /// [`Self::get_or_decode`], also reporting whether the returned
    /// payload is resident in the cache (already in its live bytes).
    pub(crate) fn lookup_or_decode<E: From<DeepSzError>>(
        &self,
        layer: usize,
        record_fnv: u64,
        decode: impl FnOnce() -> Result<Vec<f32>, E>,
    ) -> Result<Found, E> {
        let key = (self.model, layer, record_fnv);
        if let Some(found) = self.cache.lookup(key)? {
            return Ok(found);
        }
        let payload = Arc::new(decode()?);
        let resident = self.cache.insert(key, Arc::clone(&payload));
        Ok((payload, resident))
    }

    /// Drops this model's entries (see [`SharedLayerCache::purge_model`]).
    pub fn purge(&self) {
        self.cache.purge_model(self.model);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize, fill: f32) -> Arc<Vec<f32>> {
        Arc::new(vec![fill; n])
    }

    fn test_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "dsz-layer-cache-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Looks `layer` up through `h`, decoding `fill`s on a miss in both
    /// tiers; returns the payload and whether the decode ran.
    fn serve(h: &CacheHandle, layer: usize, n: usize, fill: f32) -> (Vec<f32>, bool) {
        let mut decoded = false;
        let out = h
            .get_or_decode(layer, layer as u64 * 11, || {
                decoded = true;
                Ok::<_, DeepSzError>(vec![fill; n])
            })
            .unwrap();
        (out.to_vec(), decoded)
    }

    fn assert_spill_corrupt(err: DeepSzError) {
        assert!(err.transient(), "spill corruption is the retryable kind");
        match err {
            DeepSzError::Corrupt { stage, .. } => assert_eq!(stage, "spill"),
            other => panic!("expected Corrupt at spill stage, got {other}"),
        }
    }

    #[test]
    fn quota_forces_spill_and_rehydrate_is_bit_identical() {
        let dir = test_dir("evict");
        // Quota fits exactly one 4-element payload.
        let cache = SharedLayerCache::with_spill_dir(16, &dir).unwrap();
        let h = cache.handle();
        let a: Vec<f32> = vec![0.1, 0.2, 0.3, 0.4];
        let b: Vec<f32> = vec![9.0, 8.0, 7.0, 6.0];
        h.get_or_decode(0, 0, || Ok::<_, DeepSzError>(a.clone()))
            .unwrap();
        h.get_or_decode(1, 1, || Ok::<_, DeepSzError>(b.clone()))
            .unwrap(); // evicts 0 to disk
        assert!(cache.live_bytes() <= 16);
        assert_eq!(cache.stats().spills, 1);
        let back = h
            .get_or_decode(0, 0, || -> Result<Vec<f32>, DeepSzError> {
                panic!("a spilled layer must rehydrate, not decode")
            })
            .unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "rehydrated payload must be bit-identical"
        );
        let s = cache.stats();
        assert_eq!((s.rehydrates, s.misses), (1, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_payload_spills_straight_to_disk() {
        let dir = test_dir("oversize");
        let cache = SharedLayerCache::with_spill_dir(8, &dir).unwrap();
        let h = cache.handle();
        assert_eq!(serve(&h, 3, 64, 1.5), (vec![1.5; 64], true));
        assert_eq!(
            cache.live_bytes(),
            0,
            "oversized payload must not park in memory"
        );
        assert_eq!(cache.stats().spills, 1);
        assert_eq!(serve(&h, 3, 64, 0.0), (vec![1.5; 64], false));
        assert_eq!(cache.stats().rehydrates, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Parks layer 5 on disk at quota 0 and flips a payload bit in its
    /// file.
    fn poisoned_cache(tag: &str) -> (PathBuf, Arc<SharedLayerCache>, CacheHandle, PathBuf) {
        let dir = test_dir(tag);
        let cache = SharedLayerCache::with_spill_dir(0, &dir).unwrap();
        let h = cache.handle();
        serve(&h, 5, 32, 0.5);
        let path = SharedLayerCache::spill_path(&dir, (h.model(), 5, 55));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // stomp a payload byte
        std::fs::write(&path, &bytes).unwrap();
        (dir, cache, h, path)
    }

    #[test]
    fn poisoned_spill_file_is_rejected() {
        let (dir, _cache, h, _) = poisoned_cache("poison");
        assert_spill_corrupt(h.get_or_decode(5, 55, || Ok(vec![0.5f32; 32])).unwrap_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_spill_file_self_heals_to_a_clean_miss() {
        let (dir, cache, h, path) = poisoned_cache("heal");
        assert!(
            h.get_or_decode(5, 55, || Ok::<_, DeepSzError>(vec![0.5f32; 32]))
                .is_err(),
            "first lookup reports the damage"
        );
        assert_eq!(cache.stats().poisoned, 1);
        assert!(!path.exists(), "the bad file must be deleted");
        // The retry is a clean miss: the caller re-decodes from the
        // container rather than re-reading a file that can never verify.
        assert_eq!(serve(&h, 5, 32, 0.5), (vec![0.5; 32], true));
        assert_eq!(cache.stats().misses, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_file_stamped_for_another_key_is_rejected() {
        let dir = test_dir("swap");
        let cache = SharedLayerCache::with_spill_dir(0, &dir).unwrap();
        let (a, b) = (cache.handle(), cache.handle());
        let park = |h: &CacheHandle, layer: usize, fnv: u64| {
            h.get_or_decode(layer, fnv, || Ok::<_, DeepSzError>(vec![fnv as f32; 8]))
                .unwrap();
        };
        let victim = (a.model(), 1, 11);
        // Donors stamped for another layer (a swapped file), another
        // model, and another record FNV.
        let donors = [(a.model(), 2, 22), (b.model(), 1, 11), (a.model(), 1, 33)];
        for &(m, layer, fnv) in &donors {
            park(if m == a.model() { &a } else { &b }, layer, fnv);
        }
        for donor in donors {
            park(&a, victim.1, victim.2);
            let bytes = std::fs::read(SharedLayerCache::spill_path(&dir, donor)).unwrap();
            std::fs::write(SharedLayerCache::spill_path(&dir, victim), bytes).unwrap();
            assert_spill_corrupt(cache.lookup(victim).unwrap_err());
        }
        assert_eq!(cache.stats().poisoned, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_quota_spills_everything_and_still_serves() {
        let dir = test_dir("zero");
        let cache = SharedLayerCache::with_spill_dir(0, &dir).unwrap();
        let h = cache.handle();
        for k in 0..3 {
            serve(&h, k, 16, k as f32 + 0.5);
        }
        assert_eq!(cache.live_bytes(), 0);
        assert_eq!(cache.stats().spills, 3);
        for k in 0..3 {
            assert_eq!(serve(&h, k, 16, 0.0), (vec![k as f32 + 0.5; 16], false));
        }
        assert_eq!(cache.stats().high_water, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn purge_model_deletes_its_spill_files() {
        let dir = test_dir("purge");
        let cache = SharedLayerCache::with_spill_dir(0, &dir).unwrap();
        let (a, b) = (cache.handle(), cache.handle());
        serve(&a, 0, 4, 1.0);
        serve(&a, 1, 4, 2.0);
        serve(&b, 0, 4, 3.0);
        let files = || std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files(), 3);
        a.purge();
        assert_eq!(files(), 1, "only the other model's file is left");
        assert_eq!(
            serve(&a, 0, 4, 1.0),
            (vec![1.0; 4], true),
            "purged: decodes"
        );
        assert_eq!(
            serve(&b, 0, 4, 0.0),
            (vec![3.0; 4], false),
            "kept: rehydrates"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hit_after_insert_is_same_allocation() {
        let cache = SharedLayerCache::new(1 << 16);
        let h = cache.handle();
        let p = payload(8, 1.5);
        assert!(cache.insert((h.model(), 0, 7), Arc::clone(&p)));
        let got = cache.fetch((h.model(), 0, 7)).unwrap();
        assert!(Arc::ptr_eq(&got, &p), "hit must share the allocation");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().live_bytes, 32);
    }

    #[test]
    fn lru_eviction_under_quota() {
        // Quota fits exactly two 4-element entries.
        let cache = SharedLayerCache::new(32);
        let h = cache.handle();
        let m = h.model();
        assert!(cache.insert((m, 0, 0), payload(4, 0.0)));
        assert!(cache.insert((m, 1, 1), payload(4, 1.0)));
        // Touch layer 0 so layer 1 is the LRU victim.
        assert!(cache.fetch((m, 0, 0)).is_some());
        assert!(cache.insert((m, 2, 2), payload(4, 2.0)));
        assert!(cache.fetch((m, 0, 0)).is_some(), "recently touched stays");
        assert!(cache.fetch((m, 1, 1)).is_none(), "LRU victim evicted");
        assert!(cache.fetch((m, 2, 2)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.high_water <= 32, "ledger must never pass the quota");
    }

    #[test]
    fn oversized_payload_bypasses() {
        let cache = SharedLayerCache::new(8);
        let h = cache.handle();
        assert!(!cache.insert((h.model(), 0, 0), payload(100, 0.5)));
        assert_eq!(cache.stats().bypasses, 1);
        assert_eq!(cache.stats().live_bytes, 0);
        assert_eq!(cache.stats().high_water, 0);
    }

    #[test]
    fn zero_quota_never_parks() {
        let cache = SharedLayerCache::new(0);
        let h = cache.handle();
        let out = h
            .get_or_decode(3, 9, || Ok::<_, DeepSzError>(vec![1.0f32; 16]))
            .unwrap();
        assert_eq!(out.len(), 16);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().high_water, 0);
    }

    #[test]
    fn purge_model_releases_only_that_model() {
        let cache = SharedLayerCache::new(1 << 16);
        let a = cache.handle();
        let b = cache.handle();
        assert_ne!(a.model(), b.model());
        cache.insert((a.model(), 0, 1), payload(4, 0.0));
        cache.insert((b.model(), 0, 1), payload(4, 0.0));
        a.purge();
        assert!(cache.fetch((a.model(), 0, 1)).is_none());
        assert!(cache.fetch((b.model(), 0, 1)).is_some());
        assert_eq!(cache.stats().live_bytes, 16);
    }

    #[test]
    fn get_or_decode_decodes_once_then_hits() {
        let cache = SharedLayerCache::new(1 << 16);
        let h = cache.handle();
        let mut decodes = 0u32;
        for _ in 0..3 {
            let out = h
                .get_or_decode(0, 42, || {
                    decodes += 1;
                    Ok::<_, DeepSzError>(vec![2.0f32; 4])
                })
                .unwrap();
            assert_eq!(*out, vec![2.0f32; 4]);
        }
        assert_eq!(decodes, 1, "hot layer decodes once");
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn hit_rate_definition() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn fresh_cache_reports_zero_hit_rate_and_utilization() {
        // The zero-lookup edge through a *live* cache (not a synthetic
        // stats struct): no division by zero, no NaN leaking into the
        // bench JSON.
        let cache = SharedLayerCache::new(64);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert_eq!(cache.utilization(), 0.0);
        assert!(cache.stats().hit_rate().is_finite());
        // Inserts alone (no lookups) still report a 0.0 hit rate.
        let h = cache.handle();
        assert!(cache.insert((h.model(), 0, 1), payload(4, 1.0)));
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!((cache.utilization() - 0.25).abs() < 1e-12);
    }
}
