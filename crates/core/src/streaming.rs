//! Memory-bounded inference over a compressed model — the paper's stated
//! future-work direction (§7: "use DeepSZ for improving GPU memory
//! utilization").
//!
//! Instead of decoding every fc layer up front, [`CompressedFcModel`] keeps
//! the container bytes resident and materializes dense layers during the
//! forward pass, dropping each as soon as its matmul is done. Peak weight
//! memory becomes `max(layer)` instead of `sum(layers)` — for VGG-16's fc
//! stack that is a 411 MB high-water mark instead of 494 MB, and with the
//! compressed container as the only persistent copy, resident model state
//! shrinks by the full compression ratio.
//!
//! # Prefetch
//!
//! By default the forward pass **prefetch-decodes the next fc layer on a
//! pool worker while the current layer's matmul runs**, hiding decode
//! latency behind compute (the same overlap the paper uses across GPUs).
//! Prefetch is budgeted on two axes:
//!
//! * [`CompressedFcModel::with_prefetch_depth`] — how many layers ahead may
//!   be decoding/decoded beyond the executing one (default 1; deep fc
//!   stacks hide more latency at depth ≥ 2). Depth 0 is fully serial and
//!   preserves the strict `max(layer)` bound.
//! * [`CompressedFcModel::with_decoded_bytes_budget`] — a cap on the dense
//!   bytes live at once (executing layer + every in-flight prefetch). A
//!   prefetch that would exceed the cap is simply not scheduled; the layer
//!   decodes inline when its turn comes, so the cap is never violated by
//!   prefetching (a single layer larger than the cap still has to
//!   materialize alone to execute).
//!
//! Decode tasks run on the persistent worker pool
//! ([`dsz_tensor::pool::scope`]); joining a task that no pool worker picked
//! up steals it inline, so prefetch degrades gracefully to serial order on
//! busy or single-core hosts. [`CompressedFcModel::with_prefetch`] with
//! `false` is shorthand for depth 0. An attached decoded-layer cache
//! ([`CompressedFcModel::with_shared_cache`], or
//! [`CompressedFcModel::with_spill_dir`] for one with a disk tier)
//! replaces prefetch as the weight source, so both knobs are ignored then.

// Streaming decodes untrusted container blobs on pool workers: malformed
// input must come back as an `Err`, never a panic (`docs/ROBUSTNESS.md`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::codec::DataCodecKind;
use crate::layer_cache::{CacheHandle, SharedLayerCache};
use crate::pipeline::{
    decode_model, decode_record, parse_records, CompressedModel, DecodedLayer, RawLayerRecord,
};
use crate::DeepSzError;
use dsz_lossless::{Fnv1a, LosslessKind};
use dsz_nn::{dense_forward_with_weights, Batch, Layer, Network};
use dsz_tensor::pool;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

/// Between-layer abort probe for [`CompressedFcModel::forward_cancellable`]
/// — returns `true` when the pass should stop.
pub type AbortFlag<'a> = &'a (dyn Fn() -> bool + Sync);

/// `Err(Cancelled)` when the abort probe fires.
fn check_abort(abort: Option<AbortFlag<'_>>) -> Result<(), DeepSzError> {
    match abort {
        Some(f) if f() => Err(DeepSzError::Cancelled),
        _ => Ok(()),
    }
}

/// Test/harness instrumentation point on the forward path: probed once
/// per fc layer, in execution order, right before that layer's weights
/// are resolved, whichever source supplies them (inline decode, prefetch
/// queue, or the decoded-layer cache and its disk tier). An `Err` aborts
/// the pass with that error, exactly as a real decode failure at that
/// layer would — which is the point: a seeded fault plan
/// (`dsz_serve::chaos`) implements this trait to inject decode errors,
/// slow layers, and mid-batch cancellations deterministically, without
/// touching container bytes. Production models simply leave the hook unset
/// ([`CompressedFcModel::with_forward_hook`]); the happy path pays one
/// `Option` check per layer.
pub trait ForwardHook: std::fmt::Debug + Send + Sync {
    /// Called before skeleton layer `layer_index` executes. Returning an
    /// `Err` fails the forward pass with it.
    fn before_layer(&self, layer_index: usize) -> Result<(), DeepSzError>;
}

/// What a forward pass (or [`CompressedFcModel::materialize`]) does when a
/// layer's record fails to decode.
///
/// Inference cannot proceed without the layer either way — the policy
/// controls how much the caller learns from the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePolicy {
    /// Return the first layer's error immediately (default).
    #[default]
    FailFast,
    /// After the first failure, decode every remaining layer too (on the
    /// error path only — the happy path pays nothing) and return
    /// [`DeepSzError::BadLayers`] aggregating *all* failures, so one pass
    /// over a damaged container enumerates every bad layer.
    ReportBadLayers,
}

/// One fc layer kept in compressed form.
#[derive(Debug, Clone)]
struct CompressedLayer {
    name: String,
    layer_index: usize,
    rows: usize,
    cols: usize,
    /// Error bound the layer was encoded at (metadata; decode ignores it).
    eb: f64,
    data_codec: DataCodecKind,
    codec: LosslessKind,
    data_blob: Vec<u8>,
    idx_blob: Vec<u8>,
    /// FNV-1a over `layer_index ‖ data_blob ‖ idx_blob` — the
    /// content-addressed part of this layer's shared-cache key, computed
    /// once at construction (`crate::layer_cache`).
    record_fnv: u64,
}

impl CompressedLayer {
    fn decode(&self) -> Result<DecodedLayer, DeepSzError> {
        // Same three-stage decode as the eager path (the data stage
        // dispatches through the DataCodec registry); timing discarded.
        let record = RawLayerRecord {
            name: &self.name,
            layer_index: self.layer_index,
            rows: self.rows,
            cols: self.cols,
            eb: self.eb,
            data_codec: self.data_codec,
            codec: self.codec,
            data_blob: &self.data_blob,
            idx_blob: &self.idx_blob,
        };
        decode_record(&record).map(|(layer, _)| layer)
    }

    fn compressed_bytes(&self) -> usize {
        self.data_blob.len() + self.idx_blob.len()
    }

    fn dense_bytes(&self) -> usize {
        self.rows * self.cols * 4
    }
}

/// A network whose fc weights live in DeepSZ-compressed form; dense
/// weights are materialized per layer only while that layer executes.
#[derive(Debug, Clone)]
pub struct CompressedFcModel {
    /// The non-fc skeleton (fc layers carry empty weight buffers).
    skeleton: Network,
    layers: Vec<CompressedLayer>,
    /// Layers ahead of the executing one that may be decoding/decoded.
    prefetch_depth: usize,
    /// Cap on live dense bytes (executing + in-flight prefetches).
    /// Ignored, like `prefetch_depth`, when a cache is attached.
    decoded_bytes_budget: Option<usize>,
    /// What to do when a layer fails to decode.
    decode_policy: DecodePolicy,
    /// Handle into a decoded-layer cache ([`Self::with_shared_cache`],
    /// [`Self::with_spill_dir`]); when set, forwards take weights from it
    /// and hot layers decode once across all tenants and clones.
    shared: Option<CacheHandle>,
    /// Test/harness fault-injection hook, probed once per fc layer
    /// ([`Self::with_forward_hook`]).
    hook: Option<Arc<dyn ForwardHook>>,
}

/// Memory accounting from a streaming forward pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingStats {
    /// Peak bytes of dense fc weights resident at any instant: the
    /// executing layer plus every in-flight prefetch decode, or, with a
    /// cache attached, that cache's live bytes plus the executing layer
    /// when the cache did not park it.
    pub peak_dense_bytes: usize,
    /// Sum of dense fc weights (what eager decoding would hold).
    pub total_dense_bytes: usize,
    /// Persistent compressed bytes.
    pub compressed_bytes: usize,
}

impl CompressedFcModel {
    /// Builds a streaming model from a network skeleton and its compressed
    /// container. The skeleton's fc weights are discarded (replaced by
    /// empty buffers) — only shapes and non-fc layers are kept. Prefetch
    /// depth defaults to 1 with no decoded-bytes cap.
    pub fn new(net: &Network, model: &CompressedModel) -> Result<Self, DeepSzError> {
        let mut skeleton = net.clone();
        let layers: Vec<CompressedLayer> = parse_records(&model.bytes)?
            .into_iter()
            .map(|r| {
                let mut fnv = Fnv1a::with_tag(r.layer_index as u64);
                fnv.update(r.data_blob);
                fnv.update(r.idx_blob);
                CompressedLayer {
                    name: r.name.to_string(),
                    layer_index: r.layer_index,
                    rows: r.rows,
                    cols: r.cols,
                    eb: r.eb,
                    data_codec: r.data_codec,
                    codec: r.codec,
                    data_blob: r.data_blob.to_vec(),
                    idx_blob: r.idx_blob.to_vec(),
                    record_fnv: fnv.finish(),
                }
            })
            .collect();
        for l in &layers {
            if l.layer_index >= skeleton.layers.len() {
                return Err(DeepSzError::BadContainer(format!(
                    "layer index {} out of range",
                    l.layer_index
                )));
            }
            let Layer::Dense(d) = &mut skeleton.layers[l.layer_index] else {
                return Err(DeepSzError::BadContainer(format!(
                    "container layer {} targets a non-dense network layer",
                    l.name
                )));
            };
            if d.name != l.name || d.w.rows != l.rows || d.w.cols != l.cols {
                return Err(DeepSzError::BadContainer(format!(
                    "layer {} does not match network layer {}",
                    l.name, d.name
                )));
            }
            // Release the dense weights; the compressed blob is canonical.
            d.w.data = Vec::new();
        }
        Ok(Self {
            skeleton,
            layers,
            prefetch_depth: 1,
            decoded_bytes_budget: None,
            decode_policy: DecodePolicy::default(),
            shared: None,
            hook: None,
        })
    }

    /// Enables (depth 1) or disables (depth 0) decode prefetch — shorthand
    /// for [`Self::with_prefetch_depth`].
    pub fn with_prefetch(self, on: bool) -> Self {
        self.with_prefetch_depth(usize::from(on))
    }

    /// Sets how many fc layers ahead of the executing one may be
    /// decoding/decoded concurrently. Depth 0 decodes inline (strict
    /// `max(layer)` dense peak); depth `d ≥ 1` holds at most the executing
    /// layer plus `d` prefetches, subject to the decoded-bytes budget.
    /// Ignored when a cache is attached ([`Self::with_shared_cache`],
    /// [`Self::with_spill_dir`]), and on a 1-worker budget: those passes
    /// decode inline.
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Caps the dense bytes live at once (executing layer + in-flight
    /// prefetches). `None` removes the cap. Prefetches that would exceed
    /// the cap wait; execution itself is never blocked. Ignored when a
    /// cache is attached ([`Self::with_shared_cache`],
    /// [`Self::with_spill_dir`]): its quota bounds live bytes instead.
    pub fn with_decoded_bytes_budget(mut self, bytes: Option<usize>) -> Self {
        self.decoded_bytes_budget = bytes;
        self
    }

    /// Sets the per-layer decode failure policy (see [`DecodePolicy`]).
    pub fn with_decode_policy(mut self, policy: DecodePolicy) -> Self {
        self.decode_policy = policy;
        self
    }

    /// Attaches a fresh [`SharedLayerCache`] with a disk tier
    /// ([`SharedLayerCache::with_spill_dir`]): decoded layers are parked
    /// in memory up to `bytes_quota` bytes, evicted layers are written
    /// FNV-stamped into `dir` and re-loaded instead of re-decoded on the
    /// next use. Forward passes take weights from this cache instead of
    /// the prefetch queue — the cache itself bounds live dense bytes at
    /// `quota + executing layer`, which is the point — and stay
    /// bit-identical to the in-RAM path (spill files round-trip exact f32
    /// bits). Typically paired with a quota sized to the hot layers of a
    /// model larger than RAM. Its counters are
    /// `shared_cache().unwrap().cache().stats()`.
    pub fn with_spill_dir(
        self,
        dir: impl AsRef<Path>,
        bytes_quota: usize,
    ) -> Result<Self, DeepSzError> {
        let cache = SharedLayerCache::with_spill_dir(bytes_quota, dir.as_ref())?;
        Ok(self.with_shared_cache(cache.handle()))
    }

    /// Attaches a handle into a process-wide
    /// [`SharedLayerCache`](crate::layer_cache::SharedLayerCache):
    /// forwards take weights from it instead of the prefetch queue, and
    /// each fc layer's decoded weights are looked up under
    /// `(model, layer, record_fnv)` — hot layers decode **once across
    /// every model and request** sharing the cache, cold layers fall back
    /// to the cache's disk tier (when it has one) and then to a container
    /// decode. Results are bit-identical to the
    /// uncached serial path at every quota, including 0 (the cache hands
    /// back the same decoded bits or nothing). This is the constructor
    /// the serving layer (`dsz_serve`) uses; `docs/SERVING.md` has the
    /// quota semantics.
    pub fn with_shared_cache(mut self, handle: CacheHandle) -> Self {
        self.shared = Some(handle);
        self
    }

    /// The shared-cache handle, if one is attached.
    pub fn shared_cache(&self) -> Option<&CacheHandle> {
        self.shared.as_ref()
    }

    /// Attaches (or with `None`, detaches) a [`ForwardHook`] — the
    /// deterministic fault-injection point the chaos harness uses.
    /// Clones share the hook; a model loaded for production leaves it
    /// unset.
    pub fn with_forward_hook(mut self, hook: Option<Arc<dyn ForwardHook>>) -> Self {
        self.hook = hook;
        self
    }

    /// Probes the attached hook for layer `i`; a hook error fails the
    /// pass exactly as a decode failure at that layer would (it does
    /// *not* route through [`Self::decode_failure`] — the injected error
    /// is the report).
    fn probe_hook(&self, i: usize) -> Result<(), DeepSzError> {
        match &self.hook {
            Some(h) => h.before_layer(i),
            None => Ok(()),
        }
    }

    /// Error path of [`DecodePolicy::ReportBadLayers`]: given the first
    /// failure, decode every *other* layer (results discarded) and fold
    /// every failure into one [`DeepSzError::BadLayers`] report. Under
    /// [`DecodePolicy::FailFast`] the first error passes through as-is.
    fn decode_failure(&self, failed_layer_index: usize, first: DeepSzError) -> DeepSzError {
        if self.decode_policy == DecodePolicy::FailFast {
            return first;
        }
        let mut errs = vec![first];
        for c in &self.layers {
            if c.layer_index == failed_layer_index {
                continue;
            }
            if let Err(e) = c.decode() {
                errs.push(e);
            }
        }
        DeepSzError::BadLayers(errs)
    }

    /// Forward pass, materializing fc layers on demand. Returns the output
    /// batch and the memory accounting.
    pub fn forward(&self, x: &Batch) -> Result<(Batch, StreamingStats), DeepSzError> {
        self.forward_inner(x, None)
    }

    /// [`Self::forward`] with a between-layer abort probe: `abort` is
    /// evaluated before each layer executes, and a `true` stops the pass
    /// with [`DeepSzError::Cancelled`]. The serving layer's micro-batcher
    /// passes "every request in this batch is cancelled" here, so a
    /// batch whose tenants all hung up stops paying for decodes and
    /// matmuls at the next layer boundary.
    pub fn forward_cancellable(
        &self,
        x: &Batch,
        abort: AbortFlag<'_>,
    ) -> Result<(Batch, StreamingStats), DeepSzError> {
        self.forward_inner(x, Some(abort))
    }

    /// Looks up the compressed blob backing skeleton layer `i`.
    fn compressed_for(&self, i: usize) -> Result<&CompressedLayer, DeepSzError> {
        self.layers
            .iter()
            .find(|l| l.layer_index == i)
            .ok_or_else(|| DeepSzError::BadContainer(format!("no blob for fc layer {i}")))
    }

    /// The one forward loop. Each fc layer's dense weights come from the
    /// source chosen for the whole pass:
    ///
    /// * **cache** (when attached): an `Arc` clone of the resident copy,
    ///   else a verified rehydrate from the cache's disk tier (when it has
    ///   one), else a container decode, parked for the next pass or tenant
    ///   when the quota permits;
    /// * **prefetch queue** otherwise: while layer *k*'s matmul runs, pool
    ///   tasks decode up to `prefetch_depth` upcoming layers within the
    ///   decoded-bytes budget, and a layer nobody prefetched decodes inline.
    ///
    /// The queue stays empty at depth 0, on a 1-worker budget and whenever
    /// a cache is attached (the cache, not prefetch, bounds live bytes and
    /// hides decode latency there), so those passes decode one layer at a
    /// time with the strict `max(layer)` peak.
    fn forward_inner(
        &self,
        x: &Batch,
        abort: Option<AbortFlag<'_>>,
    ) -> Result<(Batch, StreamingStats), DeepSzError> {
        let mut stats = StreamingStats {
            compressed_bytes: self
                .layers
                .iter()
                .map(CompressedLayer::compressed_bytes)
                .sum(),
            ..Default::default()
        };
        // Compressed fc layers in execution order. Resolving every blob up
        // front fails before scheduling anything, and makes the later
        // lookups infallible indexing.
        let blobs: Vec<&CompressedLayer> = self
            .skeleton
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Layer::Dense(d) if d.w.data.is_empty()))
            .map(|(i, _)| self.compressed_for(i))
            .collect::<Result<_, _>>()?;

        // Decode tasks run concurrently with the matmul thread, so the
        // caller's worker budget is split between the two sides (each side
        // at least 1). Pinning inside the spawned task also propagates a
        // `with_workers` override, whose thread-local would otherwise be
        // unset on a pool worker. With no second thread to overlap with,
        // honoring a 1-thread pin means running no concurrent decode.
        let budget = dsz_tensor::parallel::worker_count();
        let depth = if self.shared.is_some() || budget < 2 {
            0
        } else {
            self.prefetch_depth
        };
        let bytes_budget = self.decoded_bytes_budget.unwrap_or(usize::MAX);
        let decode_budget = budget / 2;
        let compute_budget = budget - decode_budget;
        // The decode half of the budget is shared by all in-flight decodes.
        let per_decode_budget = (decode_budget / depth.max(1)).max(1);

        // In-flight prefetch bookkeeping: (position in execution order,
        // decode task handle, target dense bytes).
        type Prefetch<'scope> = (
            usize,
            pool::TaskHandle<'scope, Result<DecodedLayer, DeepSzError>>,
            usize,
        );
        pool::scope(|s| {
            let mut pending: VecDeque<Prefetch<'_>> = VecDeque::new();
            let mut pending_bytes = 0usize;
            let mut next_ord = 0usize;

            // Schedules prefetch decodes while depth and the bytes budget
            // allow, given the dense bytes currently held by execution.
            // (A macro rather than a closure: the spawned handles carry the
            // scope lifetime, which a closure signature cannot name.)
            macro_rules! schedule {
                ($executing_bytes:expr) => {
                    while pending.len() < depth && next_ord < blobs.len() {
                        let c = blobs[next_ord];
                        let bytes = c.dense_bytes();
                        if $executing_bytes + pending_bytes + bytes > bytes_budget {
                            break;
                        }
                        let handle = s.spawn(move || {
                            dsz_tensor::parallel::with_workers(per_decode_budget, || c.decode())
                        });
                        pending.push_back((next_ord, handle, bytes));
                        pending_bytes += bytes;
                        next_ord += 1;
                    }
                };
            }

            // Warm the pipeline so leading non-fc layers (e.g. a conv
            // stack) overlap with the first decodes.
            schedule!(0);

            let mut cur_ord = 0usize;
            let mut cur = x.clone();
            for layer in &self.skeleton.layers {
                check_abort(abort)?;
                let d = match layer {
                    Layer::Dense(d) if d.w.data.is_empty() => d,
                    // Non-fc layers also share cores with in-flight decodes
                    // (e.g. the conv stack before the first fc).
                    other => {
                        cur = forward_sharing_budget(!pending.is_empty(), compute_budget, || {
                            other.forward(&cur).0
                        });
                        continue;
                    }
                };
                let c = blobs[cur_ord];
                let i = c.layer_index;
                self.probe_hook(i)?;
                let decode = || {
                    c.decode()
                        .map(|layer| layer.dense)
                        .map_err(|e| self.decode_failure(i, e))
                };
                // `resident`: dense bytes held beside the executing layer.
                let (weights, resident) = if let Some(handle) = &self.shared {
                    let (weights, parked) = handle.lookup_or_decode(i, c.record_fnv, decode)?;
                    // A parked layer is already part of the cache's live
                    // bytes.
                    let own = if parked { weights.len() * 4 } else { 0 };
                    let beside = handle.cache().live_bytes().saturating_sub(own);
                    (Weights::Shared(weights), beside)
                } else {
                    let weights = match pending.pop_front_if(|p| p.0 == cur_ord) {
                        Some((_, handle, bytes)) => {
                            pending_bytes -= bytes;
                            handle
                                .join()
                                .map(|layer| layer.dense)
                                .map_err(|e| self.decode_failure(i, e))?
                        }
                        // Not prefetched (queue empty, or depth exhausted by
                        // the bytes budget): decode inline.
                        None => {
                            next_ord = next_ord.max(cur_ord + 1);
                            decode()?
                        }
                    };
                    // Top the pipeline back up now that the executing
                    // layer's footprint is known.
                    schedule!(weights.len() * 4);
                    (Weights::Owned(weights), pending_bytes)
                };
                cur_ord += 1;
                let dense_bytes = weights.len() * 4;
                stats.peak_dense_bytes = stats.peak_dense_bytes.max(dense_bytes + resident);
                stats.total_dense_bytes += dense_bytes;
                cur = forward_sharing_budget(!pending.is_empty(), compute_budget, || {
                    dense_forward_with_weights(d, &weights, &cur)
                });
            }
            Ok((cur, stats))
        })
    }

    /// Eagerly decodes everything into a plain [`Network`] (the
    /// conventional decode path, for comparison).
    pub fn materialize(&self) -> Result<Network, DeepSzError> {
        let mut net = self.skeleton.clone();
        for c in &self.layers {
            let decoded = c
                .decode()
                .map_err(|e| self.decode_failure(c.layer_index, e))?;
            let Layer::Dense(d) = &mut net.layers[c.layer_index] else {
                unreachable!("validated at construction")
            };
            d.w.data = decoded.dense;
        }
        Ok(net)
    }
}

/// The executing fc layer's dense weights.
enum Weights {
    /// Decoded for this pass alone.
    Owned(Vec<f32>),
    /// The cache's copy, shared with every request holding it.
    Shared(Arc<Vec<f32>>),
}

impl std::ops::Deref for Weights {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match self {
            Weights::Owned(w) => w,
            Weights::Shared(w) => w,
        }
    }
}

/// Runs one layer's forward `f`, pinned to `compute_budget` workers while
/// a prefetch decode is in flight (the decode side holds the rest of the
/// budget) and at full width otherwise.
fn forward_sharing_budget(
    decode_in_flight: bool,
    compute_budget: usize,
    f: impl FnOnce() -> Batch,
) -> Batch {
    if decode_in_flight {
        dsz_tensor::parallel::with_workers(compute_budget, f)
    } else {
        f()
    }
}

/// Consistency check used by tests: streaming and eager decode agree.
pub fn streaming_matches_eager(
    net: &Network,
    model: &CompressedModel,
    probe: &Batch,
) -> Result<bool, DeepSzError> {
    let streaming = CompressedFcModel::new(net, model)?;
    let (out_s, _) = streaming.forward(probe)?;
    let mut eager = net.clone();
    let (decoded, _) = decode_model(model)?;
    crate::pipeline::apply_decoded(&mut eager, decoded)?;
    Ok(out_s == eager.forward(probe))
}
