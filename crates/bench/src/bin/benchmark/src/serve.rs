//! The serving stage: DeepSZ-compressed LeNet-300-100 tenants behind
//! `dsz_serve` (model registry, shared decoded-layer cache, count-bounded
//! micro-batching) under seeded open-loop and closed-loop load.
//!
//! Load model. In an open-loop phase one generator thread sleeps until
//! each request's due time and submits it; one collector thread waits on the
//! tickets, oldest first. The collector is the only thread that waits, so it
//! leads every batch: the growth of `ServeStats::batched_samples` across
//! one `wait` is that batch's width, and its other members are the next
//! requests submitted to the same model generation, whose latency ends at
//! the same instant. A request's latency runs from its due time (not its
//! submit time) to that instant, so a stalled generator shows up as
//! latency. The closed-loop phase uses one thread that keeps a fixed number
//! of tickets outstanding.

use crate::load::{poisson_arrivals, Rng, Zipf};
use crate::report::{Checks, Report};
use crate::stats::{median, percentile, sorted, windows};
use crate::trace::{SpanId, Tracer};
use dsz_core::optimizer::{ChosenLayer, Plan};
use dsz_core::{
    encode_with_plan, CacheStats, CompressedFcModel, CompressedModel, DataCodecKind,
    LayerAssessment, SeekableContainer,
};
use dsz_nn::{dense_forward_with_weights, zoo, Arch, Batch, Network, Scale};
use dsz_serve::{BatchConfig, ModelRegistry, ServeError, ServeStats, Server, Ticket};
use dsz_sparse::PairArray;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serving traffic of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub tenants: usize,
    /// Shared-cache quota, in units of one tenant's dense fc bytes.
    pub quota_tenants: f64,
    /// Tenant popularity: Zipf with s = 1 when set, else uniform.
    pub zipf: bool,
    pub low_rps: f64,
    pub high_rps: f64,
    /// Live hot-swaps: every this many seconds the next tenant, round
    /// robin, flips to its other generation.
    pub swap_every_s: Option<f64>,
}

/// Two tenants whose layers all fit the cache: after warm-up every layer
/// is a hit, so time goes to matmul and batching.
pub const WARM: Traffic = Traffic {
    tenants: 2,
    quota_tenants: 2.5,
    zipf: false,
    low_rps: 1000.0,
    high_rps: 2000.0,
    swap_every_s: None,
};

/// Eight Zipf-popular tenants over a cache that holds two, with a hot-swap
/// every second: most batches decode layers.
pub const CHURN: Traffic = Traffic {
    tenants: 8,
    quota_tenants: 2.0,
    zipf: true,
    low_rps: 300.0,
    high_rps: 550.0,
    swap_every_s: Some(1.0),
};

const MAX_BATCH: usize = 8;
/// Distinct request inputs per run.
const INPUTS: usize = 16;
/// Tickets the closed-loop client keeps outstanding.
const OUTSTANDING: usize = 64;
/// The paper's LeNet-300-100 densities (Table 2) and chosen bounds (§5.2.2).
const DENSITIES: [f64; 3] = [0.08, 0.09, 0.26];
const PAPER_BOUNDS: [f64; 3] = [2e-2, 3e-2, 4e-2];
/// The second generation is encoded at this multiple of the paper bounds,
/// so its outputs differ from the first's.
const GEN1_SCALE: f64 = 2.0;
/// Windows per phase in each cycle; every latency or rate metric is the
/// median of its per-window values over all cycles.
const WINDOWS: usize = 2;
/// Unmeasured traffic before the first cycle fills the cache, and before
/// every later phase lets the server settle at the new load.
const FIRST_WARMUP_S: f64 = 1.0;
const WARMUP_S: f64 = 0.2;
const CALIB_REPS: usize = 50;

struct Tenant {
    id: String,
    skeleton: Network,
    generations: [Vec<u8>; 2],
    /// Output bits of the uncached serial forward, per generation and input.
    reference: [Vec<Vec<u32>>; 2],
    dense_bytes: usize,
}

/// Which generation of a tenant is live, and how many loads it has had:
/// every load starts a new request queue, so batch-mates share both.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Live {
    epoch: u64,
    generation: usize,
}

/// The live generation of every tenant, and the time each hot-swap took.
struct Swaps {
    live: Vec<Live>,
    ms: Vec<f64>,
}

impl Swaps {
    /// Loads `generation` of tenant `t` over the live one.
    fn swap(
        &mut self,
        registry: &ModelRegistry,
        tenants: &[Tenant],
        t: usize,
        generation: usize,
    ) -> Result<(), String> {
        let tenant = &tenants[t];
        let start = Instant::now();
        registry
            .load(
                &tenant.id,
                &tenant.skeleton,
                &tenant.generations[generation],
            )
            .map_err(|e| format!("hot-swap {}: {e}", tenant.id))?;
        self.ms.push(start.elapsed().as_secs_f64() * 1e3);
        let live = &mut self.live[t];
        *live = Live {
            epoch: live.epoch + 1,
            generation,
        };
        Ok(())
    }
}

/// The set-up output: tenants, inputs, and the loaded registry.
pub struct Fleet {
    tenants: Vec<Tenant>,
    inputs: Vec<Vec<f32>>,
    registry: Arc<ModelRegistry>,
    load_ms: Vec<f64>,
    swaps: Swaps,
}

impl Fleet {
    /// Splits the fleet for one phase: the read-only client side and the
    /// live generations, which only hot-swaps change.
    fn client<'a>(&'a mut self, server: &'a Server, tr: &'a Tracer) -> (Client<'a>, &'a mut Swaps) {
        let client = Client {
            server,
            registry: &self.registry,
            tenants: &self.tenants,
            inputs: &self.inputs,
            tr,
        };
        (client, &mut self.swaps)
    }
}

/// A fresh server (own queues and counters) over the shared registry.
fn new_server(registry: &Arc<ModelRegistry>) -> Server {
    Server::new(
        Arc::clone(registry),
        BatchConfig {
            max_batch: MAX_BATCH,
        },
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A full-scale LeNet-300-100 with seed-derived trained-like weights,
/// pruned to the paper's densities and encoded at the paper's bounds (and
/// at twice them), with the reference outputs of both generations.
fn build_tenant(id: String, seed: u64, inputs: &[Vec<f32>]) -> Result<Tenant, String> {
    let skeleton = zoo::build(Arch::LeNet300, Scale::Full, seed);
    let mut assessments = Vec::new();
    let mut dense_bytes = 0;
    for (li, fc) in skeleton.fc_layers().into_iter().enumerate() {
        let mut dense =
            dsz_datagen::weights::trained_fc_weights(fc.rows, fc.cols, seed ^ (li as u64) << 8);
        dsz_prune::prune_to_density(&mut dense, DENSITIES[li]);
        dense_bytes += dense.len() * 4;
        let pair = PairArray::from_dense(&dense, fc.rows, fc.cols);
        let (index_codec, index_blob) = dsz_lossless::best_fit(&pair.index);
        assessments.push(LayerAssessment {
            fc,
            pair,
            index_codec,
            index_bytes: index_blob.len(),
            points: Vec::new(),
        });
    }
    let encode = |scale: f64| -> Result<Vec<u8>, String> {
        let layers = assessments
            .iter()
            .zip(PAPER_BOUNDS)
            .map(|(a, eb)| ChosenLayer {
                fc: a.fc.clone(),
                eb: eb * scale,
                degradation: 0.0,
                data_bytes: 0,
                index_bytes: a.index_bytes,
                codec: DataCodecKind::Sz,
                point_index: 0,
            })
            .collect();
        let plan = Plan {
            layers,
            predicted_loss: 0.0,
            total_bytes: 0,
        };
        let (model, _) =
            encode_with_plan(&assessments, &plan).map_err(|e| format!("encode {id}: {e}"))?;
        Ok(model.bytes)
    };
    let generations = [encode(1.0)?, encode(GEN1_SCALE)?];
    let batch = Batch::from_features(inputs.len(), skeleton.input_shape.len(), inputs.concat());
    let mut reference: [Vec<Vec<u32>>; 2] = Default::default();
    for (g, bytes) in generations.iter().enumerate() {
        let model = CompressedFcModel::new(
            &skeleton,
            &CompressedModel {
                bytes: bytes.clone(),
            },
        )
        .map_err(|e| format!("reference model {id}: {e}"))?
        .with_prefetch(false);
        let (out, _) = model
            .forward(&batch)
            .map_err(|e| format!("reference forward {id}: {e}"))?;
        reference[g] = (0..inputs.len()).map(|i| bits(out.sample(i))).collect();
    }
    if reference[0] == reference[1] {
        return Err(format!("{id}: both generations give the same outputs"));
    }
    Ok(Tenant {
        id,
        skeleton,
        generations,
        reference,
        dense_bytes,
    })
}

/// Builds the tenants, loads them, and checks a hot-swap round trip.
pub fn setup(
    seed: u64,
    traffic: Traffic,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<Fleet, String> {
    let mut rng = Rng::new(seed).fork(0x5E4E);
    let inputs: Vec<Vec<f32>> = (0..INPUTS)
        .map(|_| (0..784).map(|_| rng.centered()).collect())
        .collect();
    let mut tenants = Vec::with_capacity(traffic.tenants);
    for t in 0..traffic.tenants {
        let tenant_seed = rng.next_u64();
        tenants.push(tr.span("serve.build_tenant", parent, |_| {
            build_tenant(format!("m{t}"), tenant_seed, &inputs)
        })?);
    }
    let quota = (tenants[0].dense_bytes as f64 * traffic.quota_tenants) as usize;
    let registry = Arc::new(ModelRegistry::new(quota));
    let mut load_ms = Vec::with_capacity(tenants.len());
    for t in &tenants {
        let start = Instant::now();
        tr.span("registry.load", parent, |_| {
            registry.load(&t.id, &t.skeleton, &t.generations[0])
        })
        .map_err(|e| format!("load {}: {e}", t.id))?;
        load_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut swaps = Swaps {
        live: vec![
            Live {
                epoch: 0,
                generation: 0
            };
            tenants.len()
        ],
        ms: Vec::new(),
    };
    // Hot-swap round trip: the new generation must answer at once, and
    // the old one again after swapping back.
    let server = new_server(&registry);
    for generation in [1, 0] {
        swaps.swap(&registry, &tenants, 0, generation)?;
        let t = &tenants[0];
        let out = server
            .infer(&t.id, inputs[0].clone())
            .map_err(|e| format!("infer after hot-swap: {e}"))?;
        if bits(&out) != t.reference[generation][0] {
            return Err(format!("{}: stale output after hot-swap", t.id));
        }
    }
    Ok(Fleet {
        tenants,
        inputs,
        registry,
        load_ms,
        swaps,
    })
}

/// A submitted request's identity; its ticket travels beside it.
#[derive(Debug, Clone, Copy)]
struct Meta {
    seq: u64,
    tenant: usize,
    live: Live,
    input: usize,
    due: Instant,
}

impl Meta {
    /// Requests batch together only within one model generation's queue.
    fn queue(&self) -> (usize, u64) {
        (self.tenant, self.live.epoch)
    }
}

struct InFlight {
    ticket: Ticket,
    meta: Meta,
}

/// Removes and returns the next `count` items of queue `want`, in order,
/// from `pending`, pulling more items from `more` when `pending` runs out.
/// These are the batch-mates of a request whose wait grew the batched
/// sample counter by `count + 1`. `None` if `more` runs dry first, which
/// means the attribution is wrong.
fn take_mates<T>(
    pending: &mut VecDeque<T>,
    queue: impl Fn(&T) -> (usize, u64),
    want: (usize, u64),
    count: usize,
    mut more: impl FnMut() -> Option<T>,
) -> Option<Vec<T>> {
    let mut mates = Vec::with_capacity(count);
    let mut i = 0;
    while mates.len() < count {
        if i == pending.len() {
            pending.push_back(more()?);
        }
        if queue(&pending[i]) == want {
            mates.extend(pending.remove(i));
        } else {
            i += 1;
        }
    }
    Some(mates)
}

/// What one phase measured.
#[derive(Default)]
struct PhaseRecord {
    /// `(due time from the window start, latency ms)` of measured requests.
    latency: Vec<(f64, f64)>,
    /// Completion times from the window start (closed loop).
    completions: Vec<f64>,
    submit_us: Vec<f64>,
    /// Durations of the waits that led a batch.
    wait_us: Vec<f64>,
    late_ms: Vec<f64>,
    /// Span of due times over span of send times, in the measured window.
    achieved_ratio: f64,
    stats: ServeStats,
    queue_high_water: usize,
    submitted: u64,
    errors: u64,
    mismatches: u64,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Picks requests: tenant by the traffic's popularity, input uniformly.
struct Picker {
    rng: Rng,
    zipf: Option<Zipf>,
    tenants: usize,
}

impl Picker {
    fn new(rng: Rng, traffic: Traffic) -> Self {
        Self {
            rng,
            zipf: traffic.zipf.then(|| Zipf::new(traffic.tenants, 1.0)),
            tenants: traffic.tenants,
        }
    }

    fn pick(&mut self) -> (usize, usize) {
        let tenant = match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(self.tenants),
        };
        (tenant, self.rng.below(INPUTS))
    }
}

/// Hot-swaps on the traffic's schedule. The schedule counts serving time
/// only, so the gaps between a run's cycles neither delay nor bunch swaps.
struct Swapper {
    every: Option<f64>,
    tenants: usize,
    /// Serving time of the next swap.
    next_at: f64,
    next_tenant: usize,
    /// Serving time before the current phase began.
    base: f64,
}

impl Swapper {
    fn new(traffic: Traffic) -> Self {
        Self {
            every: traffic.swap_every_s,
            tenants: traffic.tenants,
            next_at: traffic.swap_every_s.unwrap_or(f64::INFINITY),
            next_tenant: 0,
            base: 0.0,
        }
    }

    /// Takes the next swap due at or before `offset` seconds into the
    /// current phase: its time from the phase start and its tenant. A swap
    /// that fell due after the previous phase's last request runs at once.
    fn next_due(&mut self, offset: f64) -> Option<(f64, usize)> {
        let every = self.every?;
        if self.next_at > self.base + offset {
            return None;
        }
        let due = (self.next_at - self.base).max(0.0);
        let tenant = self.next_tenant;
        self.next_tenant = (tenant + 1) % self.tenants;
        self.next_at += every;
        Some((due, tenant))
    }

    /// Performs every swap due at or before `offset` seconds into the
    /// phase that began at `start`, each at its own time.
    fn run_due(
        &mut self,
        swaps: &mut Swaps,
        client: &Client<'_>,
        start: Instant,
        offset: f64,
    ) -> Result<(), String> {
        while let Some((due, t)) = self.next_due(offset) {
            sleep_until(start + Duration::from_secs_f64(due));
            let generation = 1 - swaps.live[t].generation;
            swaps.swap(client.registry, client.tenants, t, generation)?;
        }
        Ok(())
    }
}

/// The read-only side of a phase: where requests go and what they must
/// return.
struct Client<'a> {
    server: &'a Server,
    registry: &'a ModelRegistry,
    tenants: &'a [Tenant],
    inputs: &'a [Vec<f32>],
    tr: &'a Tracer,
}

impl Client<'_> {
    /// Submits one request for `live` generation of its tenant.
    fn submit(
        &self,
        live: Live,
        seq: u64,
        (tenant, input): (usize, usize),
        due: Instant,
        rec: &mut PhaseRecord,
    ) -> Option<InFlight> {
        let start = Instant::now();
        let submitted = self
            .server
            .submit(&self.tenants[tenant].id, self.inputs[input].clone());
        let end = Instant::now();
        self.tr.record("serve.submit", None, Some(seq), start, end);
        rec.submitted += 1;
        rec.submit_us.push((end - start).as_secs_f64() * 1e6);
        match submitted {
            Ok(ticket) => Some(InFlight {
                ticket,
                meta: Meta {
                    seq,
                    tenant,
                    live,
                    input,
                    due,
                },
            }),
            Err(e) => {
                eprintln!("submit {seq} refused: {e}");
                rec.errors += 1;
                None
            }
        }
    }

    /// Checks one resolved request against its generation's reference.
    fn resolve(&self, meta: &Meta, result: Result<Vec<f32>, ServeError>, rec: &mut PhaseRecord) {
        match result {
            Ok(out) => {
                let want = &self.tenants[meta.tenant].reference[meta.live.generation][meta.input];
                rec.mismatches += u64::from(&bits(&out) != want);
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", meta.seq);
                rec.errors += 1;
            }
        }
    }

    /// Waits on `head`, the oldest request, then on its batch-mates.
    /// Returns the batch's completion instant and its members.
    fn wait_batch(
        &self,
        head: InFlight,
        pending: &mut VecDeque<InFlight>,
        more: impl FnMut() -> Option<InFlight>,
        rec: &mut PhaseRecord,
    ) -> (Instant, Vec<Meta>) {
        let before = self.server.stats().batched_samples;
        let start = Instant::now();
        let result = head.ticket.wait();
        let end = Instant::now();
        let width = (self.server.stats().batched_samples - before) as usize;
        self.tr
            .record("serve.wait", None, Some(head.meta.seq), start, end);
        rec.wait_us.push((end - start).as_secs_f64() * 1e6);
        self.resolve(&head.meta, result, rec);
        let mates = take_mates(
            pending,
            |r: &InFlight| r.meta.queue(),
            head.meta.queue(),
            width.saturating_sub(1),
            more,
        )
        .expect("every batch-mate was submitted before its batch ran");
        let mut members = vec![head.meta];
        for mate in mates {
            let result = mate.ticket.wait();
            self.resolve(&mate.meta, result, rec);
            members.push(mate.meta);
        }
        (end, members)
    }

    /// Closes a phase: the server's counters and deepest queue.
    fn finish(&self, rec: &mut PhaseRecord) {
        rec.stats = self.server.stats();
        rec.queue_high_water = self
            .tenants
            .iter()
            .filter_map(|t| self.server.queue_stats(&t.id))
            .map(|q| q.depth_high_water)
            .max()
            .unwrap_or(0);
    }
}

/// Open loop: Poisson arrivals at `rate` over `warmup` plus `window`
/// seconds, sent by a generator thread and collected by this one.
fn open_phase(
    fleet: &mut Fleet,
    traffic: Traffic,
    rate: f64,
    (warmup, window): (f64, f64),
    rng: &mut Rng,
    swapper: &mut Swapper,
    tr: &Tracer,
) -> Result<PhaseRecord, String> {
    let server = new_server(&fleet.registry);
    let (client, swaps) = fleet.client(&server, tr);
    let arrivals = poisson_arrivals(&mut rng.fork(1), rate, warmup + window);
    let mut picker = Picker::new(rng.fork(2), traffic);
    let picks: Vec<(usize, usize)> = arrivals.iter().map(|_| picker.pick()).collect();
    let (tx, rx) = mpsc::channel::<InFlight>();
    // A short lead, so the first arrival is not late by construction.
    let start = Instant::now() + Duration::from_millis(5);
    let window_start = start + Duration::from_secs_f64(warmup);
    let (sent, mut rec) = std::thread::scope(|s| {
        let client = &client;
        let generator = s.spawn(move || -> Result<PhaseRecord, String> {
            let mut rec = PhaseRecord::default();
            let mut measured: Option<((f64, Instant), (f64, Instant))> = None;
            for (seq, (&offset, &pick)) in arrivals.iter().zip(&picks).enumerate() {
                swapper.run_due(swaps, client, start, offset)?;
                let due = start + Duration::from_secs_f64(offset);
                sleep_until(due);
                let sent = Instant::now();
                let live = swaps.live[pick.0];
                let Some(req) = client.submit(live, seq as u64, pick, due, &mut rec) else {
                    continue;
                };
                if offset >= warmup {
                    rec.late_ms.push((sent - due).as_secs_f64() * 1e3);
                    let first = measured.map_or((offset, sent), |m| m.0);
                    measured = Some((first, (offset, sent)));
                }
                tx.send(req).expect("the collector outlives the generator");
            }
            rec.achieved_ratio = match measured {
                Some(((f, fs), (l, ls))) if ls > fs => (l - f) / (ls - fs).as_secs_f64(),
                _ => 1.0,
            };
            swapper.base += warmup + window;
            Ok(rec)
        });
        let mut rec = PhaseRecord::default();
        let mut pending: VecDeque<InFlight> = VecDeque::new();
        while let Some(head) = pending.pop_front().or_else(|| rx.recv().ok()) {
            let (end, members) = client.wait_batch(head, &mut pending, || rx.recv().ok(), &mut rec);
            for m in members.iter().filter(|m| m.due >= window_start) {
                rec.latency.push((
                    (m.due - window_start).as_secs_f64(),
                    (end - m.due).as_secs_f64() * 1e3,
                ));
            }
        }
        (generator.join().expect("generator thread panicked"), rec)
    });
    let sent = sent?;
    client.finish(&mut rec);
    Ok(PhaseRecord {
        submit_us: sent.submit_us,
        late_ms: sent.late_ms,
        achieved_ratio: sent.achieved_ratio,
        submitted: sent.submitted,
        errors: sent.errors + rec.errors,
        ..rec
    })
}

/// Closed loop: one thread keeps `OUTSTANDING` tickets in flight for
/// `warmup` plus `window` seconds.
fn closed_phase(
    fleet: &mut Fleet,
    traffic: Traffic,
    (warmup, window): (f64, f64),
    rng: &mut Rng,
    swapper: &mut Swapper,
    tr: &Tracer,
) -> Result<PhaseRecord, String> {
    let server = new_server(&fleet.registry);
    let (client, swaps) = fleet.client(&server, tr);
    let mut picker = Picker::new(rng.fork(3), traffic);
    let mut rec = PhaseRecord::default();
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    let start = Instant::now();
    let window_start = start + Duration::from_secs_f64(warmup);
    let end_at = window_start + Duration::from_secs_f64(window);
    let mut seq = 0u64;
    loop {
        while pending.len() < OUTSTANDING && Instant::now() < end_at {
            let pick = picker.pick();
            let live = swaps.live[pick.0];
            pending.extend(client.submit(live, seq, pick, Instant::now(), &mut rec));
            seq += 1;
        }
        let Some(head) = pending.pop_front() else {
            break;
        };
        // Every request came from this thread, so every batch-mate is
        // already pending.
        let (end, members) = client.wait_batch(head, &mut pending, || None, &mut rec);
        if end >= window_start && end < end_at {
            let t = (end - window_start).as_secs_f64();
            rec.completions.extend(members.iter().map(|_| t));
        }
        let offset = (Instant::now() - start).as_secs_f64();
        swapper.run_due(swaps, &client, start, offset)?;
    }
    swapper.base += warmup + window;
    client.finish(&mut rec);
    Ok(rec)
}

/// Per-layer timings of single calls in one traced run: a tenant layer's
/// seekable decode, and ip1's dense forward at batch widths 1 and 8.
fn calibrate(fleet: &Fleet, tr: &Tracer, layers: &mut Report) -> Result<(), String> {
    let t = &fleet.tenants[0];
    let seek = SeekableContainer::open_slice(&t.generations[0])
        .map_err(|e| format!("SeekableContainer::open_slice: {e}"))?;
    let fcs = t.skeleton.fc_layers();
    for (i, fc) in fcs.iter().enumerate() {
        let name = format!("calib.decode.{}", fc.name);
        for _ in 0..CALIB_REPS {
            tr.span(name.clone(), None, |_| seek.layer(i))
                .map_err(|e| format!("SeekableContainer::layer({i}): {e}"))?;
        }
        layers.add(
            format!("calib.decode_us.{}", fc.name),
            median(&tr.durations_ms(&name)) * 1e3,
            "us",
        );
    }
    let ip1 = seek
        .layer(0)
        .map_err(|e| format!("SeekableContainer::layer(0): {e}"))?;
    let dense = t.skeleton.dense(fcs[0].layer_index);
    for width in [1usize, 8] {
        let x = Batch::from_features(width, fcs[0].cols, fleet.inputs[..width].concat());
        let name = format!("calib.matmul.w{width}");
        for _ in 0..CALIB_REPS {
            std::hint::black_box(tr.span(name.clone(), None, |_| {
                dense_forward_with_weights(dense, &ip1.dense, std::hint::black_box(&x))
            }));
        }
        layers.add(
            format!("calib.matmul_us.w{width}"),
            median(&tr.durations_ms(&name)) * 1e3,
            "us",
        );
    }
    Ok(())
}

fn cache_delta(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        insertions: b.insertions - a.insertions,
        evictions: b.evictions - a.evictions,
        bypasses: b.bypasses - a.bypasses,
        ..b
    }
}

const PHASES: [&str; 3] = ["low", "high", "closed"];

/// One phase's measurements over every cycle of a run.
#[derive(Default)]
struct Totals {
    /// Per-window latency percentiles (open loop) or completion rates
    /// (closed loop).
    p50: Vec<f64>,
    p90: Vec<f64>,
    rate: Vec<f64>,
    latency: Vec<f64>,
    submit_us: Vec<f64>,
    wait_us: Vec<f64>,
    late_ms: Vec<f64>,
    achieved_ratio: Vec<f64>,
    samples: usize,
    batches: u64,
    batched_samples: u64,
    max_width: u64,
    queue_high_water: usize,
    submitted: u64,
    errors: u64,
}

/// The serving stage of one run, advanced one cycle at a time.
pub struct Stage<'f> {
    fleet: &'f mut Fleet,
    traffic: Traffic,
    rng: Rng,
    swapper: Swapper,
    totals: [Totals; 3],
    cycles: usize,
    cache_before: CacheStats,
    swaps_before: usize,
}

impl<'f> Stage<'f> {
    /// Starts the stage; a traced run first times single calls.
    pub fn new(
        fleet: &'f mut Fleet,
        traffic: Traffic,
        seed: u64,
        tr: &Tracer,
        layers: &mut Report,
    ) -> Result<Self, String> {
        if tr.enabled() {
            calibrate(fleet, tr, layers)?;
        }
        Ok(Self {
            cache_before: fleet.registry.cache_stats(),
            swaps_before: fleet.swaps.ms.len(),
            fleet,
            traffic,
            rng: Rng::new(seed).fork(0x10AD),
            swapper: Swapper::new(traffic),
            totals: Default::default(),
            cycles: 0,
        })
    }

    /// One cycle measuring `seconds`: the low and high open-loop phases
    /// (40 % each) and the closed loop (20 %), each after a short warm-up.
    pub fn cycle(&mut self, seconds: f64, tr: &Tracer, checks: &mut Checks) -> Result<(), String> {
        let first_warmup = if self.cycles == 0 {
            FIRST_WARMUP_S
        } else {
            WARMUP_S
        };
        let (open, closed) = (0.4 * seconds, 0.2 * seconds);
        let t = self.traffic;
        let (rng, swapper) = (&mut self.rng, &mut self.swapper);
        let low = open_phase(
            self.fleet,
            t,
            t.low_rps,
            (first_warmup, open),
            rng,
            swapper,
            tr,
        )?;
        self.absorb(0, low, open, checks);
        let (rng, swapper) = (&mut self.rng, &mut self.swapper);
        let high = open_phase(
            self.fleet,
            t,
            t.high_rps,
            (WARMUP_S, open),
            rng,
            swapper,
            tr,
        )?;
        self.absorb(1, high, open, checks);
        let (rng, swapper) = (&mut self.rng, &mut self.swapper);
        let closed_rec = closed_phase(self.fleet, t, (WARMUP_S, closed), rng, swapper, tr)?;
        self.absorb(2, closed_rec, closed, checks);
        self.cycles += 1;
        Ok(())
    }

    /// Checks one phase's responses and counters, and adds its samples.
    fn absorb(&mut self, phase: usize, rec: PhaseRecord, window: f64, checks: &mut Checks) {
        let name = PHASES[phase];
        let s = rec.stats;
        checks.check(rec.mismatches == 0, || {
            format!(
                "{name}: {} responses differ from their reference",
                rec.mismatches
            )
        });
        checks.check(
            s.submitted == s.completed + s.cancelled + s.failed + s.deadline_misses + s.shed,
            || format!("{name}: quiescence identity broken: {s:?}"),
        );
        checks.check(s.completed + rec.errors == rec.submitted, || {
            format!(
                "{name}: {} submitted but {} completed",
                rec.submitted, s.completed
            )
        });
        checks.attempted += rec.submitted;
        checks.failed += rec.errors;

        let t = &mut self.totals[phase];
        if name == "closed" {
            let mut counts = [0usize; WINDOWS];
            for &c in &rec.completions {
                counts[((c / window * WINDOWS as f64) as usize).min(WINDOWS - 1)] += 1;
            }
            let span = window / WINDOWS as f64;
            t.rate.extend(counts.iter().map(|&c| c as f64 / span));
            t.samples += rec.completions.len();
        } else {
            for w in windows(&rec.latency, window, WINDOWS) {
                t.p50.push(percentile(&w, 0.5));
                t.p90.push(percentile(&w, 0.9));
            }
            t.samples += rec.latency.len();
            t.achieved_ratio.push(rec.achieved_ratio);
        }
        t.latency.extend(rec.latency.iter().map(|&(_, l)| l));
        t.submit_us.extend(rec.submit_us);
        t.wait_us.extend(rec.wait_us);
        t.late_ms.extend(rec.late_ms);
        t.batches += s.batches;
        t.batched_samples += s.batched_samples;
        t.max_width = t.max_width.max(s.max_batch_seen);
        t.queue_high_water = t.queue_high_water.max(rec.queue_high_water);
        t.submitted += rec.submitted;
        t.errors += rec.errors;
    }

    /// Reports the end-to-end metrics, the run-validity diagnostics and the
    /// per-layer counters.
    pub fn finish(self, e2e: &mut Report, layers: &mut Report) {
        let cache = cache_delta(self.cache_before, self.fleet.registry.cache_stats());
        let [low, high, closed] = &self.totals;
        let (attempted, failed): (u64, u64) = self
            .totals
            .iter()
            .fold((0, 0), |(a, f), t| (a + t.submitted, f + t.errors));
        println!(
            "# serve: error_rate {} ({failed} of {attempted} requests failed or were refused)",
            failed as f64 / attempted as f64
        );
        for (name, t) in [("low", low), ("high", high)] {
            e2e.add(format!("p50_ms.{name}"), median(&t.p50), "ms");
            e2e.add(format!("p90_ms.{name}"), median(&t.p90), "ms");
        }
        e2e.add("throughput_rps", median(&closed.rate), "req/s");

        for (name, t) in PHASES.iter().zip(&self.totals) {
            layers.add(format!("samples.{name}"), t.samples as f64, "count");
            let submit = sorted(t.submit_us.clone());
            let wait = sorted(t.wait_us.clone());
            let rows = [
                ("serve.submit_us.p50", percentile(&submit, 0.5), "us"),
                ("serve.wait_us.p50", percentile(&wait, 0.5), "us"),
                ("serve.wait_us.p90", percentile(&wait, 0.9), "us"),
                ("serve.batches", t.batches as f64, "count"),
                (
                    "serve.batch_width.mean",
                    t.batched_samples as f64 / t.batches as f64,
                    "requests",
                ),
                ("serve.batch_width.max", t.max_width as f64, "requests"),
                (
                    "queue.depth_high_water",
                    t.queue_high_water as f64,
                    "requests",
                ),
            ];
            for (metric, value, unit) in rows {
                layers.add(format!("{metric}.{name}"), value, unit);
            }
        }
        for (name, t) in [("low", low), ("high", high)] {
            let late = sorted(t.late_ms.clone());
            layers.add(
                format!("gen.late_p99_ms.{name}"),
                percentile(&late, 0.99),
                "ms",
            );
            layers.add(
                format!("gen.late_max_ms.{name}"),
                percentile(&late, 1.0),
                "ms",
            );
            let achieved = t
                .achieved_ratio
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            layers.add(format!("gen.achieved_ratio.{name}"), achieved, "ratio");
            if achieved < 0.99 {
                println!(
                    "# warning: a {name} phase reached only {achieved:.3} of its scheduled rate; this run is not valid"
                );
            }
            let lat = sorted(t.latency.clone());
            layers.add(
                format!("latency.p99_ms.{name}"),
                percentile(&lat, 0.99),
                "ms",
            );
        }
        layers.add("cache.hit_rate", cache.hit_rate(), "ratio");
        layers.add("cache.misses", cache.misses as f64, "count");
        layers.add("cache.evictions", cache.evictions as f64, "count");
        layers.add("cache.bypasses", cache.bypasses as f64, "count");
        layers.add("cache.high_water_bytes", cache.high_water as f64, "bytes");
        layers.add("registry.load_ms", median(&self.fleet.load_ms), "ms");
        layers.add("registry.swap_ms.p50", median(&self.fleet.swaps.ms), "ms");
        layers.add(
            "registry.swaps",
            (self.fleet.swaps.ms.len() - self.swaps_before) as f64,
            "count",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_mates_are_the_next_requests_of_the_same_queue() {
        // Submit order: (tenant, epoch) per request id.
        let submitted = [
            (0, (0, 0)),
            (1, (1, 0)),
            (2, (0, 0)),
            (3, (0, 1)), // tenant 0 after a hot-swap: another queue
            (4, (0, 0)),
            (5, (1, 0)),
            (6, (0, 0)),
        ];
        let mut rest = submitted[1..].iter().copied();
        // The collector has received requests 1 and 2 so far; a wait on
        // request 0 grew `batched_samples` from 10 to 13: width 3.
        let mut pending: VecDeque<(u64, (usize, u64))> = rest.by_ref().take(2).collect();
        let (before, after) = (10u64, 13u64);
        let width = (after - before) as usize;
        let mates = take_mates(
            &mut pending,
            |r| r.1,
            submitted[0].1,
            width - 1,
            || rest.next(),
        )
        .expect("enough requests");
        assert_eq!(mates.iter().map(|r| r.0).collect::<Vec<_>>(), vec![2, 4]);
        // Everything passed over stays pending, in submit order.
        assert_eq!(pending.iter().map(|r| r.0).collect::<Vec<_>>(), vec![1, 3]);
        // A width of 1 takes no mates; a width the queue cannot fill (only
        // requests 1 and 5 remain in queue (1, 0)) is reported, not guessed.
        assert_eq!(
            take_mates(&mut pending, |r| r.1, (1, 0), 0, || None),
            Some(vec![])
        );
        assert_eq!(
            take_mates(&mut pending, |r| r.1, (1, 0), 3, || rest.next()),
            None
        );
    }

    #[test]
    fn hot_swaps_follow_serving_time_across_phases() {
        let mut s = Swapper::new(Traffic {
            tenants: 3,
            swap_every_s: Some(1.0),
            ..CHURN
        });
        // Phase 1 (1.5 s): its last request is sent at 0.9 s, so the swap
        // due at 1.0 s has not run when the phase ends.
        assert_eq!(s.next_due(0.9), None);
        s.base += 1.5;
        // Phase 2 runs it at once, then the one due at 2.0 s serving time,
        // 0.5 s into the phase; tenants go round robin.
        assert_eq!(s.next_due(0.0), Some((0.0, 0)));
        assert_eq!(s.next_due(0.0), None);
        assert_eq!(s.next_due(0.7), Some((0.5, 1)));
        assert_eq!(s.next_due(5.0), Some((1.5, 2)));
        assert_eq!(s.next_due(5.0), Some((2.5, 0)));
        // No schedule, no swaps.
        assert_eq!(Swapper::new(WARM).next_due(100.0), None);
    }
}
