//! The compress stage: DeepSZ's own pipeline — assess (Algorithm 1) →
//! optimize (Algorithm 2) → encode, then decode and re-evaluate — on a
//! trained, pruned and retrained surrogate of AlexNet's fc head.

use crate::load::Rng;
use crate::report::{Checks, Report};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use dsz_core::{
    apply_decoded, assess_network, decode_model, encode_to_writer, optimize_for_accuracy,
    verify_container, AccuracyEvaluator, AssessmentConfig, CompressedModel, DataCodec,
    DataCodecKind, DatasetEvaluator, DecodeTiming, EncodeReport, IncrementalEvaluator,
    LayerAssessment, Plan, SeekableContainer,
};
use dsz_datagen::features::{self, FeatureSpec};
use dsz_nn::{accuracy, train, zoo, Arch, Dataset, Network, Scale, SuffixScratch, TrainConfig};
use dsz_prune::{prune_network, retrain};
use dsz_sz::ErrorBound;
use dsz_tensor::parallel::with_workers;
use std::time::Instant;

/// Class overlap of the surrogate features. `alexnet_reduced()` uses 1.05,
/// where two short epochs leave the model near 40 % top-1 and most
/// accuracy differences are a handful of borderline samples; at 0.6 the
/// model reaches about 90 %.
const FEATURE_NOISE: f32 = 0.6;
const TRAIN_SAMPLES: usize = 2000;
const TEST_SAMPLES: usize = 600;
/// The paper's AlexNet fc densities (Table 2).
const DENSITIES: [f64; 3] = [0.09, 0.09, 0.25];
/// ε★, the accuracy loss the optimizer may spend (0.5 %).
const EXPECTED_LOSS: f64 = 0.005;
/// Whole-model decodes after each compress pass; `decode_ms` is the median
/// over all rounds.
const DECODE_REPS_PER_ROUND: usize = 40;
/// Repetitions of each single-layer timing in a traced run.
const LAYER_REPS: usize = 20;

/// Algorithm 1 with its feasible range pinned to the ten bounds 2e-3,
/// 4e-3, …, 2e-2 and the early stop turned off, so every layer tests
/// exactly those ten bounds. With the paper's searched range the work
/// depends on the seed, not on the code: the 0.1 % distortion criterion is
/// one or two of the test samples, and whether it fires at 1e-3 decides
/// between a 4-point and a 20-point walk on that layer (28 points took 22 s
/// on one seed and 4.8 s on another). A pinned range keeps every stage of
/// the pipeline running while the amount of work stays the same per seed.
fn assessment_config() -> AssessmentConfig {
    AssessmentConfig {
        start_eb: 2e-2,
        max_eb: 2e-2,
        distortion_criterion: f64::NEG_INFINITY,
        expected_loss: f64::INFINITY,
        ..AssessmentConfig::default()
    }
}

/// The set-up output: the pruned, retrained network and its test set.
pub struct Model {
    pub net: Network,
    pub test: Dataset,
}

/// Generates the seed's surrogate data, then trains, prunes and retrains.
pub fn setup(seed: u64, tr: &Tracer, parent: Option<SpanId>) -> Model {
    let mut rng = Rng::new(seed);
    let spec = FeatureSpec {
        noise: FEATURE_NOISE,
        ..FeatureSpec::alexnet_reduced()
    };
    let data_seed = rng.next_u64();
    let (train_set, test) = tr.span("data.features", parent, |_| {
        features::train_test(&spec, TRAIN_SAMPLES, TEST_SAMPLES, data_seed)
    });
    let mut net = zoo::build(Arch::AlexNet, Scale::Reduced, rng.next_u64());
    let cfg = TrainConfig {
        epochs: 2,
        lr: 0.05,
        batch: 100,
        ..TrainConfig::default()
    };
    tr.span("nn.train", parent, |_| {
        train(&mut net, &train_set, &cfg, None)
    });
    tr.span("prune.prune_retrain", parent, |_| {
        let (masks, _) = prune_network(&mut net, &DENSITIES);
        let retrain_cfg = TrainConfig {
            epochs: 1,
            lr: cfg.lr / 4.0,
            ..cfg
        };
        retrain(&mut net, &train_set, &retrain_cfg, &masks);
    });
    Model { net, test }
}

/// One assess → optimize → encode pass.
struct Pass {
    secs: f64,
    assess_ms: f64,
    optimize_us: f64,
    encode_ms: f64,
    assessments: Vec<LayerAssessment>,
    baseline: f64,
    plan: Plan,
    container: Vec<u8>,
    report: EncodeReport,
}

fn compress_pass(
    net: &Network,
    eval: &DatasetEvaluator,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<Pass, String> {
    let cfg = assessment_config();
    let start = Instant::now();
    let (assessments, baseline) = tr
        .span("assess", parent, |_| assess_network(net, &cfg, eval))
        .map_err(|e| format!("assess_network: {e}"))?;
    let assessed = Instant::now();
    let plan = tr
        .span("optimize", parent, |_| {
            optimize_for_accuracy(&assessments, EXPECTED_LOSS)
        })
        .map_err(|e| format!("optimize_for_accuracy: {e}"))?;
    let optimized = Instant::now();
    let mut container = Vec::new();
    let report = tr
        .span("encode", parent, |_| {
            encode_to_writer(&assessments, &plan, &mut container)
        })
        .map_err(|e| format!("encode_to_writer: {e}"))?;
    let end = Instant::now();
    Ok(Pass {
        secs: (end - start).as_secs_f64(),
        assess_ms: (assessed - start).as_secs_f64() * 1e3,
        optimize_us: (optimized - assessed).as_secs_f64() * 1e6,
        encode_ms: (end - optimized).as_secs_f64() * 1e3,
        assessments,
        baseline,
        plan,
        container,
        report,
    })
}

/// The compress stage of one run, advanced one round at a time.
pub struct Stage<'m> {
    model: &'m Model,
    eval: DatasetEvaluator,
    passes: Vec<Pass>,
    /// The first pass's container, which every decode repetition reads.
    container: Option<CompressedModel>,
    decode_ms: Vec<f64>,
    timings: Vec<DecodeTiming>,
    decoded: Option<Network>,
}

impl<'m> Stage<'m> {
    pub fn new(model: &'m Model) -> Self {
        Self {
            model,
            eval: DatasetEvaluator::new(model.test.clone()),
            passes: Vec::new(),
            container: None,
            decode_ms: Vec::new(),
            timings: Vec::new(),
            decoded: None,
        }
    }

    /// One compress pass, then decodes of the whole container into a copy
    /// of the network.
    pub fn round(&mut self, tr: &Tracer, checks: &mut Checks) -> Result<(), String> {
        let pass = tr.span("compress.pass", None, |sp| {
            compress_pass(&self.model.net, &self.eval, tr, sp)
        })?;
        checks.attempted += 1;
        if let Some(first) = self.passes.first() {
            checks.check(
                pass.container == first.container && pass.report.ratio() == first.report.ratio(),
                || "compress passes produced different containers".into(),
            );
        }
        let container = self.container.get_or_insert_with(|| CompressedModel {
            bytes: pass.container.clone(),
        });
        self.passes.push(pass);
        for _ in 0..DECODE_REPS_PER_ROUND {
            let mut target = self.model.net.clone();
            let start = Instant::now();
            let (decoded, timing) = tr
                .span("decode.model", None, |_| decode_model(container))
                .map_err(|e| format!("decode_model: {e}"))?;
            tr.span("decode.apply", None, |_| {
                apply_decoded(&mut target, decoded)
            })
            .map_err(|e| format!("apply_decoded: {e}"))?;
            self.decode_ms.push(start.elapsed().as_secs_f64() * 1e3);
            self.timings.push(timing);
            checks.attempted += 1;
            self.decoded = Some(target);
        }
        Ok(())
    }

    /// Checks the outputs and reports; in a traced run also replays each
    /// layer's work and times single calls.
    pub fn finish(
        self,
        tr: &Tracer,
        e2e: &mut Report,
        layers: &mut Report,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let (Some(first), Some(container), Some(decoded)) =
            (self.passes.first(), &self.container, &self.decoded)
        else {
            return Err("the compress stage ran no round with a decode".into());
        };
        let model = self.model;
        let passes = &self.passes;
        let of_passes = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        e2e.add("compress_s", of_passes(|p| p.secs), "s");
        e2e.add("decode_ms", median(&self.decode_ms), "ms");
        check_decoded(model, first, container, decoded, checks);
        let after = tr.span("eval.accuracy", None, |_| {
            accuracy(decoded, &model.test, self.eval.batch, 1).0
        });
        e2e.add("compression_ratio", first.report.ratio(), "x");
        e2e.add("accuracy_kept_pct", 100.0 * after / first.baseline, "%");
        println!(
            "# compress: top-1 {:.4} -> {:.4} (loss {:.3} %, predicted {:.3} %), bounds {:?}",
            first.baseline,
            after,
            (first.baseline - after) * 100.0,
            first.plan.predicted_loss * 100.0,
            first.plan.layers.iter().map(|l| l.eb).collect::<Vec<_>>()
        );
        if !tr.enabled() {
            return Ok(());
        }

        layers.add(
            "nn.train_s",
            median(&tr.durations_ms("nn.train")) / 1e3,
            "s",
        );
        layers.add(
            "prune.prune_retrain_s",
            median(&tr.durations_ms("prune.prune_retrain")) / 1e3,
            "s",
        );
        layers.add("eval.accuracy_ms", tr.total_ms("eval.accuracy"), "ms");
        layers.add("assess.wall_ms", of_passes(|p| p.assess_ms), "ms");
        let points: usize = first.assessments.iter().map(|a| a.points.len()).sum();
        layers.add("assess.points", points as f64, "count");
        // Inside the assessment every point runs on one worker, so the
        // replay runs on one thread and is compared with one serial
        // assessment: wall time on both cores says nothing about how much
        // work two threads sharing a core did.
        let cfg = assessment_config();
        let start = Instant::now();
        let serial = tr.span("assess.serial", None, |_| {
            with_workers(1, || assess_network(&model.net, &cfg, &self.eval))
        });
        let serial_ms = start.elapsed().as_secs_f64() * 1e3;
        let (serial, _) = serial.map_err(|e| format!("serial assess_network: {e}"))?;
        checks.check(
            serial.len() == first.assessments.len()
                && serial
                    .iter()
                    .zip(&first.assessments)
                    .all(|(a, b)| a.points == b.points),
            || "the serial assessment differs from the parallel one".into(),
        );
        layers.add("assess.serial_ms", serial_ms, "ms");
        let replay_ms = tr.span("assess.replay", None, |sp| {
            with_workers(1, || {
                replay_assessment(model, &self.eval, first, tr, sp, layers, checks)
            })
        })?;
        layers.add("assess.replay_coverage", replay_ms / serial_ms, "ratio");

        layers.add("optimize.us", of_passes(|p| p.optimize_us), "us");
        let predicted_pct = first.plan.predicted_loss * 100.0;
        layers.add("optimize.predicted_loss_pct", predicted_pct, "%");
        layers.add(
            "optimize.prediction_error_pct",
            (first.baseline - after) * 100.0 - predicted_pct,
            "%",
        );

        layers.add("encode.wall_ms", of_passes(|p| p.encode_ms), "ms");
        replay_encode(first, tr, layers, checks)?;
        layers.add(
            "encode.peak_buffered_bytes",
            first.report.peak_buffered_bytes as f64,
            "bytes",
        );

        let stage =
            |f: fn(&DecodeTiming) -> f64| median(&self.timings.iter().map(f).collect::<Vec<_>>());
        layers.add("decode.lossless_ms", stage(|t| t.lossless_ms), "ms");
        layers.add("decode.lossy_ms", stage(|t| t.lossy_ms), "ms");
        layers.add("decode.reconstruct_ms", stage(|t| t.reconstruct_ms), "ms");
        let seek = SeekableContainer::open_slice(&container.bytes)
            .map_err(|e| format!("SeekableContainer::open_slice: {e}"))?;
        for (i, l) in first.report.layers.iter().enumerate() {
            let name = format!("decode.layer.{}", l.name);
            for _ in 0..LAYER_REPS {
                tr.span(name.clone(), None, |_| seek.layer(i))
                    .map_err(|e| format!("SeekableContainer::layer({i}): {e}"))?;
            }
            layers.add(
                format!("decode.layer_ms.{}", l.name),
                median(&tr.durations_ms(&name)),
                "ms",
            );
        }
        for _ in 0..LAYER_REPS {
            tr.span("decode.verify", None, |_| verify_container(container))
                .map_err(|e| format!("verify_container: {e}"))?;
        }
        layers.add(
            "decode.verify_ms",
            median(&tr.durations_ms("decode.verify")),
            "ms",
        );
        Ok(())
    }
}

/// The container verifies; every decoded weight lies within its layer's
/// bound of the original; pruned zeros decode to exactly zero.
fn check_decoded(
    model: &Model,
    pass: &Pass,
    container: &CompressedModel,
    decoded: &Network,
    checks: &mut Checks,
) {
    let verified = verify_container(container);
    checks.check(
        verified
            .as_ref()
            .is_ok_and(|&n| n == pass.plan.layers.len()),
        || format!("verify_container: {verified:?}"),
    );
    let mut worst = 0f64;
    for chosen in &pass.plan.layers {
        let idx = chosen.fc.layer_index;
        let original = &model.net.dense(idx).w.data;
        let restored = &decoded.dense(idx).w.data;
        let mut zeros_kept = true;
        for (&w, &r) in original.iter().zip(restored) {
            if w == 0.0 {
                zeros_kept &= r == 0.0;
            } else {
                worst = worst.max((w as f64 - r as f64).abs() / chosen.eb);
            }
        }
        checks.check(zeros_kept, || {
            format!("{}: a pruned weight decoded to nonzero", chosen.fc.name)
        });
    }
    checks.check(worst <= 1.0, || {
        format!("decoded weights exceed their error bound: worst err/eb {worst}")
    });
    println!("# compress: worst |w - w'| / eb = {worst:.6}");
}

/// Replays Algorithm 1 over the points the assessment returned, through
/// the same public calls its incremental engine makes: one prefix sweep,
/// then per point every candidate codec's encode, the winner's decode, the
/// sparse reconstruction and the suffix evaluation. Each replayed point
/// must reproduce the assessment's size, codec and degradation exactly.
/// Returns the replay's total time (ms).
fn replay_assessment(
    model: &Model,
    eval: &DatasetEvaluator,
    pass: &Pass,
    tr: &Tracer,
    parent: Option<SpanId>,
    layers: &mut Report,
    checks: &mut Checks,
) -> Result<f64, String> {
    let (data, batch) = eval
        .dataset()
        .expect("a dataset evaluator exposes its data");
    let ie = tr.span("assess.prefix", parent, |_| {
        IncrementalEvaluator::new(&model.net, data, batch)
    });
    checks.check(ie.baseline() == pass.baseline, || {
        "replayed baseline differs from the assessment's".into()
    });
    let sz = dsz_sz::SzConfig::default();
    let codecs: Vec<Box<dyn DataCodec>> =
        DataCodecKind::ALL.iter().map(|k| k.instance(&sz)).collect();
    let (mut points, mut encodes, mut zfp_wins) = (0usize, 0usize, 0usize);
    for a in &pass.assessments {
        let mut candidate = model.net.dense(a.fc.layer_index).clone();
        let mut decoded = Vec::new();
        let mut scratch = SuffixScratch::default();
        for p in &a.points {
            tr.span("assess.point", parent, |sp| -> Result<(), String> {
                let mut blobs = Vec::with_capacity(codecs.len());
                for c in &codecs {
                    let name = format!("assess.encode.{}", c.kind().name());
                    let blob = tr
                        .span(name, sp, |_| c.encode(&a.pair.data, ErrorBound::Abs(p.eb)))
                        .map_err(|e| format!("{} encode: {e}", c.kind().name()))?;
                    blobs.push(blob);
                }
                points += 1;
                encodes += blobs.len();
                // The competition rule: smallest stream wins, ties keep the first.
                let winner = (0..blobs.len())
                    .min_by_key(|&i| (blobs[i].len(), i))
                    .expect("at least one candidate");
                zfp_wins += usize::from(codecs[winner].kind() == DataCodecKind::Zfp);
                tr.span("assess.decode", sp, |_| {
                    codecs[winner].decode_into(&blobs[winner], &mut decoded)
                })
                .map_err(|e| format!("decode_into: {e}"))?;
                tr.span("assess.reconstruct", sp, |_| {
                    a.pair.to_dense_with(&decoded, &mut candidate.w.data)
                })
                .map_err(|e| format!("to_dense_with: {e}"))?;
                let acc = tr.span("assess.suffix_eval", sp, |_| {
                    ie.evaluate_candidate(a.fc.layer_index, &candidate, &mut scratch)
                });
                checks.check(
                    codecs[winner].kind() == p.codec
                        && blobs[winner].len() == p.data_bytes
                        && ie.baseline() - acc == p.degradation,
                    || {
                        format!(
                            "{} eb {}: replay differs from the assessment",
                            a.fc.name, p.eb
                        )
                    },
                );
                Ok(())
            })?;
        }
    }
    layers.add("assess.prefix_ms", tr.total_ms("assess.prefix"), "ms");
    layers.add(
        "assess.suffix_eval_ms",
        tr.total_ms("assess.suffix_eval"),
        "ms",
    );
    layers.add(
        "assess.codec_encode_ms.sz",
        tr.total_ms("assess.encode.sz"),
        "ms",
    );
    layers.add(
        "assess.codec_encode_ms.zfp",
        tr.total_ms("assess.encode.zfp"),
        "ms",
    );
    layers.add("assess.codec_wins.zfp", zfp_wins as f64, "count");
    layers.add(
        "assess.compete_useful_ratio",
        points as f64 / encodes as f64,
        "ratio",
    );
    layers.add("assess.decode_ms", tr.total_ms("assess.decode"), "ms");
    layers.add(
        "assess.reconstruct_ms",
        tr.total_ms("assess.reconstruct"),
        "ms",
    );
    Ok(tr.total_ms("assess.prefix") + tr.total_ms("assess.point"))
}

/// Replays the encode of each chosen layer: its data stream with the
/// chosen codec and bound, and the best-fit lossless coding of its index.
/// Both must reproduce the container's stream sizes.
fn replay_encode(
    pass: &Pass,
    tr: &Tracer,
    layers: &mut Report,
    checks: &mut Checks,
) -> Result<(), String> {
    let sz = dsz_sz::SzConfig::default();
    for ((a, chosen), encoded) in pass
        .assessments
        .iter()
        .zip(&pass.plan.layers)
        .zip(&pass.report.layers)
    {
        let codec = chosen.codec.instance(&sz);
        let name = format!("encode.data.{}", encoded.name);
        let mut data_bytes = 0;
        for _ in 0..LAYER_REPS {
            data_bytes = tr
                .span(name.clone(), None, |_| {
                    codec.encode(&a.pair.data, ErrorBound::Abs(chosen.eb))
                })
                .map_err(|e| format!("{name}: {e}"))?
                .len();
        }
        let index_name = format!("encode.best_fit.{}", encoded.name);
        let mut index_bytes = 0;
        for _ in 0..LAYER_REPS {
            index_bytes = tr
                .span(index_name.clone(), None, |_| {
                    dsz_lossless::best_fit(&a.pair.index)
                })
                .1
                .len();
        }
        checks.check(
            data_bytes == encoded.data_bytes && index_bytes == encoded.index_bytes,
            || format!("{}: replayed encode sizes differ", encoded.name),
        );
        layers.add(
            format!("encode.data_ms.{}", encoded.name),
            median(&tr.durations_ms(&name)),
            "ms",
        );
        layers.add(
            format!("encode.best_fit_ms.{}", encoded.name),
            median(&tr.durations_ms(&index_name)),
            "ms",
        );
        layers.add(
            format!("encode.bytes.{}", encoded.name),
            (encoded.data_bytes + encoded.index_bytes) as f64,
            "bytes",
        );
    }
    Ok(())
}
