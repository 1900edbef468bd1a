//! Integration tests for memory-bounded streaming inference over a
//! compressed model (the paper's §7 future-work direction).

use deepsz::framework::streaming::{streaming_matches_eager, CompressedFcModel, ForwardHook};
use deepsz::framework::{DeepSzError, SharedLayerCache};
use deepsz::prelude::*;
use deepsz::tensor::parallel::with_workers;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn compressed_lenet() -> (Network, deepsz::framework::CompressedModel, Dataset) {
    let train_data = digits::dataset(1000, 71);
    let test_data = digits::dataset(300, 72);
    let mut net = zoo::build(Arch::LeNet300, Scale::Full, 23);
    nn::train(
        &mut net,
        &train_data,
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
        None,
    );
    let (masks, _) = prune::prune_network(&mut net, Arch::LeNet300.pruning_densities());
    prune::retrain(
        &mut net,
        &train_data,
        &TrainConfig {
            epochs: 1,
            lr: 0.02,
            ..Default::default()
        },
        &masks,
    );
    let eval = DatasetEvaluator::new(test_data.clone());
    let cfg = AssessmentConfig {
        expected_loss: 0.01,
        ..Default::default()
    };
    let (assessments, _) = assess_network(&net, &cfg, &eval).unwrap();
    let plan = optimize_for_accuracy(&assessments, cfg.expected_loss).unwrap();
    let (model, _) = encode_with_plan(&assessments, &plan).unwrap();
    (net, model, test_data)
}

#[test]
fn streaming_forward_matches_eager_decode() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 32);
    assert!(streaming_matches_eager(&net, &model, &probe).unwrap());
}

#[test]
fn peak_memory_is_bounded_by_largest_layer() {
    let (net, model, test) = compressed_lenet();
    // Prefetch off: the strict memory bound of one resident layer.
    let streaming = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch(false);
    let probe = test.batch(0, 16);
    let (_, stats) = streaming.forward(&probe).unwrap();
    // Peak = largest single fc layer (ip1: 300×784), not the sum.
    let largest = net
        .fc_layers()
        .iter()
        .map(|f| f.dense_bytes())
        .max()
        .unwrap();
    let total: usize = net.fc_layers().iter().map(|f| f.dense_bytes()).sum();
    assert_eq!(stats.peak_dense_bytes, largest);
    assert_eq!(stats.total_dense_bytes, total);
    assert!(stats.peak_dense_bytes < total);
    // And the persistent copy is the compressed container (≫ smaller).
    assert!(stats.compressed_bytes * 10 < total);
}

#[test]
fn prefetch_holds_at_most_two_layers_and_matches_serial() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 16);
    let streaming = CompressedFcModel::new(&net, &model).unwrap();
    // Pin a multi-thread budget so the overlapped path runs even on
    // single-core hosts (budget < 2 falls back to the serial path).
    let (out_pre, stats_pre) =
        deepsz::tensor::parallel::with_workers(4, || streaming.forward(&probe)).unwrap();
    let serial = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch(false);
    let (out_ser, stats_ser) = serial.forward(&probe).unwrap();
    // Overlapped decode must not change the numerics.
    assert_eq!(out_pre, out_ser);
    assert_eq!(stats_pre.total_dense_bytes, stats_ser.total_dense_bytes);
    // Prefetch keeps the executing layer plus one in-flight decode.
    let dense: Vec<usize> = net.fc_layers().iter().map(|f| f.dense_bytes()).collect();
    let max_pair = dense
        .windows(2)
        .map(|w| w[0] + w[1])
        .max()
        .unwrap_or(dense[0]);
    assert!(stats_pre.peak_dense_bytes <= max_pair);
    assert!(stats_pre.peak_dense_bytes >= stats_ser.peak_dense_bytes);
    let total: usize = dense.iter().sum();
    assert!(stats_pre.peak_dense_bytes < total);
}

#[test]
fn prefetch_depths_zero_one_two_are_equivalent() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 16);
    let serial = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(0);
    let (out0, stats0) = serial.forward(&probe).unwrap();
    for depth in [1usize, 2, 3] {
        let m = CompressedFcModel::new(&net, &model)
            .unwrap()
            .with_prefetch_depth(depth);
        // Pin a multi-thread budget so the overlapped path runs even on
        // single-core hosts.
        let (out, stats) = deepsz::tensor::parallel::with_workers(4, || m.forward(&probe)).unwrap();
        assert_eq!(out, out0, "depth {depth} must not change the numerics");
        assert_eq!(stats.total_dense_bytes, stats0.total_dense_bytes);
        // Deeper pipelines may hold more dense bytes, never fewer layers'
        // worth than the serial bound.
        assert!(stats.peak_dense_bytes >= stats0.peak_dense_bytes);
    }
}

#[test]
fn deep_prefetch_pins_high_water_mark_to_decoded_bytes_budget() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 16);
    let dense: Vec<usize> = net.fc_layers().iter().map(|f| f.dense_bytes()).collect();
    assert_eq!(dense.len(), 3, "LeNet-300 fc stack");
    let total: usize = dense.iter().sum();

    // Depth 2 with no bytes budget: while the first (largest) layer
    // executes, both remaining layers are in flight — the whole stack is
    // the high-water mark.
    let unbounded = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(2);
    let (out_u, stats_u) =
        deepsz::tensor::parallel::with_workers(4, || unbounded.forward(&probe)).unwrap();
    assert_eq!(stats_u.peak_dense_bytes, total);

    // An explicit budget of the two largest layers blocks the third
    // prefetch exactly: the high-water mark lands on the budget.
    let budget = dense[0] + dense[1];
    assert!(budget < total);
    let bounded = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(2)
        .with_decoded_bytes_budget(Some(budget));
    let (out_b, stats_b) =
        deepsz::tensor::parallel::with_workers(4, || bounded.forward(&probe)).unwrap();
    assert_eq!(stats_b.peak_dense_bytes, budget);
    assert_eq!(out_b, out_u, "bytes budget must not change the numerics");

    // A budget smaller than any single layer suppresses prefetch entirely,
    // restoring the serial max(layer) bound (execution is never blocked).
    let strict = CompressedFcModel::new(&net, &model)
        .unwrap()
        .with_prefetch_depth(2)
        .with_decoded_bytes_budget(Some(1));
    let (out_s, stats_s) =
        deepsz::tensor::parallel::with_workers(4, || strict.forward(&probe)).unwrap();
    assert_eq!(stats_s.peak_dense_bytes, *dense.iter().max().unwrap());
    assert_eq!(out_s, out_u);
}

#[test]
fn materialize_round_trips_to_a_working_network() {
    let (net, model, test) = compressed_lenet();
    let (baseline, _) = nn::accuracy(&net, &test, 100, 5);
    let streaming = CompressedFcModel::new(&net, &model).unwrap();
    let full = streaming.materialize().unwrap();
    let (top1, _) = nn::accuracy(&full, &test, 100, 5);
    // Must stay near the (possibly modestly trained) baseline: the loss
    // budget was 1% plus small-test-set noise.
    assert!(
        top1 >= baseline - 0.03,
        "materialized accuracy {top1} vs baseline {baseline}"
    );
}

#[test]
fn mismatched_skeleton_rejected() {
    let (_, model, _) = compressed_lenet();
    let other = zoo::build(Arch::LeNet5, Scale::Full, 9);
    assert!(CompressedFcModel::new(&other, &model).is_err());
}

/// Records the layer indices a forward pass probes, in order.
#[derive(Debug, Default)]
struct HookLog(Mutex<Vec<usize>>);

impl ForwardHook for HookLog {
    fn before_layer(&self, layer_index: usize) -> Result<(), DeepSzError> {
        self.0.lock().unwrap().push(layer_index);
        Ok(())
    }
}

fn bits(b: &deepsz::nn::Batch) -> Vec<u32> {
    b.data.iter().map(|v| v.to_bits()).collect()
}

/// Every weight source runs the same per-layer prologue: the abort probe
/// before each layer, then the hook once per fc layer in execution order.
/// And every source reproduces the uncached serial output bit for bit,
/// both on a cold pass and on one served from what the first pass parked.
#[test]
fn every_weight_source_probes_abort_and_hook_in_layer_order() {
    let (net, model, test) = compressed_lenet();
    let probe = test.batch(0, 16);
    let fc: Vec<usize> = net.fc_layers().iter().map(|f| f.layer_index).collect();
    let base = CompressedFcModel::new(&net, &model).unwrap();
    let (want, _) = base.clone().with_prefetch(false).forward(&probe).unwrap();
    let spill_dir = std::env::temp_dir().join(format!("dsz-stream-sources-{}", std::process::id()));
    let sources = [
        ("inline", base.clone().with_prefetch(false)),
        ("prefetch depth 2", base.clone().with_prefetch_depth(2)),
        (
            "spill quota 0",
            base.clone().with_spill_dir(&spill_dir, 0).unwrap(),
        ),
        (
            "shared quota 0",
            base.clone()
                .with_shared_cache(SharedLayerCache::new(0).handle()),
        ),
        (
            "shared ample quota",
            base.clone()
                .with_shared_cache(SharedLayerCache::new(1 << 30).handle()),
        ),
    ];
    for (name, source) in &sources {
        for pass in 0..2 {
            let log = Arc::new(HookLog::default());
            let hook: Arc<dyn ForwardHook> = log.clone();
            let m = source.clone().with_forward_hook(Some(hook));
            let (out, _) = with_workers(4, || m.forward(&probe)).unwrap();
            assert_eq!(bits(&out), bits(&want), "{name} pass {pass}: output bits");
            assert_eq!(*log.0.lock().unwrap(), fc, "{name} pass {pass}: hook");
        }
        for (k, &stop) in fc.iter().enumerate() {
            let log = Arc::new(HookLog::default());
            let hook: Arc<dyn ForwardHook> = log.clone();
            let m = source.clone().with_forward_hook(Some(hook));
            // The probe runs once per skeleton layer, so its call count is
            // the index of the layer about to execute.
            let calls = AtomicUsize::new(0);
            let abort = || calls.fetch_add(1, Ordering::Relaxed) == stop;
            let err = with_workers(4, || m.forward_cancellable(&probe, &abort)).unwrap_err();
            assert!(
                matches!(err, DeepSzError::Cancelled),
                "{name}: abort before layer {stop} gave {err}"
            );
            assert_eq!(
                *log.0.lock().unwrap(),
                fc[..k],
                "{name}: hook calls before the abort at layer {stop}"
            );
        }
    }
    std::fs::remove_dir_all(&spill_dir).ok();
}
