//! Synthetic workload generators.
//!
//! The paper trains/tests on MNIST and ImageNet with pre-trained Caffe
//! models; neither is available offline, so this crate builds the closest
//! synthetic equivalents. The substitutions, one module each:
//!
//! * [`digits`] — a procedural 28×28 digit renderer: LeNets train on it from
//!   scratch to the high-90s accuracy regime the paper reports on MNIST.
//! * [`features`] — class-conditional ReLU feature vectors standing in for
//!   the conv-stack output that feeds `fc6` in AlexNet/VGG-16, with a noise
//!   knob that controls the achievable (Bayes) accuracy so base accuracy can
//!   be calibrated to the paper's 57–68% regime.
//! * [`weights`] — full-size synthesized "trained" fc-layer weights with a
//!   Laplace-like magnitude distribution in the paper's typical ±0.3 range,
//!   for the storage/ratio experiments that never run inference.
//! * [`corrupt`] — seeded, replayable byte-level fault injection for the
//!   untrusted-container robustness harness (`docs/ROBUSTNESS.md`).

pub mod corrupt;
pub mod digits;
pub mod features;
pub mod weights;

pub use dsz_nn::Dataset;
