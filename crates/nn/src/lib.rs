#![warn(missing_docs)]
//! From-scratch neural networks with per-example gradients.
//!
//! DPSGD (Abadi et al., CCS 2016) — the mechanism audited throughout the
//! paper — needs the gradient of the loss *per training example* so it can be
//! clipped to the norm `C` before aggregation and perturbation. This crate
//! implements the two reference architectures of the paper's §6.2 (a 2-conv
//! CNN for 28×28 images and a 600→128→100 MLP for purchase baskets) plus the
//! layers they are made of, with exact backpropagation returning gradients as
//! flat `Vec<f64>` aligned with a deterministic parameter layout.
//!
//! Batch normalisation is implemented with *frozen statistics*: running
//! statistics are refreshed from each clean batch (see
//! [`Sequential::update_norm_stats`]) and the backward pass treats them as
//! constants, which keeps per-example gradients well defined — the standard
//! workaround in DP deep-learning stacks.
//!
//! Batch-first: per-example gradients, the norm-stats refresh and
//! inference ([`Sequential::accuracy`], [`Sequential::mean_loss`]) run on
//! the batched layers ([`Layer::forward_batch_on`]), which reproduce the
//! example-at-a-time arithmetic bit for bit. The model is generic over its
//! parameter precision ([`dpaudit_tensor::Elem`], `f64` by default): the
//! f32 storage mode is the same [`Sequential`] with its parameters narrowed
//! once ([`Sequential::cast`]), running the same batched layers. One
//! private forward, f64 loss head and delta pass serves both consumers of
//! per-example gradients, at both precisions: the `[B, P]` collector
//! ([`Sequential::per_example_grads_on`]), which writes every example's
//! flat gradient row, and the fused clip-and-sum pass of the DPSGD clip
//! loop ([`Sequential::clip_sum_on`], module [`clip_sum`]), which computes
//! every example's norm and adds its clipped gradient into a sum without
//! writing any row, with the same bits. The refresh works over fixed-size
//! chunks of stacked examples, skips models without batch norm and stops
//! at the last batch-norm layer. The f64 scalar path ([`Layer::forward`],
//! [`Sequential::per_example_grad_scalar`]) is kept as the property-test
//! oracle.

pub(crate) mod batched;
pub mod clip_sum;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod zoo;

pub use clip_sum::RowClip;
pub use init::glorot_uniform;
pub use layers::{BatchCache, BatchNorm2d, Cache, Conv2d, Dense, Layer, MaxPool2d};
pub use loss::{cross_entropy_loss, softmax, softmax_cross_entropy};
pub use model::Sequential;
pub use zoo::{mnist_cnn, purchase_mlp, MNIST_CLASSES, PURCHASE_CLASSES, PURCHASE_FEATURES};
