//! The paper's two reference architectures (§6.2).

use rand::Rng;

use crate::layers::{BatchNorm2d, Conv2d, Dense, Layer, MaxPool2d};
use crate::model::Sequential;

/// Number of classes in the (synthetic) MNIST task.
pub const MNIST_CLASSES: usize = 10;
/// Number of binary features in the (synthetic) Purchase-100 task.
pub const PURCHASE_FEATURES: usize = 600;
/// Number of classes in the (synthetic) Purchase-100 task.
pub const PURCHASE_CLASSES: usize = 100;

/// The MNIST reference CNN: two 3×3 convolution blocks, each with batch
/// normalisation and 2×2 max pooling, followed by a 10-way softmax readout —
/// the architecture described in the paper's §6.2.
///
/// Input: `[1, 28, 28]`. Spatial trace (valid convolutions):
/// 28 → conv3 → 26 → pool2 → 13 → conv3 → 11 → pool2 → 5; the readout sees
/// 16·5·5 = 400 features.
pub fn mnist_cnn<R: Rng + ?Sized>(rng: &mut R) -> Sequential {
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(rng, 1, 8, 3)),
        Layer::BatchNorm2d(BatchNorm2d::new(8)),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d { pool: 2 }),
        Layer::Conv2d(Conv2d::new(rng, 8, 16, 3)),
        Layer::BatchNorm2d(BatchNorm2d::new(16)),
        Layer::Relu,
        Layer::MaxPool2d(MaxPool2d { pool: 2 }),
        Layer::Flatten,
        Layer::Dense(Dense::new(rng, 16 * 5 * 5, MNIST_CLASSES)),
    ])
}

/// The Purchase-100 reference MLP: 600 → 128 (ReLU) → 100 (softmax in the
/// loss), as described in the paper's §6.2.
pub fn purchase_mlp<R: Rng + ?Sized>(rng: &mut R) -> Sequential {
    Sequential::new(vec![
        Layer::Dense(Dense::new(rng, PURCHASE_FEATURES, 128)),
        Layer::Relu,
        Layer::Dense(Dense::new(rng, 128, PURCHASE_CLASSES)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::seeded_rng;
    use dpaudit_tensor::{Backend, Tensor};

    #[test]
    fn mnist_cnn_shapes() {
        let m = mnist_cnn(&mut seeded_rng(1));
        let x = Tensor::zeros(&[1, 28, 28]);
        let logits = m.forward(&x);
        assert_eq!(logits.shape(), &[MNIST_CLASSES]);
        // conv1: 8·1·9+8 = 80; bn1: 16; conv2: 16·8·9+16 = 1168; bn2: 32;
        // dense: 400·10+10 = 4010 → total 5306.
        assert_eq!(m.param_count(), 5306);
    }

    #[test]
    fn purchase_mlp_shapes() {
        let m = purchase_mlp(&mut seeded_rng(2));
        let x = Tensor::zeros(&[PURCHASE_FEATURES]);
        let logits = m.forward(&x);
        assert_eq!(logits.shape(), &[PURCHASE_CLASSES]);
        // 600·128+128 + 128·100+100 = 76928 + 12900 = 89828.
        assert_eq!(m.param_count(), 89_828);
    }

    #[test]
    fn per_example_grad_dimensions_match() {
        let m = mnist_cnn(&mut seeded_rng(3));
        let x = Tensor::full(&[1, 28, 28], 0.3);
        let (loss, g) = m.per_example_grad_on(Backend::native(), &x, 7);
        assert!(loss.is_finite());
        assert_eq!(g.len(), m.param_count());
        assert!(dpaudit_math::l2_norm(&g) > 0.0);
    }
}
