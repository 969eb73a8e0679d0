//! Property-based gradient checking: backpropagation through randomly
//! parameterised networks must match central finite differences at random
//! coordinates, and per-example gradients must be exact for every layer
//! combination used by the reference architectures.

use dpaudit_math::seeded_rng;
use dpaudit_nn::{softmax_cross_entropy, BatchNorm2d, Conv2d, Dense, Layer, MaxPool2d, Sequential};
use dpaudit_tensor::{Backend, Tensor};
use proptest::prelude::*;
use rand::Rng;

fn fd_check(model: &Sequential, x: &Tensor, label: usize, coords: &[usize], tol: f64) {
    let (_, grad) = model.per_example_grad_on(Backend::native(), x, label);
    let base = model.params();
    let loss_at = |params: &[f64]| {
        let mut m = model.clone();
        m.set_params(params);
        softmax_cross_entropy(m.forward(x).data(), label).0
    };
    let h = 1e-5;
    for &idx in coords {
        let idx = idx % base.len();
        let mut up = base.clone();
        up[idx] += h;
        let mut down = base.clone();
        down[idx] -= h;
        let numeric = (loss_at(&up) - loss_at(&down)) / (2.0 * h);
        assert!(
            (numeric - grad[idx]).abs() < tol,
            "coord {idx}: fd {numeric} vs bp {}",
            grad[idx]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random MLPs: exact gradients at random coordinates.
    #[test]
    fn mlp_gradcheck(
        seed in 0u64..1000,
        hidden in 2usize..10,
        label in 0usize..3,
        coords in proptest::collection::vec(0usize..10_000, 6),
    ) {
        let mut rng = seeded_rng(seed);
        let model = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 5, hidden)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, hidden, 3)),
        ]);
        let x = Tensor::from_vec(
            &[5],
            (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        fd_check(&model, &x, label, &coords, 1e-4);
    }

    /// Random small CNNs with batch norm and pooling: exact gradients.
    #[test]
    fn cnn_gradcheck(
        seed in 0u64..1000,
        channels in 1usize..4,
        label in 0usize..2,
        coords in proptest::collection::vec(0usize..10_000, 5),
    ) {
        let mut rng = seeded_rng(seed);
        let mut model = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(&mut rng, 1, channels, 3)),
            Layer::BatchNorm2d(BatchNorm2d::new(channels)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { pool: 2 }),
            Layer::Flatten,
            Layer::Dense(Dense::new(&mut rng, channels * 3 * 3, 2)),
        ]);
        let x = Tensor::from_vec(
            &[1, 8, 8],
            (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        // Non-trivial running statistics, then frozen for the check.
        let x2 = Tensor::from_vec(
            &[1, 8, 8],
            (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        model.update_norm_stats(&[x.clone(), x2]);
        fd_check(&model, &x, label, &coords, 1e-4);
    }

    /// Loss gradients w.r.t. logits sum to zero and softmax stays a
    /// distribution under any logits.
    #[test]
    fn softmax_ce_invariants(logits in proptest::collection::vec(-30.0..30.0f64, 2..12)) {
        let label = logits.len() - 1;
        let (loss, d) = softmax_cross_entropy(&logits, label);
        prop_assert!(loss >= -1e-12);
        prop_assert!(d.iter().sum::<f64>().abs() < 1e-9);
        // Gradient at the label coordinate lies in [−1, 0]; others in [0, 1].
        for (i, &g) in d.iter().enumerate() {
            if i == label {
                prop_assert!((-1.0..=0.0).contains(&g));
            } else {
                prop_assert!((0.0..=1.0).contains(&g));
            }
        }
    }

    /// Parameter round trips survive arbitrary perturbations.
    #[test]
    fn param_vector_round_trip(
        seed in 0u64..1000,
        scale in -2.0..2.0f64,
    ) {
        let mut rng = seeded_rng(seed);
        let mut model = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 4, 6)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 6, 2)),
        ]);
        let p: Vec<f64> = model.params().iter().map(|v| v * scale + 0.1).collect();
        model.set_params(&p);
        prop_assert_eq!(model.params(), p);
    }
}
