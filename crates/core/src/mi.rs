//! The membership-inference adversary A_MI (Yeom et al., CSF 2018).
//!
//! Used to demonstrate Proposition 1 empirically: the DI adversary, which
//! holds both neighbouring datasets and observes every gradient, achieves a
//! higher advantage than the MI adversary, which only sees the final model
//! and a single challenge point. The attack implemented here is Yeom's
//! loss-threshold attack: guess "member" when the model's loss on the
//! challenge point falls below a threshold (canonically the expected
//! training loss).

use dpaudit_datasets::Dataset;
use dpaudit_nn::{softmax_cross_entropy, Sequential};
use dpaudit_tensor::{Backend, Tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::scores::advantage_from_success_rate;

/// The loss-threshold MI adversary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MiAdversary {
    /// Guess "member" when the challenge loss is strictly below this.
    pub threshold: f64,
}

impl MiAdversary {
    /// Threshold at the model's mean loss over a reference sample from the
    /// data distribution — the information Exp^MI grants the adversary
    /// (knowledge of `Dist` and the trained model).
    pub fn calibrated(model: &Sequential, reference: &Dataset) -> Self {
        assert!(!reference.is_empty(), "MiAdversary: empty reference sample");
        Self {
            threshold: model.mean_loss(&reference.xs, &reference.ys),
        }
    }

    /// The loss of the model on one labelled point, from a B = 1 batched
    /// forward pass (bit-identical to the example-at-a-time one).
    pub fn loss(model: &Sequential, x: &Tensor, label: usize) -> f64 {
        let logits =
            model.forward_batch_on(Backend::native(), &Tensor::stack(std::slice::from_ref(x)));
        softmax_cross_entropy(logits.data(), label).0
    }

    /// The membership guess for one challenge point.
    pub fn guess_member(&self, model: &Sequential, x: &Tensor, label: usize) -> bool {
        Self::loss(model, x, label) < self.threshold
    }
}

/// Aggregate outcome of an Exp^MI batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MiBatchResult {
    /// `(b, guess)` per trial.
    pub trials: Vec<(bool, bool)>,
}

impl MiBatchResult {
    /// Fraction of correct guesses.
    pub fn success_rate(&self) -> f64 {
        assert!(!self.trials.is_empty(), "success_rate: no trials");
        self.trials.iter().filter(|(b, g)| b == g).count() as f64 / self.trials.len() as f64
    }

    /// Empirical membership advantage.
    pub fn advantage(&self) -> f64 {
        advantage_from_success_rate(self.success_rate())
    }
}

/// Run `reps` Exp^MI trials against a trained model: per trial flip b, draw
/// the challenge point from the training set (b = 1) or from `dist_pool`
/// (fresh draws from the same distribution, b = 0), and apply the attack.
///
/// # Panics
/// Panics when either dataset is empty or `reps` is zero.
pub fn run_mi_trials<R: Rng + ?Sized>(
    adversary: &MiAdversary,
    model: &Sequential,
    train: &Dataset,
    dist_pool: &Dataset,
    reps: usize,
    rng: &mut R,
) -> MiBatchResult {
    assert!(reps > 0, "run_mi_trials: reps must be positive");
    assert!(!train.is_empty(), "run_mi_trials: empty training set");
    assert!(
        !dist_pool.is_empty(),
        "run_mi_trials: empty distribution pool"
    );
    let trials = (0..reps)
        .map(|_| {
            let b = rng.gen::<bool>();
            let (x, y) = if b {
                let i = rng.gen_range(0..train.len());
                (&train.xs[i], train.ys[i])
            } else {
                let i = rng.gen_range(0..dist_pool.len());
                (&dist_pool.xs[i], dist_pool.ys[i])
            };
            (b, adversary.guess_member(model, x, y))
        })
        .collect();
    MiBatchResult { trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::seeded_rng;
    use dpaudit_nn::{Dense, Layer};

    /// Train a tiny overfit model so membership is detectable.
    fn overfit_setup() -> (Sequential, Dataset, Dataset) {
        let mut rng = seeded_rng(1);
        let mut model = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 4, 16)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 16, 2)),
        ]);
        // Members: random points with random labels the model will memorise.
        // Non-members: the same points with *flipped* labels — a memorising
        // (non-generalising) model assigns them high loss, the cleanest
        // possible member/non-member loss gap for testing the attack.
        let mut train = Dataset::empty();
        let mut pool = Dataset::empty();
        for i in 0..8 {
            let x: Vec<f64> = (0..4)
                .map(|j| ((i * 7 + j * 3) % 10) as f64 / 10.0)
                .collect();
            train.push(Tensor::from_vec(&[4], x.clone()), i % 2);
            pool.push(Tensor::from_vec(&[4], x), (i + 1) % 2);
        }
        for _ in 0..300 {
            let mut grad = vec![0.0; model.param_count()];
            for (x, &y) in train.xs.iter().zip(&train.ys) {
                let (_, g) = model.per_example_grad_on(Backend::native(), x, y);
                for (a, b) in grad.iter_mut().zip(&g) {
                    *a += b / train.len() as f64;
                }
            }
            model.gradient_step(&grad, 0.5);
        }
        (model, train, pool)
    }

    #[test]
    fn calibrated_threshold_is_reference_mean_loss() {
        let (model, train, _) = overfit_setup();
        let adv = MiAdversary::calibrated(&model, &train);
        assert!((adv.threshold - model.mean_loss(&train.xs, &train.ys)).abs() < 1e-12);
    }

    #[test]
    fn members_have_lower_loss_after_overfitting() {
        let (model, train, pool) = overfit_setup();
        let member_loss = model.mean_loss(&train.xs, &train.ys);
        let non_member_loss = model.mean_loss(&pool.xs, &pool.ys);
        assert!(
            member_loss < non_member_loss,
            "member {member_loss} vs non-member {non_member_loss}"
        );
    }

    #[test]
    fn attack_beats_random_guessing_on_overfit_model() {
        let (model, train, pool) = overfit_setup();
        // Threshold halfway between member and non-member mean loss.
        let tau =
            (model.mean_loss(&train.xs, &train.ys) + model.mean_loss(&pool.xs, &pool.ys)) / 2.0;
        let adv = MiAdversary { threshold: tau };
        let result = run_mi_trials(&adv, &model, &train, &pool, 400, &mut seeded_rng(2));
        assert!(
            result.advantage() > 0.3,
            "advantage {} too low",
            result.advantage()
        );
    }

    #[test]
    fn degenerate_threshold_never_guesses_member() {
        let (model, train, pool) = overfit_setup();
        let adv = MiAdversary { threshold: -1.0 };
        let result = run_mi_trials(&adv, &model, &train, &pool, 100, &mut seeded_rng(3));
        assert!(result.trials.iter().all(|(_, g)| !g));
        // Success rate collapses to Pr(b = 0) ≈ 1/2 → advantage ≈ 0.
        assert!(result.advantage().abs() < 0.3);
    }

    #[test]
    #[should_panic(expected = "reps must be positive")]
    fn zero_reps_rejected() {
        let (model, train, pool) = overfit_setup();
        let adv = MiAdversary { threshold: 1.0 };
        run_mi_trials(&adv, &model, &train, &pool, 0, &mut seeded_rng(4));
    }
}
