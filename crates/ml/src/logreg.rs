//! L2-regularized logistic regression trained by cyclic coordinate
//! descent with per-coordinate Newton steps.

/// A trained binary logistic regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// L2 regularization strength.
    pub lambda: f64,
    /// Maximum sweeps over the coordinates.
    pub max_iters: usize,
    /// Stop when the largest coordinate update falls below this.
    pub tol: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lambda: 1e-3,
            max_iters: 200,
            tol: 1e-6,
        }
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// A model with explicit coefficients (used to seed the
    /// subject score and for tests).
    pub fn from_coefficients(weights: Vec<f64>, bias: f64) -> Self {
        LogisticRegression { weights, bias }
    }

    /// Learned feature coefficients.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Learned intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// P(y = 1 | x).
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        let z = self.bias + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
        sigmoid(z)
    }

    /// Hard decision at threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Mean log-loss of the model on a dataset.
    #[cfg(test)]
    fn log_loss(&self, xs: &[Vec<f64>], ys: &[bool]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (x, &y) in xs.iter().zip(ys) {
            let p = self.predict_proba(x).clamp(1e-12, 1.0 - 1e-12);
            total -= if y { p.ln() } else { (1.0 - p).ln() };
        }
        total / xs.len() as f64
    }

    /// Train with default hyper-parameters.
    pub fn train(xs: &[Vec<f64>], ys: &[bool]) -> Self {
        Self::train_with(xs, ys, &TrainConfig::default())
    }

    /// Train by cyclic coordinate descent.
    ///
    /// Each sweep updates the bias and every weight in turn with a
    /// one-dimensional Newton step on the regularized logistic loss,
    /// keeping a running margin vector so one sweep costs `O(n · d)`.
    pub fn train_with(xs: &[Vec<f64>], ys: &[bool], cfg: &TrainConfig) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
        assert!(!xs.is_empty(), "empty training set");
        let d = xs[0].len();
        for x in xs {
            assert_eq!(x.len(), d, "ragged feature vectors");
        }
        let n = xs.len();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        // margins[i] = b + w · x_i, maintained incrementally.
        let mut margins = vec![0.0; n];

        for _ in 0..cfg.max_iters {
            let mut max_delta: f64 = 0.0;

            // Bias coordinate.
            let (mut g, mut h) = (0.0, 0.0);
            for (i, &y) in ys.iter().enumerate() {
                let p = sigmoid(margins[i]);
                g += p - if y { 1.0 } else { 0.0 };
                h += p * (1.0 - p);
            }
            let delta_b = -g / (h + 1e-9);
            b += delta_b;
            for m in &mut margins {
                *m += delta_b;
            }
            max_delta = max_delta.max(delta_b.abs());

            // Weight coordinates.
            for j in 0..d {
                let (mut g, mut h) = (cfg.lambda * n as f64 * w[j], cfg.lambda * n as f64);
                for (i, &y) in ys.iter().enumerate() {
                    let xij = xs[i][j];
                    if xij == 0.0 {
                        continue;
                    }
                    let p = sigmoid(margins[i]);
                    g += (p - if y { 1.0 } else { 0.0 }) * xij;
                    h += p * (1.0 - p) * xij * xij;
                }
                let delta = -g / (h + 1e-9);
                if delta != 0.0 {
                    w[j] += delta;
                    for (i, x) in xs.iter().enumerate() {
                        margins[i] += delta * x[j];
                    }
                }
                max_delta = max_delta.max(delta.abs());
            }

            if max_delta < cfg.tol {
                break;
            }
        }
        LogisticRegression {
            weights: w,
            bias: b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy data: y = (x0 + x1 > 1).
    fn toy() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let a = i as f64 / 10.0;
                let b = j as f64 / 10.0;
                xs.push(vec![a, b]);
                ys.push(a + b > 1.0);
            }
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_data() {
        let (xs, ys) = toy();
        let m = LogisticRegression::train(&xs, &ys);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict(x) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.97,
            "{correct}/{}",
            xs.len()
        );
        // weights should be positive for both coordinates
        assert!(m.weights()[0] > 0.0 && m.weights()[1] > 0.0);
    }

    #[test]
    fn probabilities_are_calibrated_at_boundary() {
        let (xs, ys) = toy();
        let m = LogisticRegression::train(&xs, &ys);
        // Points on the decision line get probability near 0.5.
        let p = m.predict_proba(&[0.5, 0.5]);
        assert!((p - 0.5).abs() < 0.2, "boundary p = {p}");
        assert!(m.predict_proba(&[2.0, 2.0]) > 0.95);
        assert!(m.predict_proba(&[0.0, 0.0]) < 0.05);
    }

    #[test]
    fn loss_decreases_with_training() {
        let (xs, ys) = toy();
        let untrained = LogisticRegression::from_coefficients(vec![0.0, 0.0], 0.0);
        let trained = LogisticRegression::train(&xs, &ys);
        assert!(trained.log_loss(&xs, &ys) < untrained.log_loss(&xs, &ys));
    }

    #[test]
    fn regularization_shrinks_weights() {
        let (xs, ys) = toy();
        let loose = LogisticRegression::train_with(
            &xs,
            &ys,
            &TrainConfig {
                lambda: 1e-6,
                ..Default::default()
            },
        );
        let tight = LogisticRegression::train_with(
            &xs,
            &ys,
            &TrainConfig {
                lambda: 1.0,
                ..Default::default()
            },
        );
        let norm = |m: &LogisticRegression| m.weights().iter().map(|w| w * w).sum::<f64>().sqrt();
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn single_class_degenerates_gracefully() {
        let xs = vec![vec![1.0], vec![2.0]];
        let ys = vec![true, true];
        let m = LogisticRegression::train(&xs, &ys);
        assert!(m.predict_proba(&[1.5]) > 0.5);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_panics() {
        LogisticRegression::train(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dim_panics() {
        let m = LogisticRegression::from_coefficients(vec![1.0], 0.0);
        m.predict_proba(&[1.0, 2.0]);
    }
}
