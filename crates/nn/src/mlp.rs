//! Minimal multi-layer perceptron with softmax cross-entropy training.
//!
//! Sized for the situation classifiers: tens of input features, one or
//! two hidden layers, ≤ 5 output classes. Deterministic given the RNG
//! seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One dense layer `y = W·x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    rows: usize,
    cols: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    // Momentum buffers.
    vw: Vec<f32>,
    vb: Vec<f32>,
}

impl Dense {
    fn new(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU nets.
        let scale = (2.0 / cols as f32).sqrt();
        let w = (0..rows * cols).map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale).collect();
        Dense { rows, cols, w, b: vec![0.0; rows], vw: vec![0.0; rows * cols], vb: vec![0.0; rows] }
    }

    fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        for r in 0..self.rows {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            let mut acc = self.b[r];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Number of passes over the training set.
    pub epochs: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { learning_rate: 0.005, momentum: 0.5, epochs: 60 }
    }
}

/// A feed-forward network: input → hidden (ReLU) → … → logits.
///
/// # Example
///
/// ```
/// use lkas_nn::mlp::{Mlp, TrainConfig};
///
/// // Learn XOR.
/// let xs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
/// let inputs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
/// let labels = [0usize, 1, 1, 0];
/// let mut net = Mlp::new(&[2, 8, 2], 7);
/// let config = TrainConfig { epochs: 600, learning_rate: 0.05, momentum: 0.5 };
/// net.train(&inputs, &labels, &config, 3);
/// assert_eq!(net.predict(&xs[1]), 1);
/// assert_eq!(net.predict(&xs[3]), 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates a network with the given layer sizes
    /// (`[input, hidden…, classes]`), deterministically initialized from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes.windows(2).map(|w| Dense::new(w[1], w[0], &mut rng)).collect();
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map(|l| l.cols).unwrap_or(0)
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.layers.last().map(|l| l.rows).unwrap_or(0)
    }

    /// Class probabilities for one input (softmax of the logits).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_dim`].
    pub fn probabilities(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let (acts, _) = self.forward_all(x);
        softmax(acts.last().expect("network has layers"))
    }

    /// Most probable class for one input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_dim`].
    pub fn predict(&self, x: &[f32]) -> usize {
        argmax(&self.probabilities(x))
    }

    /// Forward pass keeping every layer's (post-activation) output.
    /// Returns `(activations, pre_activations)`, where `activations[0]`
    /// is the first layer's post-ReLU output and the final entry holds
    /// raw logits.
    fn forward_all(&self, x: &[f32]) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut acts: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        let mut pres: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        let mut cur: Vec<f32> = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = Vec::new();
            layer.forward(&cur, &mut out);
            pres.push(out.clone());
            if i + 1 < self.layers.len() {
                for v in &mut out {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(out.clone());
            cur = out;
        }
        (acts, pres)
    }

    /// Trains with softmax cross-entropy and SGD + momentum. Samples are
    /// visited in a shuffled order each epoch (deterministic given
    /// `shuffle_seed`).
    ///
    /// # Panics
    ///
    /// Panics if inputs/labels lengths differ, any label is out of range,
    /// or any input has the wrong dimension.
    pub fn train(
        &mut self,
        inputs: &[&[f32]],
        labels: &[usize],
        config: &TrainConfig,
        shuffle_seed: u64,
    ) {
        assert_eq!(inputs.len(), labels.len(), "inputs/labels length mismatch");
        let classes = self.n_classes();
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        let dim = self.input_dim();
        assert!(inputs.iter().all(|x| x.len() == dim), "input dimension mismatch");

        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for epoch in 0..config.epochs {
            // 1/t learning-rate decay stabilizes the per-sample updates
            // late in training.
            let decayed = TrainConfig {
                learning_rate: config.learning_rate / (1.0 + epoch as f32 / 20.0),
                ..*config
            };
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &idx in &order {
                self.step(inputs[idx], labels[idx], &decayed);
            }
        }
    }

    /// One SGD step on one sample.
    fn step(&mut self, x: &[f32], label: usize, config: &TrainConfig) {
        let (acts, pres) = self.forward_all(x);
        let probs = softmax(acts.last().expect("layers"));
        // dL/dlogits = p − one_hot(label)
        let mut delta: Vec<f32> = probs;
        delta[label] -= 1.0;

        // Backpropagate layer by layer.
        for li in (0..self.layers.len()).rev() {
            let input: &[f32] = if li == 0 { x } else { &acts[li - 1] };
            // Gradient w.r.t. this layer's inputs (before applying the
            // update, using current weights).
            let layer = &self.layers[li];
            let mut grad_input = vec![0.0f32; layer.cols];
            for (r, &d) in delta.iter().enumerate().take(layer.rows) {
                if d == 0.0 {
                    continue;
                }
                let row = &layer.w[r * layer.cols..(r + 1) * layer.cols];
                for (gi, wi) in grad_input.iter_mut().zip(row) {
                    *gi += d * wi;
                }
            }
            // Parameter update with momentum.
            let layer = &mut self.layers[li];
            for (r, &d) in delta.iter().enumerate().take(layer.rows) {
                let base = r * layer.cols;
                for (c, &x) in input.iter().enumerate().take(layer.cols) {
                    let g = d * x;
                    let v = config.momentum * layer.vw[base + c] - config.learning_rate * g;
                    layer.vw[base + c] = v;
                    layer.w[base + c] += v;
                }
                let vb = config.momentum * layer.vb[r] - config.learning_rate * d;
                layer.vb[r] = vb;
                layer.b[r] += vb;
            }
            if li > 0 {
                // Push the gradient through the previous ReLU.
                delta = grad_input;
                for (dv, pre) in delta.iter_mut().zip(&pres[li - 1]) {
                    if *pre <= 0.0 {
                        *dv = 0.0;
                    }
                }
            }
        }
    }

    /// Classification accuracy on a labeled set.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn accuracy(&self, inputs: &[&[f32]], labels: &[usize]) -> f64 {
        assert_eq!(inputs.len(), labels.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let correct = inputs.iter().zip(labels).filter(|(x, &l)| self.predict(x) == l).count();
        correct as f64 / inputs.len() as f64
    }
}

/// Numerically stable softmax.
fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = Vec::with_capacity(logits.len());
    softmax_into(logits, &mut probs);
    probs
}

/// [`softmax`] into a caller-owned buffer (cleared first).
fn softmax_into(logits: &[f32], probs: &mut Vec<f32>) {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    probs.clear();
    probs.extend(logits.iter().map(|v| (v - max).exp()));
    let sum: f32 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= sum;
    }
}

/// Index of the largest probability — the single argmax of the crate.
/// Ties (and incomparable NaN pairs) resolve to the *last* maximal
/// index, matching `Iterator::max_by`; the sequential and batched
/// predictors share this function so their tie-breaking agrees.
fn argmax(p: &[f32]) -> usize {
    p.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Reusable ping-pong buffers of the batched forward passes, and the
/// class probabilities of one member: holding one `MlpScratch` across
/// windows makes [`BatchedMlps::forward`] and
/// [`BatchedMlps::predict_into`] allocation-free in the steady state.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    probs: Vec<f32>,
}

impl MlpScratch {
    /// Creates empty buffers; they grow to steady-state size on first
    /// use.
    pub fn new() -> Self {
        MlpScratch::default()
    }
}

/// One stacked layer of a [`BatchedMlps`]: the member networks' weight
/// matrices concatenated row-major into one contiguous buffer, with
/// their `(rows, cols)` block structure.
#[derive(Debug, Clone)]
struct GroupedLayer {
    w: Vec<f32>,
    b: Vec<f32>,
    groups: Vec<(usize, usize)>,
}

/// Several MLPs of equal depth stacked for grouped batched inference:
/// each layer of the stack runs as **one** grouped GEMM
/// ([`lkas_linalg::sgemm_grouped_nt`]) over one contiguous weight
/// buffer, instead of one strided matmul per member network — the
/// batched path of the three situation classifiers.
///
/// Per output element the grouped GEMM accumulates in exactly the
/// order of [`Mlp::probabilities`]'s per-layer forward, the inter-layer
/// ReLU and the final softmax/argmax are the same functions, so
/// batched results are bit-identical to running each member
/// sequentially (asserted by the `gate-kernel-equivalence` CI stage).
///
/// # Example
///
/// ```
/// use lkas_nn::mlp::{BatchedMlps, Mlp, MlpScratch};
///
/// let a = Mlp::new(&[3, 8, 2], 1);
/// let b = Mlp::new(&[3, 6, 4], 2);
/// let batched = BatchedMlps::new(&[&a, &b]);
/// let xs = [0.1f32, -0.4, 0.7, /* second net's input: */ 0.2, 0.0, -0.9];
/// let mut scratch = MlpScratch::new();
/// let mut preds = Vec::new();
/// batched.predict_into(&xs, &mut scratch, &mut preds);
/// assert_eq!(preds, vec![a.predict(&xs[..3]), b.predict(&xs[3..])]);
/// ```
#[derive(Debug, Clone)]
pub struct BatchedMlps {
    layers: Vec<GroupedLayer>,
    input_dims: Vec<usize>,
    class_counts: Vec<usize>,
}

impl BatchedMlps {
    /// Stacks the given networks (copying their weights into contiguous
    /// per-layer buffers).
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty or the networks have different depths.
    pub fn new(nets: &[&Mlp]) -> Self {
        assert!(!nets.is_empty(), "need at least one network to stack");
        let depth = nets[0].layers.len();
        assert!(
            nets.iter().all(|n| n.layers.len() == depth),
            "stacked networks must have equal depth"
        );
        let layers = (0..depth)
            .map(|li| {
                let mut w = Vec::new();
                let mut b = Vec::new();
                let mut groups = Vec::with_capacity(nets.len());
                for net in nets {
                    let layer = &net.layers[li];
                    w.extend_from_slice(&layer.w);
                    b.extend_from_slice(&layer.b);
                    groups.push((layer.rows, layer.cols));
                }
                GroupedLayer { w, b, groups }
            })
            .collect();
        BatchedMlps {
            layers,
            input_dims: nets.iter().map(|n| n.input_dim()).collect(),
            class_counts: nets.iter().map(|n| n.n_classes()).collect(),
        }
    }

    /// Grouped forward pass: `xs` holds the members' input vectors
    /// concatenated in stacking order; returns the concatenated logits
    /// (living in `scratch` — allocation-free once warm).
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` differs from the sum of
    /// [`BatchedMlps::input_dims`].
    pub fn forward<'s>(&self, xs: &[f32], scratch: &'s mut MlpScratch) -> &'s [f32] {
        let total: usize = self.input_dims.iter().sum();
        assert_eq!(xs.len(), total, "stacked input dimension mismatch");
        scratch.a.clear();
        scratch.a.extend_from_slice(xs);
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            lkas_linalg::sgemm_grouped_nt(
                &scratch.a,
                &layer.w,
                &layer.b,
                &layer.groups,
                &mut scratch.b,
            );
            if li < last {
                for v in &mut scratch.b {
                    *v = v.max(0.0); // ReLU, same expression as Mlp::forward_all
                }
            }
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        &scratch.a
    }

    /// Grouped prediction: runs [`BatchedMlps::forward`], then softmax +
    /// argmax per member block, writing one class index per member into
    /// `preds` (cleared first). Bit-identical to calling
    /// [`Mlp::predict`] on each member.
    pub fn predict_into(&self, xs: &[f32], scratch: &mut MlpScratch, preds: &mut Vec<usize>) {
        self.forward(xs, scratch);
        preds.clear();
        let mut off = 0usize;
        for &classes in &self.class_counts {
            softmax_into(&scratch.a[off..off + classes], &mut scratch.probs);
            preds.push(argmax(&scratch.probs));
            off += classes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn learns_linear_separation() {
        // Two Gaussian-ish blobs.
        let mut inputs: Vec<Vec<f32>> = Vec::new();
        let mut labels = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let x: f32 = rng.gen::<f32>() * 0.4;
            let y: f32 = rng.gen::<f32>() * 0.4;
            inputs.push(vec![x, y]);
            labels.push(0);
            inputs.push(vec![x + 1.0, y + 1.0]);
            labels.push(1);
        }
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let mut net = Mlp::new(&[2, 8, 2], 3);
        net.train(&refs, &labels, &TrainConfig { epochs: 20, ..Default::default() }, 4);
        assert!(net.accuracy(&refs, &labels) > 0.99);
    }

    #[test]
    fn learns_xor() {
        let xs = [[0.0f32, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let labels = [0usize, 1, 1, 0];
        let mut net = Mlp::new(&[2, 12, 2], 11);
        net.train(
            &refs,
            &labels,
            &TrainConfig { epochs: 600, learning_rate: 0.05, momentum: 0.9 },
            5,
        );
        assert!(net.accuracy(&refs, &labels) >= 0.99, "acc = {}", net.accuracy(&refs, &labels));
    }

    #[test]
    fn deterministic_given_seeds() {
        let xs = [[0.1f32, 0.9], [0.8, 0.2]];
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let labels = [0usize, 1];
        let mut a = Mlp::new(&[2, 4, 2], 42);
        let mut b = Mlp::new(&[2, 4, 2], 42);
        let cfg = TrainConfig::default();
        a.train(&refs, &labels, &cfg, 9);
        b.train(&refs, &labels, &cfg, 9);
        assert_eq!(a.probabilities(&xs[0]), b.probabilities(&xs[0]));
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let net = Mlp::new(&[3, 5, 4], 0);
        let p = net.probabilities(&[0.3, -0.2, 0.9]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic]
    fn wrong_input_dim_panics() {
        let net = Mlp::new(&[3, 2], 0);
        let _ = net.predict(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn label_out_of_range_panics() {
        let xs = [[0.0f32, 0.0]];
        let refs: Vec<&[f32]> = xs.iter().map(|v| v.as_slice()).collect();
        let mut net = Mlp::new(&[2, 2], 0);
        net.train(&refs, &[5], &TrainConfig::default(), 0);
    }

    /// Three heterogeneous nets of equal depth, like the situation
    /// classifier trio.
    fn trio() -> (Mlp, Mlp, Mlp) {
        (Mlp::new(&[7, 16, 3], 11), Mlp::new(&[7, 12, 4], 22), Mlp::new(&[7, 16, 5], 33))
    }

    fn trio_inputs(seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let vec7 = |salt: u64| {
            (0..7u64)
                .map(|i| ((seed * 31 + salt * 17 + i * 7) % 23) as f32 * 0.1 - 1.1)
                .collect::<Vec<f32>>()
        };
        (vec7(0), vec7(1), vec7(2))
    }

    #[test]
    fn batched_forward_is_bit_identical_to_sequential() {
        let (a, b, c) = trio();
        let batched = BatchedMlps::new(&[&a, &b, &c]);
        let mut scratch = MlpScratch::new();
        for seed in 0..16 {
            let (xa, xb, xc) = trio_inputs(seed);
            let xs: Vec<f32> = [&xa[..], &xb, &xc].concat();
            let logits = batched.forward(&xs, &mut scratch).to_vec();
            let seq: Vec<f32> = [a.forward_all(&xa).0, b.forward_all(&xb).0, c.forward_all(&xc).0]
                .into_iter()
                .map(|acts| acts.last().unwrap().clone())
                .collect::<Vec<_>>()
                .concat();
            assert_eq!(logits, seq, "seed {seed}");
        }
    }

    #[test]
    fn batched_predict_matches_sequential_predict() {
        let (a, b, c) = trio();
        let batched = BatchedMlps::new(&[&a, &b, &c]);
        assert_eq!(batched.input_dims, [7, 7, 7]);
        assert_eq!(batched.class_counts, [3, 4, 5]);
        let mut scratch = MlpScratch::new();
        let mut preds = Vec::new();
        for seed in 100..132 {
            let (xa, xb, xc) = trio_inputs(seed);
            let xs: Vec<f32> = [&xa[..], &xb, &xc].concat();
            batched.predict_into(&xs, &mut scratch, &mut preds);
            assert_eq!(preds, vec![a.predict(&xa), b.predict(&xb), c.predict(&xc)], "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "equal depth")]
    fn batched_rejects_mismatched_depths() {
        let shallow = Mlp::new(&[4, 2], 0);
        let deep = Mlp::new(&[4, 8, 2], 0);
        let _ = BatchedMlps::new(&[&shallow, &deep]);
    }

    #[test]
    #[should_panic(expected = "stacked input dimension")]
    fn batched_rejects_wrong_stacked_input_len() {
        let net = Mlp::new(&[4, 2], 0);
        let batched = BatchedMlps::new(&[&net]);
        let _ = batched.forward(&[0.0; 3], &mut MlpScratch::new());
    }
}
