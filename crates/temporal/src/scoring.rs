//! User-specified scoring functions.
//!
//! The paper's algorithms are agnostic to the scoring function `f`: they only
//! require a top-k "building block" that ranks records under `f`. This module
//! defines the scoring interface and the three preference-function families
//! the paper highlights (Section II):
//!
//! * **linear**: `f_u(p) = Σ u_i · p.x_i` ([`LinearScorer`]),
//! * **linear combination of monotone functions**:
//!   `f_u(p) = Σ u_i · h(p.x_i)` with monotone `h` such as `log`
//!   ([`MonotoneCombinationScorer`]),
//! * **cosine**: `f_u(p) = (Σ u_i · p.x_i) / (|p||u|)` ([`CosineScorer`]).
//!
//! The preference vector `u` is a query-time parameter: constructing a scorer
//! is cheap and done per query.

/// A user-specified scoring function mapping an attribute vector to a score.
///
/// Implementations must be deterministic and total (no NaNs) over the data
/// they are used with; the query algorithms compare scores with `f64`
/// ordering and treat exactly-equal scores as ties (ties can be co-durable,
/// matching the paper's "tying for the top record" semantics).
pub trait Scorer {
    /// Scores one attribute vector.
    fn score(&self, attrs: &[f64]) -> f64;

    /// Scores a run of rows stored back to back (`dim` values each) into
    /// `out`, which is cleared first: `out[i]` is the score of row `i`.
    ///
    /// **Contract:** every `out[i]` is bit-identical (`to_bits`) to
    /// `score(&run[i * dim..(i + 1) * dim])`, so a caller may score a leaf
    /// in one batch without changing a single comparison. The default
    /// calls [`score`](Scorer::score) per row; an override may only make
    /// the loop cheaper, never reorder a row's arithmetic.
    fn score_run(&self, run: &[f64], dim: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend(run.chunks_exact(dim).map(|row| self.score(row)));
    }

    /// Whether the scorer is monotone non-decreasing in every attribute,
    /// and a record better in *every* attribute scores strictly higher.
    ///
    /// Monotone scorers admit exact node bounds from skylines in the top-k
    /// index and are eligible for the S-Band algorithm (Section IV-B, which
    /// applies "to monotone scoring functions only"). The strict half is
    /// what S-Band's skyband relies on: it counts only dominators better
    /// in every attribute, so each must outscore the record it dominates.
    /// A weighted sum needs one positive weight for that; zero weights on
    /// the others are fine.
    fn is_monotone(&self) -> bool;
}

/// Why a preference vector cannot parameterize a scorer.
///
/// Preference vectors arrive as request data (CLI flags, decoded wire
/// frames), so a bad one must be a value the serving path can report, not a
/// panic: [`LinearScorer::try_new`] and [`CosineScorer::try_new`] return it,
/// and the panicking constructors print its `Display`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScorerError {
    /// The preference vector has no entries.
    Empty,
    /// A linear weight is negative, NaN or infinite; linear scorers must
    /// stay monotone.
    InvalidWeight,
    /// A cosine preference vector's norm is zero, NaN or infinite (an
    /// all-zero vector, or a non-finite entry), so it names no direction.
    NoDirection,
}

impl std::fmt::Display for ScorerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScorerError::Empty => "preference vector must be non-empty",
            ScorerError::InvalidWeight => "preference weights must be finite and non-negative",
            ScorerError::NoDirection => "preference vector must be finite and non-zero",
        })
    }
}

impl std::error::Error for ScorerError {}

/// Linear preference scorer `f_u(p) = Σ u_i · p.x_i`.
///
/// Weights must be non-negative for the scorer to be monotone (this is the
/// paper's setting: "`u_i` is the (non-negative) weight for the i-th
/// attribute").
#[derive(Debug, Clone, PartialEq)]
pub struct LinearScorer {
    weights: Vec<f64>,
}

impl LinearScorer {
    /// Creates a linear scorer with the given preference vector.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// weight (see [`try_new`](LinearScorer::try_new)).
    // Documented-panic wrapper over try_new.
    #[allow(clippy::panic)]
    pub fn new(weights: Vec<f64>) -> Self {
        Self::try_new(weights).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`new`](LinearScorer::new) for preference vectors
    /// that arrive as request data.
    pub fn try_new(weights: Vec<f64>) -> Result<Self, ScorerError> {
        if weights.is_empty() {
            return Err(ScorerError::Empty);
        }
        if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
            return Err(ScorerError::InvalidWeight);
        }
        Ok(Self { weights })
    }

    /// Uniform preference over `d` attributes (each weight `1/d`).
    pub fn uniform(d: usize) -> Self {
        Self::new(vec![1.0 / d as f64; d])
    }

    /// The preference vector `u`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Scorer for LinearScorer {
    #[inline]
    fn score(&self, attrs: &[f64]) -> f64 {
        debug_assert_eq!(attrs.len(), self.weights.len());
        // Manual loop: tight inner kernel of every top-k query.
        let mut s = 0.0;
        for (w, x) in self.weights.iter().zip(attrs) {
            s += w * x;
        }
        s
    }

    /// Rows of two to four attributes get a loop with the weights held in
    /// registers; each row still sums `((0 + w₀x₀) + w₁x₁) + …` in the
    /// order [`score`](Scorer::score) does, so the scores are bit-identical.
    fn score_run(&self, run: &[f64], dim: usize, out: &mut Vec<f64>) {
        debug_assert_eq!(dim, self.weights.len());
        out.clear();
        let rows = run.chunks_exact(dim);
        match *self.weights.as_slice() {
            [w0, w1] => out.extend(rows.map(|x| 0.0 + w0 * x[0] + w1 * x[1])),
            [w0, w1, w2] => out.extend(rows.map(|x| 0.0 + w0 * x[0] + w1 * x[1] + w2 * x[2])),
            [w0, w1, w2, w3] => {
                out.extend(rows.map(|x| 0.0 + w0 * x[0] + w1 * x[1] + w2 * x[2] + w3 * x[3]))
            }
            _ => out.extend(rows.map(|x| self.score(x))),
        }
    }

    fn is_monotone(&self) -> bool {
        self.weights.iter().any(|&w| w > 0.0)
    }
}

/// A monotone per-attribute transform `h` for
/// [`MonotoneCombinationScorer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonotoneTransform {
    /// Identity: `h(x) = x`.
    Identity,
    /// `h(x) = ln(1 + x)` for `x ≥ 0`, extended as an odd function
    /// (`h(−x) = −h(x)`) — the paper's `log` example made total and
    /// strictly increasing over all reals.
    Log1p,
    /// `h(x) = sqrt(x)` for `x ≥ 0`, extended as an odd function.
    Sqrt,
    /// `h(x) = x³` (odd power, monotone over all reals).
    Cube,
}

impl MonotoneTransform {
    /// Applies the transform; NaN maps to `0`.
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            MonotoneTransform::Identity => x,
            MonotoneTransform::Log1p => odd(x, f64::ln_1p),
            MonotoneTransform::Sqrt => odd(x, f64::sqrt),
            MonotoneTransform::Cube => x * x * x,
        }
    }
}

/// `h` over `x ≥ 0` extended to negative `x` as `−h(−x)`, so two ordered
/// negative values stay ordered; NaN maps to `h(0)`.
#[inline]
fn odd(x: f64, h: fn(f64) -> f64) -> f64 {
    if x < 0.0 {
        -h(-x)
    } else {
        h(x.max(0.0))
    }
}

/// Linear combination of monotone transforms:
/// `f_u(p) = Σ u_i · h_i(p.x_i)` with `u_i ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct MonotoneCombinationScorer {
    weights: Vec<f64>,
    transforms: Vec<MonotoneTransform>,
}

impl MonotoneCombinationScorer {
    /// Creates the scorer; one transform per attribute.
    ///
    /// # Panics
    /// Panics on empty/negative weights or arity mismatch.
    pub fn new(weights: Vec<f64>, transforms: Vec<MonotoneTransform>) -> Self {
        assert_eq!(weights.len(), transforms.len(), "one transform per weight");
        assert!(!weights.is_empty(), "preference vector must be non-empty");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "preference weights must be finite and non-negative"
        );
        Self { weights, transforms }
    }

    /// Applies `Log1p` to every attribute with the given weights.
    pub fn log1p(weights: Vec<f64>) -> Self {
        let transforms = vec![MonotoneTransform::Log1p; weights.len()];
        Self::new(weights, transforms)
    }

    /// The preference vector `u`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The per-attribute transforms `h_i`, one per weight.
    pub fn transforms(&self) -> &[MonotoneTransform] {
        &self.transforms
    }
}

impl Scorer for MonotoneCombinationScorer {
    #[inline]
    fn score(&self, attrs: &[f64]) -> f64 {
        debug_assert_eq!(attrs.len(), self.weights.len());
        let mut s = 0.0;
        for ((w, tr), x) in self.weights.iter().zip(&self.transforms).zip(attrs) {
            s += w * tr.apply(*x);
        }
        s
    }

    fn is_monotone(&self) -> bool {
        self.weights.iter().any(|&w| w > 0.0)
    }
}

/// Cosine similarity scorer `f_u(p) = (u · p) / (|u||p|)`.
///
/// Cosine is **not** monotone in the attributes, so it cannot use skyline
/// node bounds or the S-Band candidate index; the top-k oracle falls back to
/// admissible bounding-box bounds for it, and only the generally-applicable
/// algorithms (T-Base, T-Hop, S-Base, S-Hop) accept it.
#[derive(Debug, Clone, PartialEq)]
pub struct CosineScorer {
    weights: Vec<f64>,
    norm: f64,
}

impl CosineScorer {
    /// Creates a cosine scorer for the preference vector `u`.
    ///
    /// # Panics
    /// Panics if `u` is empty, non-finite, or has zero norm.
    // Documented-panic wrapper over try_new.
    #[allow(clippy::panic)]
    pub fn new(weights: Vec<f64>) -> Self {
        Self::try_new(weights).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`new`](CosineScorer::new) for preference vectors
    /// that arrive as request data.
    pub fn try_new(weights: Vec<f64>) -> Result<Self, ScorerError> {
        if weights.is_empty() {
            return Err(ScorerError::Empty);
        }
        let norm = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
        // A NaN or infinite entry (or an overflowing square) surfaces in
        // the norm, so one test covers non-finite and all-zero vectors.
        if !(norm.is_finite() && norm > 0.0) {
            return Err(ScorerError::NoDirection);
        }
        Ok(Self { weights, norm })
    }

    /// The preference vector `u`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `|u|`.
    pub fn weight_norm(&self) -> f64 {
        self.norm
    }
}

impl Scorer for CosineScorer {
    #[inline]
    fn score(&self, attrs: &[f64]) -> f64 {
        debug_assert_eq!(attrs.len(), self.weights.len());
        let mut dot = 0.0;
        let mut sq = 0.0;
        for (w, x) in self.weights.iter().zip(attrs) {
            dot += w * x;
            sq += x * x;
        }
        if sq == 0.0 {
            return 0.0; // zero vector: define cosine as 0
        }
        dot / (self.norm * sq.sqrt())
    }

    fn is_monotone(&self) -> bool {
        false
    }
}

/// Ranks records by a single attribute (the paper's Example I.1: rebounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleAttributeScorer {
    attr: usize,
}

impl SingleAttributeScorer {
    /// Scores by attribute `attr`.
    pub fn new(attr: usize) -> Self {
        Self { attr }
    }

    /// The scored attribute's index.
    pub fn attr(&self) -> usize {
        self.attr
    }
}

impl Scorer for SingleAttributeScorer {
    #[inline]
    fn score(&self, attrs: &[f64]) -> f64 {
        attrs[self.attr]
    }

    fn is_monotone(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_scores_dot_product() {
        let s = LinearScorer::new(vec![2.0, 0.5]);
        assert_eq!(s.score(&[3.0, 4.0]), 8.0);
        assert!(s.is_monotone());
    }

    #[test]
    fn all_zero_weights_are_not_monotone_enough_for_s_band() {
        // Every record ties, so better-in-every-attribute cannot mean
        // outscoring; one positive weight is enough.
        assert!(!LinearScorer::new(vec![0.0, 0.0]).is_monotone());
        assert!(LinearScorer::new(vec![1.0, 0.0]).is_monotone());
        assert!(!MonotoneCombinationScorer::log1p(vec![0.0]).is_monotone());
    }

    #[test]
    fn uniform_weights_average() {
        let s = LinearScorer::uniform(4);
        assert!((s.score(&[4.0, 4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn linear_rejects_negative_weights() {
        LinearScorer::new(vec![1.0, -0.1]);
    }

    #[test]
    fn try_new_reports_what_new_panics_with() {
        assert_eq!(LinearScorer::try_new(vec![]), Err(ScorerError::Empty));
        for bad in [vec![1.0, -0.1], vec![-1.0, f64::NAN], vec![f64::INFINITY, 1.0]] {
            assert_eq!(LinearScorer::try_new(bad), Err(ScorerError::InvalidWeight));
        }
        assert_eq!(
            ScorerError::InvalidWeight.to_string(),
            "preference weights must be finite and non-negative"
        );
        assert_eq!(CosineScorer::try_new(vec![]), Err(ScorerError::Empty));
        for bad in [vec![0.0, 0.0], vec![1.0, f64::NAN], vec![f64::NEG_INFINITY, 1.0]] {
            assert_eq!(CosineScorer::try_new(bad), Err(ScorerError::NoDirection));
        }
        assert!(CosineScorer::try_new(vec![-1.0, 0.5]).is_ok());
    }

    #[test]
    fn monotone_combination_applies_transforms() {
        let s = MonotoneCombinationScorer::new(
            vec![1.0, 1.0],
            vec![MonotoneTransform::Identity, MonotoneTransform::Log1p],
        );
        let expected = 2.0 + (1.0f64 + 7.0).ln();
        assert!((s.score(&[2.0, 7.0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn transforms_are_monotone() {
        for tr in [
            MonotoneTransform::Identity,
            MonotoneTransform::Log1p,
            MonotoneTransform::Sqrt,
            MonotoneTransform::Cube,
        ] {
            let mut prev = f64::NEG_INFINITY;
            for i in 0..100 {
                let x = i as f64 * 0.37 - 5.0;
                let v = tr.apply(x);
                assert!(v > prev, "{tr:?} not strictly increasing at {x}");
                prev = v;
            }
        }
        for tr in [MonotoneTransform::Log1p, MonotoneTransform::Sqrt] {
            assert_eq!(tr.apply(f64::NAN), 0.0, "{tr:?}");
            assert_eq!(tr.apply(-4.0), -tr.apply(4.0), "{tr:?} is odd");
        }
        assert_eq!(MonotoneTransform::Sqrt.apply(4.0), 2.0);
    }

    #[test]
    fn cosine_is_scale_invariant_in_record() {
        let s = CosineScorer::new(vec![1.0, 2.0]);
        let a = s.score(&[3.0, 4.0]);
        let b = s.score(&[6.0, 8.0]);
        assert!((a - b).abs() < 1e-12);
        assert!(!s.is_monotone());
    }

    #[test]
    fn cosine_of_parallel_vector_is_one() {
        let s = CosineScorer::new(vec![1.0, 2.0, 2.0]);
        assert!((s.score(&[0.5, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(s.score(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn single_attribute_picks_column() {
        let s = SingleAttributeScorer::new(1);
        assert_eq!(s.score(&[9.0, 7.0, 5.0]), 7.0);
    }
}
