//! The benchmark's own correctness gate: a brute-force durability check
//! that shares no code with the algorithms under test (only the scorer,
//! so scores are bit-identical).

use crate::gen::{Data, Rng, DIM};
use durable_topk::{DurableQuery, RecordId, ScorerSpec};
use durable_topk_temporal::{LinearScorer, Scorer};

/// Records sampled per checked request: half from the answer (must all be
/// durable), half from the interval (durable iff in the answer).
const SAMPLES: usize = 200;

/// Whether record `t` is τ-durable: fewer than `k` records of `[t−τ, t]`
/// score strictly higher than it. `attrs` is row-major with arity `dim`.
pub fn is_durable(
    attrs: &[f64],
    dim: usize,
    scorer: &impl Scorer,
    k: usize,
    tau: u32,
    t: u32,
) -> bool {
    let row = |i: u32| &attrs[i as usize * dim..(i as usize + 1) * dim];
    let mine = scorer.score(row(t));
    let better = (t.saturating_sub(tau)..=t).filter(|&i| scorer.score(row(i)) > mine).count();
    better < k
}

/// A materialized prefix of the generated timeline to check answers on.
pub struct Checker {
    attrs: Vec<f64>,
}

impl Checker {
    /// Materializes records `[0, len)`.
    pub fn new(data: &Data, len: u64) -> Self {
        let mut attrs = Vec::with_capacity(len as usize * DIM);
        for i in 0..len {
            attrs.extend_from_slice(&data.row(i));
        }
        Checker { attrs }
    }

    /// Checks a served answer in both directions on sampled records;
    /// returns a description of the first mismatch.
    pub fn check(
        &self,
        spec: &ScorerSpec,
        q: &DurableQuery,
        answer: &[RecordId],
        rng: &mut Rng,
    ) -> Result<(), String> {
        let ScorerSpec::Linear(w) = spec else {
            return Err("benchmark requests are linear".to_string());
        };
        let scorer = LinearScorer::new(w.clone());
        let (lo, hi) = (q.interval.start(), q.interval.end());
        if !answer.windows(2).all(|p| p[0] < p[1]) || answer.iter().any(|&t| t < lo || t > hi) {
            return Err(format!("answer not sorted inside [{lo}, {hi}]"));
        }
        for i in 0..SAMPLES {
            // Even draws come from the answer, odd ones from the interval.
            let t = if i % 2 == 0 && !answer.is_empty() {
                answer[rng.below(answer.len() as u64) as usize]
            } else {
                lo + rng.below(u64::from(hi - lo) + 1) as u32
            };
            let durable = is_durable(&self.attrs, DIM, &scorer, q.k, q.tau, t);
            let reported = answer.binary_search(&t).is_ok();
            if durable != reported {
                return Err(format!(
                    "record {t}: brute force says durable={durable}, answer says {reported} \
                     (k={} tau={} I=[{lo}, {hi}])",
                    q.k, q.tau
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable_topk_temporal::SingleAttributeScorer;

    #[test]
    fn brute_force_matches_a_hand_worked_example() {
        // One attribute, scores by arrival: 5 3 9 1 7 7 2.
        let attrs = [5.0, 3.0, 9.0, 1.0, 7.0, 7.0, 2.0];
        let s = SingleAttributeScorer::new(0);
        let durable = |k, tau| -> Vec<u32> {
            (0..7).filter(|&t| is_durable(&attrs, 1, &s, k, tau, t)).collect()
        };
        // k=1, τ=2: top of its own 3-record look-back window. Record 5
        // ties record 4 (ties are co-durable: nothing scores strictly
        // higher) but record 2's 9 is still in record 4's window.
        assert_eq!(durable(1, 2), vec![0, 2, 5]);
        // k=2, τ=2: at most one strictly better record in the window.
        assert_eq!(durable(2, 2), vec![0, 1, 2, 4, 5]);
        // τ reaching past the timeline start clamps at record 0.
        assert_eq!(durable(1, 100), vec![0, 2]);
        // k=1, τ=1: pairwise with the predecessor.
        assert_eq!(durable(1, 1), vec![0, 2, 4, 5]);
    }

    #[test]
    fn checker_flags_both_directions() {
        let data = Data::new(3);
        let checker = Checker::new(&data, 600);
        let spec = ScorerSpec::Linear(vec![0.5, 0.3, 0.2]);
        let scorer = LinearScorer::new(vec![0.5, 0.3, 0.2]);
        let q = DurableQuery { k: 2, tau: 40, interval: durable_topk::Window::new(100, 599) };
        let truth: Vec<u32> = (100..600)
            .filter(|&t| is_durable(&checker.attrs, DIM, &scorer, q.k, q.tau, t))
            .collect();
        assert!(!truth.is_empty() && truth.len() < 500);
        let mut rng = Rng::new(1, 1);
        assert_eq!(checker.check(&spec, &q, &truth, &mut rng), Ok(()));
        // A missing durable record and an extra non-durable one are both
        // caught (sampling hits them with near certainty at this size, and
        // the seed is fixed).
        let missing: Vec<u32> = truth.iter().copied().filter(|t| t % 2 == 0).collect();
        assert!(checker.check(&spec, &q, &missing, &mut rng).is_err());
        let mut extra: Vec<u32> = (100..600).collect();
        extra.retain(|t| t % 3 != 0 || truth.contains(t));
        assert!(checker.check(&spec, &q, &extra, &mut rng).is_err());
        assert!(checker.check(&spec, &q, &[599, 100], &mut rng).is_err());
    }
}
