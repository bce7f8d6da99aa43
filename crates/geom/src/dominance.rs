//! Pareto dominance tests.

/// Whether `a` dominates `b`: `a` is no worse than `b` in every dimension and
/// strictly better in at least one (the paper's footnote-4 definition, with
/// "better" meaning larger).
///
/// Equal points do not dominate each other. The loop exits on the first
/// dimension where `a` is worse, which makes random pairs cheap to reject —
/// the property the high-dimensional skyband build relies on.
///
/// # Panics
/// Debug-asserts equal arity.
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strict = true;
        }
    }
    strict
}

/// Whether `a` strictly dominates `b`: strictly better in every dimension.
///
/// The dominance that durable skyband durations count: under a scorer with
/// non-negative weights, not all zero, a strict dominator scores strictly
/// higher even where a weight is zero, while a [`dominates`] dominator may
/// tie. A NaN coordinate is never strictly better or worse, so a row with
/// one neither strictly dominates nor is strictly dominated.
#[inline]
pub fn strictly_dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x > y)
}

/// Whether `a` weakly dominates `b`: no worse in every dimension (equal
/// points weakly dominate each other).
#[inline]
pub fn weakly_dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x >= y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_dominance_requires_one_strict_dim() {
        assert!(dominates(&[2.0, 3.0], &[2.0, 2.0]));
        assert!(dominates(&[3.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[3.0, 1.0], &[2.0, 2.0]));
    }

    #[test]
    fn strict_dominance_requires_every_dim_strict() {
        assert!(strictly_dominates(&[3.0, 3.0], &[2.0, 2.0]));
        assert!(!strictly_dominates(&[2.0, 3.0], &[2.0, 2.0]), "a tie in one dim");
        assert!(!strictly_dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(!strictly_dominates(&[f64::NAN, 3.0], &[2.0, 2.0]));
        assert!(!strictly_dominates(&[3.0, 3.0], &[f64::NAN, 2.0]));
    }

    #[test]
    fn weak_dominance_allows_equality() {
        assert!(weakly_dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(weakly_dominates(&[2.5, 2.0], &[2.0, 2.0]));
        assert!(!weakly_dominates(&[2.5, 1.9], &[2.0, 2.0]));
    }

    #[test]
    fn dominance_is_antisymmetric() {
        let a = [1.0, 5.0, 3.0];
        let b = [1.0, 4.0, 3.0];
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn dominance_is_transitive_on_samples() {
        let pts = [[3.0, 3.0], [2.0, 2.5], [1.0, 2.0]];
        assert!(dominates(&pts[0], &pts[1]));
        assert!(dominates(&pts[1], &pts[2]));
        assert!(dominates(&pts[0], &pts[2]));
    }
}
