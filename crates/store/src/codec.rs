//! Little-endian field decoding for the fixed on-page layouts.
//!
//! Every on-disk structure in this crate stores fixed-width little-endian
//! fields. These decoders centralize the one slice-width proof obligation
//! (the input must be exactly the field width) so call sites stay free of
//! `try_into().expect(..)` noise — and the crate's `clippy::expect_used`
//! denial holds everywhere else.

/// Decodes a little-endian `u64` from exactly 8 bytes.
///
/// # Panics
/// Panics if `bytes.len() != 8` — a caller bug: every field offset in this
/// crate is a compile-time constant.
#[allow(clippy::expect_used)]
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    // The single place the fixed-width contract is enforced; callers slice
    // compile-time-constant widths.
    u64::from_le_bytes(bytes.try_into().expect("le_u64 needs exactly 8 bytes"))
}

/// Decodes a little-endian `u32` from exactly 4 bytes.
///
/// # Panics
/// Panics if `bytes.len() != 4` (see [`le_u64`]).
#[allow(clippy::expect_used)]
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    // See le_u64.
    u32::from_le_bytes(bytes.try_into().expect("le_u32 needs exactly 4 bytes"))
}

/// Decodes a little-endian `i64` from exactly 8 bytes.
///
/// # Panics
/// Panics if `bytes.len() != 8` (see [`le_u64`]).
#[allow(clippy::expect_used)]
pub(crate) fn le_i64(bytes: &[u8]) -> i64 {
    // See le_u64.
    i64::from_le_bytes(bytes.try_into().expect("le_i64 needs exactly 8 bytes"))
}

/// Decodes a little-endian `f64` from exactly 8 bytes.
///
/// # Panics
/// Panics if `bytes.len() != 8` (see [`le_u64`]).
#[allow(clippy::expect_used)]
pub(crate) fn le_f64(bytes: &[u8]) -> f64 {
    // See le_u64.
    f64::from_le_bytes(bytes.try_into().expect("le_f64 needs exactly 8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        assert_eq!(le_u64(&0xdead_beef_u64.to_le_bytes()), 0xdead_beef);
        assert_eq!(le_u32(&7u32.to_le_bytes()), 7);
        assert_eq!(le_i64(&(-42i64).to_le_bytes()), -42);
        assert_eq!(le_f64(&1.5f64.to_le_bytes()), 1.5);
    }

    #[test]
    #[should_panic(expected = "exactly 8 bytes")]
    fn width_mismatch_is_a_caller_bug() {
        le_u64(&[0u8; 4]);
    }
}
