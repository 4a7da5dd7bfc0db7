//! Int8 quantization codec for stored activations.
//!
//! §7 of the paper notes that KV-cache quantization methods (CacheGen, KIVI,
//! …) "can be applied in HCache to reduce the size of hidden states". This
//! module provides the simplest sound variant: symmetric per-row int8
//! quantization (one f32 scale per token row). It halves storage and IO
//! relative to fp16 at the cost of bounded quantization error, which
//! `tests/extensions.rs` bounds end to end (restored KV and generated
//! tokens).
//!
//! Wire format per row: 4-byte little-endian f32 scale, then `width` i8
//! values; `x ≈ scale * q` with `q ∈ [-127, 127]`.

/// Bytes per stored element (excluding the per-row scale).
pub const BYTES_PER_ELEM: usize = 1;

/// Encoded size of `rows` rows of `width` elements.
pub fn encoded_len(rows: usize, width: usize) -> usize {
    rows * (4 + width * BYTES_PER_ELEM)
}

/// Quantizes row-major `xs` (`rows × width`) to the int8 wire format.
///
/// # Panics
/// Panics when `xs.len()` is not a multiple of `width`.
pub fn encode_int8(xs: &[f32], width: usize) -> Vec<u8> {
    assert!(width > 0, "width must be positive");
    assert_eq!(xs.len() % width, 0, "ragged rows");
    let rows = xs.len() / width;
    let mut out = Vec::with_capacity(encoded_len(rows, width));
    for row in xs.chunks_exact(width) {
        let max_abs = row.iter().fold(0.0_f32, |m, v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        out.extend_from_slice(&scale.to_le_bytes());
        for &v in row {
            let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
            out.push(q as u8);
        }
    }
    out
}

/// Decodes the int8 wire format back to f32 rows.
///
/// # Panics
/// Panics when the byte stream is not a whole number of `width`-rows.
pub fn decode_int8(bytes: &[u8], width: usize) -> Vec<f32> {
    assert!(width > 0, "width must be positive");
    let row_bytes = 4 + width;
    assert_eq!(bytes.len() % row_bytes, 0, "truncated int8 stream");
    let rows = bytes.len() / row_bytes;
    let mut out = Vec::with_capacity(rows * width);
    for row in bytes.chunks_exact(row_bytes) {
        let scale = f32::from_le_bytes([row[0], row[1], row[2], row[3]]);
        for &b in &row[4..] {
            out.push((b as i8) as f32 * scale);
        }
    }
    out
}

/// Round-trip error bound for one row: `|x - dec(enc(x))| <= max|row| / 254`
/// (half a quantization step).
pub fn row_error_bound(row: &[f32]) -> f32 {
    let max_abs = row.iter().fold(0.0_f32, |m, v| m.max(v.abs()));
    max_abs / 254.0 + f32::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_exact_for_scale_multiples() {
        // Values that are exact multiples of the scale survive unchanged.
        let xs = vec![127.0, -127.0, 0.0, 64.0, -1.0];
        let back = decode_int8(&encode_int8(&xs, 5), 5);
        assert_eq!(back, xs);
    }

    #[test]
    fn error_bounded_by_half_step() {
        let xs: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let back = decode_int8(&encode_int8(&xs, 16), 16);
        for (chunk, dchunk) in xs.chunks(16).zip(back.chunks(16)) {
            let bound = row_error_bound(chunk);
            for (a, b) in chunk.iter().zip(dchunk.iter()) {
                assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
            }
        }
    }

    #[test]
    fn all_zero_row_roundtrips() {
        let xs = vec![0.0; 8];
        assert_eq!(decode_int8(&encode_int8(&xs, 8), 8), xs);
    }

    #[test]
    fn encoded_size_is_half_of_f16_plus_scale() {
        // 64 rows of 4096: f16 = 512 KiB; int8 = 256 KiB + 64 scales.
        let f16 = 64 * 4096 * 2;
        let int8 = encoded_len(64, 4096);
        assert_eq!(int8, 64 * (4 + 4096));
        assert!((int8 as f64) < 0.51 * f16 as f64);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_input_rejected() {
        let _ = encode_int8(&[1.0; 7], 4);
    }

    #[test]
    #[should_panic(expected = "truncated int8 stream")]
    fn truncated_stream_rejected() {
        let _ = decode_int8(&[0u8; 9], 8);
    }

    proptest! {
        #[test]
        fn roundtrip_error_within_bound(
            row in proptest::collection::vec(-100.0f32..100.0, 1..64)
        ) {
            let w = row.len();
            let back = decode_int8(&encode_int8(&row, w), w);
            let bound = row_error_bound(&row);
            for (a, b) in row.iter().zip(back.iter()) {
                prop_assert!((a - b).abs() <= bound, "{} vs {} bound {}", a, b, bound);
            }
        }

        #[test]
        fn quantization_is_idempotent(
            row in proptest::collection::vec(-10.0f32..10.0, 1..32)
        ) {
            let w = row.len();
            let once = decode_int8(&encode_int8(&row, w), w);
            let twice = decode_int8(&encode_int8(&once, w), w);
            for (a, b) in once.iter().zip(twice.iter()) {
                prop_assert!((a - b).abs() <= 1e-4 * a.abs().max(1.0));
            }
        }
    }
}
