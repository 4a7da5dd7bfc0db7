//! IEEE-754 binary16 (half precision) codec.
//!
//! The paper stores hidden states and KV cache in fp16 (2 bytes/element);
//! storage sizes and IO volumes in every experiment derive from that. The
//! storage crate serializes activations through this codec so that on-disk
//! bytes are faithful to the paper's state sizes, and so that tests can
//! quantify the (tiny) fp16 round-trip error separately from algorithmic
//! error.
//!
//! Implemented from the bit layout directly — no external `half` dependency.

/// Converts an `f32` to its nearest binary16 bit pattern (round-to-nearest-
/// even), with overflow mapping to infinity.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf or NaN.
        let mant16 = if mant != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | mant16;
    }

    // Re-bias exponent from f32 (127) to f16 (15).
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7c00; // overflow -> inf
    }
    if unbiased >= -14 {
        // Normal f16. Keep 10 mantissa bits, round to nearest even on the
        // remaining 13.
        let exp16 = (unbiased + 15) as u32;
        let mant16 = mant >> 13;
        let round_bits = mant & 0x1fff;
        let mut out = ((exp16 << 10) | mant16) as u16;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (mant16 & 1) == 1) {
            out += 1; // may carry into exponent, which is still correct
        }
        return sign | out;
    }
    if unbiased >= -25 {
        // Subnormal f16.
        let full_mant = mant | 0x0080_0000; // implicit leading 1
        let shift = (-14 - unbiased + 13) as u32;
        let mant16 = full_mant >> shift;
        let rem = full_mant & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut out = mant16 as u16;
        if rem > half || (rem == half && (mant16 & 1) == 1) {
            out += 1;
        }
        return sign | out;
    }
    sign // underflow -> signed zero
}

/// Converts a binary16 bit pattern to `f32` exactly.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;

    let bits = if exp == 0 {
        if mant == 0 {
            sign // signed zero
        } else {
            // Subnormal: normalize into f32.
            let mut m = mant;
            let mut e = -14i32;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            sign | (((e + 127) as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13) // inf / NaN
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Quantizes through f16 and back — the value a stored activation will have
/// after a save/restore round trip.
#[inline]
pub fn f16_roundtrip(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Encodes a slice of f32 into little-endian f16 bytes (2 bytes/element).
pub fn encode_f16(xs: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * 2);
    for &x in xs {
        out.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
    }
    out
}

/// Decodes little-endian f16 bytes back into f32.
///
/// # Panics
/// Panics if `bytes.len()` is odd.
pub fn decode_f16(bytes: &[u8]) -> Vec<f32> {
    decode_f16_par(bytes, &crate::ParallelConfig::serial())
}

/// [`encode_f16`] with elements converted in parallel under `par`'s thread
/// budget. Conversion is element-wise, so the output is byte-identical to
/// the serial encoder for every thread count.
pub fn encode_f16_par(xs: &[f32], par: &crate::ParallelConfig) -> Vec<u8> {
    if par.is_serial() {
        return encode_f16(xs);
    }
    let mut out = vec![0u8; xs.len() * BYTES_PER_ELEM];
    par.run_row_blocks(&mut out, xs.len(), BYTES_PER_ELEM, |e0, chunk| {
        for (x, b) in xs[e0..].iter().zip(chunk.chunks_exact_mut(BYTES_PER_ELEM)) {
            b.copy_from_slice(&f32_to_f16_bits(*x).to_le_bytes());
        }
    });
    out
}

/// [`decode_f16`] with elements converted in parallel under `par`'s thread
/// budget. Byte-identical to the serial decoder for every thread count.
///
/// # Panics
/// Panics if `bytes.len()` is odd.
pub fn decode_f16_par(bytes: &[u8], par: &crate::ParallelConfig) -> Vec<f32> {
    let mut out = vec![0.0_f32; bytes.len() / BYTES_PER_ELEM];
    decode_f16_into(bytes, &mut out, par);
    out
}

/// Decodes little-endian f16 `bytes` straight into `out`, one element per
/// two bytes, under `par`'s thread budget — the one decode body behind
/// [`decode_f16`] and [`decode_f16_par`]. Conversion is element-wise, so
/// the result is identical for every thread count and every placement of
/// `out`.
///
/// # Panics
/// Panics if `bytes.len() != 2 * out.len()` (so on any odd length).
pub fn decode_f16_into(bytes: &[u8], out: &mut [f32], par: &crate::ParallelConfig) {
    let n = out.len();
    let msg = "f16 byte stream must have even length, two bytes per element of `out`";
    assert_eq!(bytes.len(), n * BYTES_PER_ELEM, "{msg}");
    par.run_row_blocks(out, n, 1, |e0, chunk| {
        let src = &bytes[e0 * BYTES_PER_ELEM..];
        for (dst, c) in chunk.iter_mut().zip(src.chunks_exact(BYTES_PER_ELEM)) {
            *dst = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]));
        }
    });
}

/// Bytes needed to store `n` f16 elements.
pub const BYTES_PER_ELEM: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(f16_roundtrip(x), x, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16::MAX
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(1e10), 0x7c00); // overflow
    }

    #[test]
    fn nan_stays_nan() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn subnormals_roundtrip() {
        let tiny = 5.96e-8_f32; // smallest positive f16 subnormal ~ 2^-24
        let rt = f16_roundtrip(tiny);
        assert!(rt > 0.0 && (rt - tiny).abs() / tiny < 0.5);
        // Deep underflow flushes to zero.
        assert_eq!(f16_roundtrip(1e-30), 0.0);
    }

    #[test]
    fn encode_decode_roundtrip_bytes() {
        let xs = vec![0.5, -1.25, 3.0, 100.0, -0.0078125];
        let bytes = encode_f16(&xs);
        assert_eq!(bytes.len(), xs.len() * BYTES_PER_ELEM);
        let back = decode_f16(&bytes);
        for (a, b) in xs.iter().zip(back.iter()) {
            assert_eq!(f16_roundtrip(*a), *b);
        }
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn decode_rejects_odd_length() {
        let _ = decode_f16(&[1, 2, 3]);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between two f16 values around 1.0;
        // round-to-even keeps the even mantissa (1.0).
        let halfway = 1.0 + 2f32.powi(-11);
        assert_eq!(f16_roundtrip(halfway), 1.0);
        // Slightly above the halfway point must round up.
        let above = 1.0 + 2f32.powi(-11) + 2f32.powi(-13);
        assert_eq!(f16_roundtrip(above), 1.0 + 2f32.powi(-10));
    }

    #[test]
    fn parallel_codec_is_byte_identical_across_thread_counts() {
        let xs: Vec<f32> = (0..1000)
            .map(|i| (i as f32 - 500.0) * 0.37 + 1.0 / (i + 1) as f32)
            .collect();
        let serial_bytes = encode_f16(&xs);
        let serial_back = decode_f16(&serial_bytes);
        for threads in 1..=8 {
            let par = crate::ParallelConfig::new(threads);
            assert_eq!(encode_f16_par(&xs, &par), serial_bytes, "{threads} threads");
            assert_eq!(
                decode_f16_par(&serial_bytes, &par),
                serial_back,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn decode_into_equals_the_scalar_decode_on_every_half_pattern() {
        // All 65 536 binary16 patterns, decoded serially and at 2 and 3
        // threads into a window of a larger buffer whose neighbours must
        // stay untouched; NaNs compare by bits.
        let bytes: Vec<u8> = (0..=u16::MAX).flat_map(|h| h.to_le_bytes()).collect();
        let want: Vec<u32> = (0..=u16::MAX)
            .map(|h| f16_bits_to_f32(h).to_bits())
            .collect();
        let (lead, n) = (3, want.len());
        for threads in [1, 2, 3] {
            let mut buf = vec![-7.5_f32; lead + n + 5];
            decode_f16_into(
                &bytes,
                &mut buf[lead..lead + n],
                &crate::ParallelConfig::new(threads),
            );
            let got: Vec<u32> = buf[lead..lead + n].iter().map(|x| x.to_bits()).collect();
            assert!(got == want, "{threads} threads");
            assert!(buf[..lead]
                .iter()
                .chain(&buf[lead + n..])
                .all(|&x| x == -7.5));
        }
        let bits = |xs: Vec<f32>| xs.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        assert!(bits(decode_f16(&bytes)) == want);
        for threads in [2, 3] {
            let par = crate::ParallelConfig::new(threads);
            assert!(bits(decode_f16_par(&bytes, &par)) == bits(decode_f16(&bytes)));
        }
    }

    proptest! {
        #[test]
        fn roundtrip_relative_error_bounded(x in -60000.0f32..60000.0) {
            let rt = f16_roundtrip(x);
            if x.abs() > 1e-4 {
                // f16 has 11 significand bits -> rel err <= 2^-11.
                prop_assert!(((rt - x) / x).abs() <= 4.9e-4, "x={x} rt={rt}");
            }
        }

        #[test]
        fn roundtrip_is_idempotent(x in -60000.0f32..60000.0) {
            let once = f16_roundtrip(x);
            let twice = f16_roundtrip(once);
            prop_assert_eq!(once.to_bits(), twice.to_bits());
        }

        #[test]
        fn encode_preserves_order_after_decode(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
            // f16 rounding is monotone.
            let (x, y) = (f16_roundtrip(a), f16_roundtrip(b));
            if a <= b {
                prop_assert!(x <= y);
            }
        }
    }
}
