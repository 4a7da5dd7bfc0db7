//! Host descriptor and ceilings, printed with every traced run so numbers
//! from different hosts can be told apart.

use std::hint::black_box;
use std::time::{Duration, Instant};

use super::{time_calls, Values};
use crate::stats::{median, tail};

pub fn probe() -> Values {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Copy bandwidth: the ceiling for the f16 codec and for MemStore IO.
    const COPY_BYTES: usize = 16 << 20;
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let copy_s = median(&time_calls(7, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }));

    // One core's multiply-add rate on independent f32 accumulators: the
    // ceiling for the projection GEMM's microkernel.
    const LANES: usize = 64;
    const ITERS: usize = 2_000_000;
    let (a, b) = (black_box(1.000_000_1_f32), black_box(1e-7_f32));
    let mut acc = [1.0_f32; LANES];
    let t = Instant::now();
    for _ in 0..ITERS {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    black_box(&acc);
    let fma_s = t.elapsed().as_secs_f64();

    // How far `sleep` overshoots: the error bar on `LatencyStore`'s
    // modelled service times.
    let ask = Duration::from_micros(500);
    let overshoot_us: Vec<f64> = time_calls(100, || std::thread::sleep(ask))
        .into_iter()
        .map(|s| (s - ask.as_secs_f64()) * 1e6)
        .collect();

    vec![
        ("host.cores", cores as f64),
        ("host.memcpy_gbps", COPY_BYTES as f64 / copy_s / 1e9),
        ("host.fma_gflops", (2 * LANES * ITERS) as f64 / fma_s / 1e9),
        ("host.sleep_overshoot_us_p90", tail(&overshoot_us, 0.9)),
    ]
}
