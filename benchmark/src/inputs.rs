//! Seeded inputs. Everything the system is fed — prompts, lengths, slot
//! picks, Poisson due times — is generated here from `--seed` through
//! `hc-workload`; the system under test sees only the generated values. The
//! FNV hash of the whole list is printed with every run so two runs can be
//! shown to have had identical inputs.

use hc_workload::arrival::poisson_arrivals;
use hc_workload::leval;
use hc_workload::rng::Rng;
use hc_workload::sharegpt::{self, ShareGptConfig};
use hc_workload::zipf::Zipf;

use crate::fixture::{bench_llama, Shape, Workload};

/// Ops generated for a closed loop. The loop stops on time, not on count; a
/// host fast enough to exhaust the list wraps around.
const CLOSED_LOOP_OPS: usize = 2048;
/// Replacement-session prompts generated (used cyclically).
const FRESH_PROMPTS: usize = 64;

/// One request: a user message for the session in `slot`.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub slot: usize,
    pub prompt: Vec<u32>,
    pub n_gen: usize,
    /// Open loop: seconds after the phase starts at which the request is
    /// due. Closed loop: 0.
    pub due_s: f64,
}

/// A run of ops at one arrival rate (closed loop: one phase, rate 0).
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub rate: f64,
    pub horizon_s: f64,
    pub ops: Vec<Op>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// First-round prompt of each slot's initial session; its length is the
    /// slot's initial history.
    pub initial: Vec<Vec<u32>>,
    /// First-round prompts of replacement sessions.
    pub fresh: Vec<Vec<u32>>,
    /// Rounds `(prompt, n_generate)` of the losslessness gate's session.
    pub gate: Vec<(Vec<u32>, usize)>,
    pub phases: Vec<Phase>,
}

fn tokens(rng: &mut Rng, n: usize) -> Vec<u32> {
    let vocab = bench_llama().vocab_size as u64;
    (0..n).map(|_| rng.below(vocab) as u32).collect()
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// Initial history lengths: one per stratum of `[lo, hi)`, jittered inside
/// its stratum, so every seed draws a different sample of the same
/// distribution. `order[i]` is the stratum slot `i` gets.
fn stratified_lengths(rng: &mut Rng, shape: &Shape, order: &[usize]) -> Vec<usize> {
    let width = (shape.init_hi - shape.init_lo) as f64 / shape.slots as f64;
    order
        .iter()
        .map(|&k| shape.init_lo + ((k as f64 + rng.uniform()) * width) as usize)
        .collect()
}

/// Per-round `(prompt tokens, generated tokens)` lengths of a workload.
fn round_lengths(workload: Workload, seed: u64, n: usize) -> Vec<(usize, usize)> {
    match workload {
        // ShareGPT-like: input ÷8 clipped to [4, 32], output ÷48 clipped
        // to [2, 12] (a decode step costs ~7 ms; longer outputs would
        // leave too few rounds behind a p90).
        Workload::ChatMem => {
            let mut out = Vec::with_capacity(n);
            let mut salt = 0;
            while out.len() < n {
                let sessions = sharegpt::generate_sessions(
                    256,
                    &ShareGptConfig::default(),
                    seed.wrapping_add(salt),
                );
                out.extend(sharegpt::all_requests(&sessions).iter().map(|r| {
                    (
                        (r.input_tokens as usize / 8).clamp(4, 32),
                        (r.output_tokens as usize / 48).clamp(2, 12),
                    )
                }));
                salt += 1;
            }
            out.truncate(n);
            out
        }
        // Short prompts, long generations: the save path is the subject.
        Workload::ChatFileSave => vec![(8, 16); n],
        // L-Eval-like: a short instruction and a short answer on top of a
        // long context.
        Workload::LongctxSsd => leval::generate_requests(&leval::LEVAL_AVG, n, 32 * 1024, seed)
            .iter()
            .map(|r| {
                (
                    (r.input_tokens as usize / 4).clamp(4, 16),
                    (r.output_tokens as usize / 16).clamp(1, 4),
                )
            })
            .collect(),
        Workload::ArrivalsQuotaSsd => vec![(4, 1); n],
    }
}

/// Generates the inputs of one run. `traced` only matters to the open
/// loop: the untraced run spends its whole window at the middle rate, the
/// traced run sweeps the three rates.
pub fn generate(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x0068_6362_656e_6368); // "hcbench"

    let order = match shape.rates {
        // Open loop: slot = popularity rank, so spread the strata evenly
        // over the ranks instead of letting the seed decide whether the
        // hottest session is the longest one.
        Some(_) => {
            let stride = [7, 5, 3, 1]
                .into_iter()
                .find(|s| gcd(*s, shape.slots) == 1)
                .expect("1 is coprime with everything");
            (0..shape.slots).map(|i| i * stride % shape.slots).collect()
        }
        None => shuffled(&mut rng, shape.slots),
    };
    let initial: Vec<Vec<u32>> = stratified_lengths(&mut rng, shape, &order)
        .into_iter()
        .map(|n| tokens(&mut rng, n))
        .collect();
    let fresh = (0..FRESH_PROMPTS)
        .map(|_| tokens(&mut rng, shape.fresh_len))
        .collect();
    let gate = shape
        .gate_rounds
        .iter()
        .map(|&(p, g)| (tokens(&mut rng, p), g))
        .collect();

    let phases = match shape.rates {
        None => {
            let lengths = round_lengths(workload, seed, CLOSED_LOOP_OPS);
            let mut ops = Vec::with_capacity(CLOSED_LOOP_OPS);
            // One client visiting the sessions in shuffled rounds: every
            // session is touched once per cycle.
            while ops.len() < CLOSED_LOOP_OPS {
                for slot in shuffled(&mut rng, shape.slots) {
                    let (p, g) = lengths[ops.len() % lengths.len()];
                    ops.push(Op {
                        slot,
                        prompt: tokens(&mut rng, p),
                        n_gen: g,
                        due_s: 0.0,
                    });
                }
            }
            ops.truncate(CLOSED_LOOP_OPS);
            vec![Phase {
                rate: 0.0,
                horizon_s: seconds,
                ops,
            }]
        }
        Some(rates) => {
            let zipf = Zipf::new(shape.slots, 1.0);
            let sweep: Vec<f64> = if traced {
                rates.to_vec()
            } else {
                vec![rates[1]]
            };
            let horizon_s = seconds / sweep.len() as f64;
            sweep
                .into_iter()
                .enumerate()
                .map(|(i, rate)| {
                    let dues = poisson_arrivals(rate, horizon_s, seed.wrapping_add(1 + i as u64));
                    let lengths = round_lengths(workload, seed, dues.len());
                    let ops = dues
                        .into_iter()
                        .zip(lengths)
                        .map(|(due_s, (p, g))| Op {
                            slot: zipf.sample(&mut rng),
                            prompt: tokens(&mut rng, p),
                            n_gen: g,
                            due_s,
                        })
                        .collect();
                    Phase {
                        rate,
                        horizon_s,
                        ops,
                    }
                })
                .collect()
        }
    };

    Inputs {
        initial,
        fresh,
        gate,
        phases,
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// FNV-1a over every generated value.
pub fn fnv_hash(inputs: &Inputs) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn u64(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn tokens(&mut self, ts: &[u32]) {
            self.u64(ts.len() as u64);
            for &t in ts {
                self.u64(t as u64);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for list in [&inputs.initial, &inputs.fresh] {
        h.u64(list.len() as u64);
        for p in list {
            h.tokens(p);
        }
    }
    for (p, g) in &inputs.gate {
        h.tokens(p);
        h.u64(*g as u64);
    }
    for phase in &inputs.phases {
        h.u64(phase.rate.to_bits());
        h.u64(phase.horizon_s.to_bits());
        h.u64(phase.ops.len() as u64);
        for op in &phase.ops {
            h.u64(op.slot as u64);
            h.u64(op.n_gen as u64);
            h.u64(op.due_s.to_bits());
            h.tokens(&op.prompt);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        for w in Workload::ALL {
            let shape = w.shape(true);
            let a = generate(w, &shape, 11, 2.0, false);
            let b = generate(w, &shape, 11, 2.0, false);
            let c = generate(w, &shape, 12, 2.0, false);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(fnv_hash(&a), fnv_hash(&b), "{}", w.name());
            assert_ne!(fnv_hash(&a), fnv_hash(&c), "{}", w.name());
        }
    }

    #[test]
    fn inputs_respect_the_shape() {
        for w in Workload::ALL {
            for tiny in [false, true] {
                let shape = w.shape(tiny);
                let inputs = generate(w, &shape, 3, 3.0, true);
                assert_eq!(inputs.initial.len(), shape.slots);
                for p in &inputs.initial {
                    assert!((shape.init_lo..shape.init_hi).contains(&p.len()));
                }
                // Strata: sorted lengths are spread over the whole range.
                let mut lens: Vec<usize> = inputs.initial.iter().map(Vec::len).collect();
                lens.sort_unstable();
                let width = (shape.init_hi - shape.init_lo) / shape.slots;
                assert!(lens.windows(2).all(|p| p[1] - p[0] <= 2 * width));
                for phase in &inputs.phases {
                    assert!(!phase.ops.is_empty());
                    for op in &phase.ops {
                        assert!(op.slot < shape.slots);
                        assert!(!op.prompt.is_empty() && op.n_gen >= 1);
                        assert!(op.prompt.len() + op.n_gen + shape.fresh_len < shape.cap);
                        assert!(op.due_s <= phase.horizon_s);
                    }
                    assert!(phase.ops.windows(2).all(|p| p[0].due_s <= p[1].due_s));
                }
                assert_eq!(
                    inputs.phases.len(),
                    if shape.rates.is_some() { 3 } else { 1 }
                );
            }
        }
    }

    #[test]
    fn closed_loop_visits_every_slot_each_cycle() {
        let w = Workload::ChatMem;
        let shape = w.shape(false);
        let inputs = generate(w, &shape, 5, 1.0, false);
        for cycle in inputs.phases[0].ops.chunks_exact(shape.slots) {
            let mut seen: Vec<usize> = cycle.iter().map(|op| op.slot).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..shape.slots).collect::<Vec<_>>());
        }
    }
}
