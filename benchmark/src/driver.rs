//! The one driver thread: set-up, the per-op service routine both loops
//! share, the closed loop and the open loop. Every call into the system goes
//! through the `HCacheSystem` facade and is wrapped in a span.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hc_cachectl::placement::Placement;
use hc_cachectl::ControllerConfig;
use hc_sched::partition::LayerMethod;
use hc_storage::backend::StoreStats;
use hcache::HCacheSystem;

use crate::fixture::{bench_llama, par, Backend, Shape, Workload, MODEL_SEED};
use crate::inputs::{Inputs, Op, Phase};
use crate::replay;
use crate::trace::Tracer;

/// `benchmark/out/`: the only place the harness writes.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = Path::new(&manifest).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A directory under `benchmark/out/` removed again on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: a unique suffix, nothing else is published through it.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a temp directory under benchmark/out");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A built system with its live sessions. Field order matters: the system
/// (and its saver thread) goes before the directory it writes to.
pub struct Bench<S: Backend> {
    pub sys: HCacheSystem<S>,
    pub shape: Shape,
    /// Session id per slot.
    pub sessions: Vec<u64>,
    pub quota_bytes: Option<u64>,
    fresh_cursor: usize,
    _dir: TempDir,
}

/// Stored bytes per token of a method mix.
pub fn mix_bytes_per_token(methods: &[LayerMethod]) -> u64 {
    let cfg = bench_llama();
    Placement::from_methods(methods.to_vec()).bytes_per_token(cfg.d_model, cfg.elem_bytes)
}

/// Builds the backend and the system, then opens every slot's session with
/// its initial history (one first round per session). This is what
/// `setup_s` times.
pub fn setup<S: Backend>(workload: Workload, shape: &Shape, inputs: &Inputs) -> Bench<S> {
    let cfg = bench_llama();
    let scheme = workload.scheme();
    let per_token = mix_bytes_per_token(&scheme.layer_methods(cfg.n_layers));
    let working_set: u64 = inputs
        .initial
        .iter()
        .map(|p| (p.len() as u64 + 1) * per_token)
        .sum();
    let quota_bytes = shape.quota_share.map(|s| (working_set as f64 * s) as u64);
    let front_bytes = (working_set as f64 * shape.front_share) as u64;

    let dir = TempDir::new("store");
    let store = S::build(shape, dir.path(), front_bytes);
    let ctl = quota_bytes
        .map_or_else(ControllerConfig::unlimited, ControllerConfig::with_quota)
        .with_expected_tokens(((shape.init_lo + shape.init_hi) / 2) as u64);
    let mut sys = HCacheSystem::with_store_parallel(&cfg, MODEL_SEED, store, scheme, par())
        .with_cache_controller(ctl);

    // Coldest slot first: under a quota the LRU then demotes the sessions
    // the open loop asks for least, so the timed phase starts from the
    // steady state instead of from a cold cache.
    let mut sessions = vec![0; shape.slots];
    for slot in (0..shape.slots).rev() {
        let sid = sys.open_session();
        sys.round(sid, &inputs.initial[slot], 1)
            .expect("set-up round");
        sessions[slot] = sid;
    }
    Bench {
        sys,
        shape: shape.clone(),
        sessions,
        quota_bytes,
        fresh_cursor: 0,
        _dir: dir,
    }
}

impl<S: Backend> Bench<S> {
    /// Method mix the session is currently cached under.
    pub fn methods(&self, sid: u64) -> Vec<LayerMethod> {
        self.sys
            .controller()
            .expect("every workload attaches a controller")
            .session_methods(sid)
            .expect("live session")
    }

    /// Σ context tokens over the live sessions.
    pub fn live_tokens(&self) -> u64 {
        self.sessions
            .iter()
            .map(|&sid| self.sys.context_len(sid).expect("live session") as u64)
            .sum()
    }
}

/// Everything one run measures, before it is boiled down to metrics.
#[derive(Default)]
pub struct Samples {
    pub ttfr_ms: Vec<f64>,
    pub ttft_ms: Vec<f64>,
    pub round_ms: Vec<f64>,
    /// Open loop only: TTFT counted from the request's due time, so the
    /// wait behind earlier requests is in it.
    pub ttft_due_ms: Vec<f64>,
    /// `(restore wall, tokens restored)` summed over the ops served with
    /// span recording on and over the control ops served with it off (the
    /// traced run alternates).
    pub traced_restores: (f64, u64),
    pub control_restores: (f64, u64),
    pub restore_wall_s: f64,
    pub restored_tokens: u64,
    pub round_wall_s: f64,
    pub generated_tokens: u64,
    /// Σ over rounds of what the round's parts cost when timed alone: the
    /// op's own probe restore and probe prefill (same session, same
    /// prompt); the decode, save and flush terms are added from the probes.
    pub round_parts_s: f64,
    pub logical_read_bytes: u64,
    pub logical_write_bytes: u64,
    pub io: IoDelta,
    /// Per-device modelled service time reserved during probe restores.
    pub device_busy: Vec<Duration>,
    pub queue_wait_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub backlog_end: u64,
    pub admissions: u64,
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Default, Clone, Copy)]
pub struct IoDelta {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl IoDelta {
    fn add(&mut self, before: &StoreStats, after: &StoreStats) {
        self.reads += after.total_reads() - before.total_reads();
        self.writes += after.total_writes() - before.total_writes();
        self.bytes_read += after.total_bytes_read() - before.total_bytes_read();
        self.bytes_written += after.total_bytes_written() - before.total_bytes_written();
    }
}

impl Samples {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hcbench: FAILED check: {what}");
        }
    }
}

/// Serves one request: replace the session if it would outgrow the cap,
/// run the TTFT probe (`restore` → `prefill_par` → `greedy_next_token`),
/// drop that KV, then run the real `round`. `ttfr`/`ttft` count from the
/// start of service; `due` (open loop) is when the request was due, from
/// which `ttft_due_ms` counts.
pub fn serve<S: Backend>(
    bench: &mut Bench<S>,
    inputs: &Inputs,
    op: &Op,
    request: u64,
    due: Option<Instant>,
    tracer: &mut Tracer,
    samples: &mut Samples,
) {
    let io_before = bench.sys.io_stats();
    tracer.request(request, |tracer| {
        let mut sid = bench.sessions[op.slot];
        let ctx = bench.sys.context_len(sid).expect("live session");
        if ctx + op.prompt.len() + op.n_gen > bench.shape.cap {
            // Admission of a replacement session; its first round is
            // maintenance, not a sample.
            let prompt = &inputs.fresh[bench.fresh_cursor % inputs.fresh.len()];
            bench.fresh_cursor += 1;
            let (res, _) = tracer.time("core.admit", |_| {
                bench.sys.close_session(sid)?;
                let fresh = bench.sys.open_session();
                bench.sys.round(fresh, prompt, 1).map(|_| fresh)
            });
            match res {
                Ok(fresh) => {
                    sid = fresh;
                    bench.sessions[op.slot] = fresh;
                    samples.admissions += 1;
                }
                Err(e) => {
                    samples.check(false, &format!("admission failed: {e}"));
                    return;
                }
            }
        }

        let ctx = bench.sys.context_len(sid).expect("live session");
        let per_token = mix_bytes_per_token(&bench.methods(sid));
        let origin = Instant::now();
        let store = bench.sys.storage().store();

        // TTFT probe.
        let busy_before = store.device_busy();
        let (restored, restore_s) = tracer.time("core.restore", |_| bench.sys.restore(sid));
        let ttfr_ms = origin.elapsed().as_secs_f64() * 1e3;
        if let (Some(before), Some(after)) = (busy_before, store.device_busy()) {
            samples.device_busy.resize(after.len(), Duration::ZERO);
            for (acc, (a, b)) in samples
                .device_busy
                .iter_mut()
                .zip(after.iter().zip(&before))
            {
                *acc += *a - *b;
            }
        }
        let mut kv = match restored {
            Ok(kv) if kv.n_tokens() == ctx => kv,
            Ok(kv) => {
                let got = kv.n_tokens();
                samples.check(false, &format!("restore returned {got} of {ctx} tokens"));
                return;
            }
            Err(e) => {
                samples.check(false, &format!("restore failed: {e}"));
                return;
            }
        };
        let (_, prefill_s) = tracer.time("core.prefill_probe", |_| {
            let model = bench.sys.model();
            let out = model.prefill_par(&op.prompt, &mut kv, false, &par());
            let last = out.final_hidden.row(op.prompt.len() - 1);
            std::hint::black_box(model.greedy_next_token(last))
        });
        let ttft_ms = origin.elapsed().as_secs_f64() * 1e3;
        drop(kv);

        // The real round.
        let (generated, round_s) =
            tracer.time("core.round", |_| bench.sys.round(sid, &op.prompt, op.n_gen));
        match generated {
            Ok(g) if g.len() == op.n_gen => {}
            Ok(g) => {
                let got = g.len();
                samples.check(
                    false,
                    &format!("round generated {got} of {} tokens", op.n_gen),
                );
                return;
            }
            Err(e) => {
                samples.check(false, &format!("round failed: {e}"));
                return;
            }
        }

        samples.check(true, "op");
        samples.ttfr_ms.push(ttfr_ms);
        samples.ttft_ms.push(ttft_ms);
        if let Some(due) = due {
            let waited = origin.saturating_duration_since(due);
            samples
                .ttft_due_ms
                .push(ttft_ms + waited.as_secs_f64() * 1e3);
        }
        samples.round_ms.push(round_s * 1e3);
        let half = if tracer.recording() {
            &mut samples.traced_restores
        } else {
            &mut samples.control_restores
        };
        half.0 += restore_s;
        half.1 += ctx as u64;
        samples.restore_wall_s += restore_s;
        samples.restored_tokens += ctx as u64;
        samples.round_wall_s += round_s;
        samples.generated_tokens += op.n_gen as u64;
        samples.round_parts_s += restore_s + prefill_s;
        // The probe and the round each restore the whole history.
        samples.logical_read_bytes += 2 * ctx as u64 * per_token;
        samples.logical_write_bytes += (op.prompt.len() + op.n_gen) as u64 * per_token;
    });
    samples.io.add(&io_before, &bench.sys.io_stats());
}

/// Closed loop, one client: the next request is sent when the previous one
/// completes. Runs until `phase.horizon_s` has passed. In a traced run
/// every other op records spans (the rest are the control) and every
/// `replay_every`-th traced op is followed by the stepwise replay.
pub fn closed_loop<S: Backend>(
    bench: &mut Bench<S>,
    inputs: &Inputs,
    phase: &Phase,
    traced: bool,
    tracer: &mut Tracer,
    samples: &mut Samples,
) {
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < phase.horizon_s {
        let op = &phase.ops[i % phase.ops.len()];
        let record = traced && i.is_multiple_of(2);
        tracer.set_recording(record);
        serve(bench, inputs, op, i as u64, None, tracer, samples);
        if record && (i / 2).is_multiple_of(bench.shape.replay_every) {
            let sid = bench.sessions[op.slot];
            replay::replay(bench, sid, i as u64, tracer, samples);
        }
        i += 1;
    }
    tracer.set_recording(false);
}

/// Time as the open loop sees it; faked in tests.
pub trait Clock {
    /// Seconds since the phase started.
    fn now(&self) -> f64;
    fn wait_until(&mut self, t: f64);
}

pub struct RealClock {
    pub t0: Instant,
}

impl RealClock {
    pub fn instant_at(&self, t: f64) -> Instant {
        self.t0 + Duration::from_secs_f64(t)
    }
}

impl Clock for RealClock {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn wait_until(&mut self, t: f64) {
        // Sleep most of the way, spin the last stretch: `sleep` overshoots
        // by tens of microseconds and that would read as generator
        // lateness.
        const SPIN: f64 = 300e-6;
        let left = t - self.now();
        if left > SPIN {
            std::thread::sleep(Duration::from_secs_f64(left - SPIN));
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// When one open-loop request was due, began service and finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Served {
    pub due_s: f64,
    pub start_s: f64,
    pub end_s: f64,
    /// True when the server was idle at the due time (the generator, not
    /// the queue, decided the start).
    pub waited: bool,
}

/// Open loop: requests are due on a schedule whatever the server is doing
/// and are served first-in first-out by the one driver thread, so a slow
/// request delays everyone queued behind it. Every request is served (the
/// backlog is drained past the horizon, never dropped).
pub fn open_loop<C: Clock>(
    clock: &mut C,
    dues: &[f64],
    mut serve: impl FnMut(&mut C, usize),
) -> Vec<Served> {
    dues.iter()
        .enumerate()
        .map(|(i, &due_s)| {
            let waited = clock.now() < due_s;
            if waited {
                clock.wait_until(due_s);
            }
            let start_s = clock.now();
            serve(clock, i);
            Served {
                due_s,
                start_s,
                end_s: clock.now(),
                waited,
            }
        })
        .collect()
}

/// Requests that had not begun service when the phase's horizon passed.
pub fn backlog_at(served: &[Served], horizon_s: f64) -> u64 {
    served.iter().filter(|s| s.start_s > horizon_s).count() as u64
}

/// Runs one open-loop phase against the system.
pub fn open_loop_phase<S: Backend>(
    bench: &mut Bench<S>,
    inputs: &Inputs,
    phase: &Phase,
    request_base: u64,
    traced: bool,
    tracer: &mut Tracer,
    samples: &mut Samples,
) {
    let dues: Vec<f64> = phase.ops.iter().map(|op| op.due_s).collect();
    let mut clock = RealClock { t0: Instant::now() };
    let served = open_loop(&mut clock, &dues, |clock, i| {
        tracer.set_recording(traced && i % 2 == 0);
        let due = clock.instant_at(phase.ops[i].due_s);
        let request = request_base + i as u64;
        serve(
            bench,
            inputs,
            &phase.ops[i],
            request,
            Some(due),
            tracer,
            samples,
        );
    });
    tracer.set_recording(false);
    for s in &served {
        samples.queue_wait_ms.push((s.start_s - s.due_s) * 1e3);
        if s.waited {
            samples.lateness_ms.push((s.start_s - s.due_s) * 1e3);
        }
    }
    samples.backlog_end = backlog_at(&served, phase.horizon_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Virtual time: waiting jumps the clock, serving advances it.
    struct FakeClock(f64);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0
        }
        fn wait_until(&mut self, t: f64) {
            self.0 = self.0.max(t);
        }
    }

    fn latencies(stall_at: Option<usize>) -> Vec<f64> {
        // One request every 10 ms, 2 ms of service each.
        let dues: Vec<f64> = (0..20).map(|i| i as f64 * 0.010).collect();
        let served = open_loop(&mut FakeClock(0.0), &dues, |clock, i| {
            clock.0 += if Some(i) == stall_at { 0.055 } else { 0.002 };
        });
        served.iter().map(|s| s.end_s - s.due_s).collect()
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let calm = latencies(None);
        assert!(calm.iter().all(|l| (l - 0.002).abs() < 1e-12));

        // Request 5 stalls for 55 ms: requests 6..=10 were due while it
        // was being served and must carry the wait, although each of them
        // took only 2 ms of service.
        let stalled = latencies(Some(5));
        assert!((stalled[5] - 0.055).abs() < 1e-12);
        assert!((stalled[6] - (0.055 - 0.010 + 0.002)).abs() < 1e-12);
        for i in 6..=10 {
            assert!(stalled[i] > calm[i] + 0.005, "request {i} hid the stall");
            assert!(stalled[i] < stalled[i - 1], "the queue must drain");
        }
        // Once the queue has drained the stall is forgotten.
        assert!((stalled[15] - 0.002).abs() < 1e-12);
        assert_eq!(stalled[..5], calm[..5]);
    }

    #[test]
    fn open_loop_reports_waits_and_backlog() {
        let dues = [0.0, 0.001, 0.002, 0.5];
        let served = open_loop(&mut FakeClock(0.0), &dues, |clock, _| clock.0 += 0.1);
        // The first request finds the server idle at its due time (clock
        // 0 is not before due 0, so no wait was needed); the next two
        // queue; the last one waits for its due time.
        assert_eq!(
            served.iter().map(|s| s.waited).collect::<Vec<_>>(),
            vec![false, false, false, true]
        );
        assert!((served[2].start_s - 0.2).abs() < 1e-12);
        assert_eq!(backlog_at(&served, 0.15), 2);
        assert_eq!(backlog_at(&served, 1.0), 0);
    }
}
