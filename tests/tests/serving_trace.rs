//! Integration of workload generation → serving engine: real traces end to
//! end, property-style invariants over the serving simulation.

use hc_model::ModelConfig;
use hc_simhw::platform::Platform;
use hc_simhw::profile::PlatformProfile;
use hc_simhw::{RestoreMethod, ServingConfig, ServingEngine};
use hc_workload::arrival::schedule_sessions;
use hc_workload::leval::{generate_requests, QUALITY};
use hc_workload::sharegpt::{generate_sessions, ShareGptConfig};
use proptest::prelude::*;

fn profile_7b() -> PlatformProfile {
    PlatformProfile::new(
        Platform::default_testbed_single_gpu(),
        ModelConfig::llama2_7b(),
    )
}

#[test]
fn sharegpt_trace_completes_for_all_methods() {
    let sessions = generate_sessions(30, &ShareGptConfig::default(), 17);
    let reqs = schedule_sessions(&sessions, 0.3, 300.0, 18);
    let n = reqs.len();
    assert!(n > 10, "trace too small: {n}");
    for m in [
        RestoreMethod::Ideal,
        RestoreMethod::Recompute,
        RestoreMethod::KvOffload,
        RestoreMethod::HCacheO,
        RestoreMethod::NaiveHybrid,
        RestoreMethod::HCache,
    ] {
        let engine = ServingEngine::new(profile_7b(), ServingConfig::for_method(m));
        let report = engine.run(&reqs);
        assert_eq!(report.requests.len(), n, "{m:?} dropped requests");
        for r in &report.requests {
            assert!(r.first_token >= r.arrival);
            assert!(r.completion >= r.first_token);
        }
    }
}

#[test]
fn later_rounds_restore_more_tokens() {
    // In multi-round sessions, restored token counts grow with round index.
    let sessions = generate_sessions(20, &ShareGptConfig::default(), 23);
    let reqs = schedule_sessions(&sessions, 0.2, 400.0, 24);
    let engine = ServingEngine::new(
        profile_7b(),
        ServingConfig::for_method(RestoreMethod::HCache),
    );
    let report = engine.run(&reqs);
    // Group by session, check restored_tokens are non-decreasing.
    for s in &sessions {
        let mut mine: Vec<_> = report
            .requests
            .iter()
            .filter(|r| r.session_id == s.id)
            .collect();
        mine.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
        for w in mine.windows(2) {
            assert!(
                w[1].restored_tokens >= w[0].restored_tokens,
                "session {}: restored shrank",
                s.id
            );
        }
    }
}

#[test]
fn leval_batch1_hcache_wins_on_every_request() {
    let mut reqs = generate_requests(&QUALITY, 15, 16 * 1024 - 512, 31);
    for (i, r) in reqs.iter_mut().enumerate() {
        r.arrival = i as f64 * 500.0;
        r.session_id = i as u64;
    }
    let run = |m| ServingEngine::new(profile_7b(), ServingConfig::for_method(m)).run(&reqs);
    let kv = run(RestoreMethod::KvOffload);
    let hc = run(RestoreMethod::HCache);
    for (a, b) in kv.requests.iter().zip(hc.requests.iter()) {
        assert!(
            b.ttft() < a.ttft(),
            "request {}: HCache {} vs KV {}",
            a.session_id,
            b.ttft(),
            a.ttft()
        );
    }
}

#[test]
fn throughput_ordering_under_saturation() {
    // Under heavy load the cheaper restoration method completes at least
    // as many requests per second.
    let sessions = generate_sessions(60, &ShareGptConfig::default(), 41);
    let reqs = schedule_sessions(&sessions, 2.0, 120.0, 42);
    let tput = |m| {
        ServingEngine::new(profile_7b(), ServingConfig::for_method(m))
            .run(&reqs)
            .throughput()
    };
    let hc = tput(RestoreMethod::HCache);
    let rec = tput(RestoreMethod::Recompute);
    assert!(hc >= rec * 0.99, "HCache {hc} vs recompute {rec}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn serving_invariants_hold_for_random_small_traces(
        seed in 0u64..1000,
        rate_centi in 5u64..200,
        n_sessions in 3usize..15,
    ) {
        let sessions = generate_sessions(n_sessions, &ShareGptConfig::default(), seed);
        let reqs = schedule_sessions(&sessions, rate_centi as f64 / 100.0, 120.0, seed + 1);
        let engine = ServingEngine::new(
            profile_7b(),
            ServingConfig::for_method(RestoreMethod::HCache),
        );
        let report = engine.run(&reqs);
        prop_assert_eq!(report.requests.len(), reqs.len());
        for r in &report.requests {
            prop_assert!(r.first_token >= r.arrival);
            prop_assert!(r.completion >= r.first_token);
            if let Some(tbt) = r.tbt() {
                prop_assert!(tbt > 0.0 && tbt < 1.0, "absurd TBT {}", tbt);
            }
        }
        // Virtual time advances monotonically past the last arrival.
        if let Some(last) = reqs.last() {
            prop_assert!(report.makespan >= last.arrival);
        }
    }
}
