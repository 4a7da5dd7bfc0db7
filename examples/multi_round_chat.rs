//! Multi-round conversation (the paper's §2.3 chatbot scenario).
//!
//! Drives an [`hcache::HCacheSystem`] through a ShareGPT-style multi-round
//! conversation: every round restores the evicted history from hidden
//! states, prefills the new user prompt, generates a reply while the
//! two-stage saver persists new state in the background, and evicts again.
//! Uses a bubble-free mixed scheme (hidden + KV-offload layers) and prints
//! the storage economics against a pure KV-offload baseline.
//!
//! Run with: `cargo run --release --example multi_round_chat`

use hcache::model::ModelConfig;
use hcache::sched::partition::{LayerMethod, PartitionScheme};
use hcache::HCacheSystem;

fn main() {
    let cfg = ModelConfig::tiny_llama();
    // A miniature Table-3-style schedule: 3 layers via hidden states, 1 via
    // KV offload (as the bubble-free scheduler would pick on a
    // compute-lean platform).
    let scheme = PartitionScheme {
        l_h: 3,
        l_o: 1,
        complement: LayerMethod::KvOffload,
    };
    let mut sys = HCacheSystem::in_memory(&cfg, 2024, 4).with_scheme(scheme.clone());
    let sid = sys.open_session();

    println!("=== multi-round conversation (model {}) ===", cfg.name);
    let rounds: Vec<Vec<u32>> = vec![
        (0..24).map(|i| i * 3 % 256).collect(),
        (0..9).map(|i| (i * 11 + 40) % 256).collect(),
        (0..15).map(|i| (i * 7 + 90) % 256).collect(),
        (0..6).map(|i| (i * 13 + 1) % 256).collect(),
    ];
    for (i, prompt) in rounds.iter().enumerate() {
        let history = sys.context_len(sid).expect("open session");
        let reply = sys.round(sid, prompt, 12).expect("round failed");
        println!(
            "round {}: restored {:>3} history tokens, prefilled {:>2}, generated {:>2} -> context {:>3}",
            i + 1,
            history,
            prompt.len(),
            reply.len(),
            sys.context_len(sid).expect("open session")
        );
        assert_eq!(reply.len(), 12);
    }

    // Verify the final context restores correctly after all that churn.
    let restored = sys.restore(sid).unwrap();
    assert!(restored.is_consistent());
    println!(
        "final restore: {} tokens across {} layers — consistent",
        restored.n_tokens(),
        restored.n_layers()
    );

    // Storage economics (Table 3): scheme cost vs full KV offload.
    let per_token = scheme.storage_bytes_per_token(cfg.d_model, cfg.elem_bytes);
    let kv_per_token = (cfg.kv_bytes_per_token()) as u64;
    println!(
        "storage: {} B/token with this scheme vs {} B/token for KV offload ({:.2}x saving)",
        per_token,
        kv_per_token,
        kv_per_token as f64 / per_token as f64
    );

    let io = sys.io_stats();
    println!(
        "backend IO: {} chunk writes / {} reads, {:.1} KiB written, spread over {} devices",
        io.total_writes(),
        io.total_reads(),
        io.total_bytes_written() as f64 / 1024.0,
        io.devices.len()
    );
    for (i, d) in io.devices.iter().enumerate() {
        println!(
            "  dev{i}: {:>4} writes {:>8} B | {:>4} reads {:>8} B",
            d.writes, d.bytes_written, d.reads, d.bytes_read
        );
    }
}
