//! RAG / long-context scenario (§2.3): contexts are ingested **offline**,
//! their hidden states saved; queries later attach to a context, restore
//! it, and answer with a short generation.
//!
//! Also reports what restoration would cost on the paper's real testbed
//! (A100 + 4×PM9A3) for an L-Eval-sized context, per method, using the
//! calibrated timing models.
//!
//! Run with: `cargo run --release --example rag_long_context`

use hc_simhw::platform::Platform;
use hc_simhw::profile::PlatformProfile;
use hc_simhw::sim::simulate_restore;
use hc_simhw::RestoreMethod;
use hc_workload::leval;
use hcache::model::{KvCache, Model, ModelConfig};
use hcache::restore::engine::{restore_session, save_session_state};
use hcache::sched::partition::PartitionScheme;
use hcache::storage::backend::MemStore;
use hcache::storage::manager::StorageManager;
use std::sync::Arc;

fn main() {
    // ------------------------------------------------------------------
    // Functional part: offline ingestion + online queries at test scale.
    // ------------------------------------------------------------------
    let cfg = ModelConfig::tiny_llama();
    let model = Model::new(&cfg, 7);
    let mgr = StorageManager::new(Arc::new(MemStore::new(4)), cfg.d_model);
    let scheme = PartitionScheme::pure_hidden(cfg.n_layers);

    println!("=== offline context ingestion ===");
    let mut corpora: Vec<(u64, Vec<u32>)> = Vec::new();
    for doc in 0..3u64 {
        // Each "document" is a distinct long token sequence.
        let tokens: Vec<u32> = (0..150u32)
            .map(|i| (i * 17 + doc as u32 * 59) % 256)
            .collect();
        let mut kv = KvCache::new(&cfg);
        let out = model.prefill(&tokens, &mut kv, true);
        save_session_state(
            &model,
            &mgr,
            doc,
            &out.hidden_per_layer.unwrap(),
            &kv,
            &scheme,
        )
        .unwrap();
        println!("  ingested document {doc}: {} tokens", tokens.len());
        corpora.push((doc, tokens));
    }

    println!("=== online queries (restore + answer) ===");
    let query_targets = [1usize, 0, 2, 1]; // documents hit by each query
    for (q, &doc_idx) in query_targets.iter().enumerate() {
        let (doc, tokens) = &corpora[doc_idx];
        let doc = *doc;
        // Restore the document's KV cache from hidden states.
        let mut kv = restore_session(&model, &mgr, doc, tokens, tokens.len(), &scheme).unwrap();
        // Short question on top of the restored context.
        let question: Vec<u32> = (0..8u32).map(|i| (i * 5 + q as u32) % 256).collect();
        let out = model.prefill(&question, &mut kv, false);
        let mut last = out.final_hidden.row(question.len() - 1).to_vec();
        let mut answer = Vec::new();
        for _ in 0..6 {
            let t = model.greedy_next_token(&last);
            let (row, _) = model.decode_step(t, &mut kv, false);
            answer.push(t);
            last = row;
        }
        println!(
            "  query {q} on doc {doc}: restored {} ctx tokens, answer = {answer:?}",
            tokens.len()
        );
    }

    // ------------------------------------------------------------------
    // Timed part: what this costs at paper scale on the real testbed.
    // ------------------------------------------------------------------
    println!("=== projected restoration cost, Llama2-7B on A100 + 4xPM9A3 ===");
    let profile = PlatformProfile::new(
        Platform::default_testbed_single_gpu(),
        ModelConfig::llama2_7b(),
    );
    let task = leval::PAPER_ASSISTANT;
    let ctx = task.context_mean as u64;
    println!("  context: {} (~{} tokens)", task.name, ctx);
    for method in [
        RestoreMethod::Recompute,
        RestoreMethod::KvOffload,
        RestoreMethod::HCache,
    ] {
        let r = simulate_restore(&profile, method, ctx);
        println!(
            "  {:<14} {:>8.1} ms  ({:>6.1}K tokens/s)",
            r.method.name(),
            r.secs * 1e3,
            r.speed / 1e3
        );
    }
}
