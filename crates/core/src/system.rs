//! The end-to-end functional HCache system (Figure 7 of the paper).
//!
//! [`HCacheSystem`] owns a model, a chunked storage manager, a two-stage
//! saver, a partition scheme and a cache controller, and drives the full
//! stateful-serving workflow: each conversation round restores evicted
//! history (via the session's mix of hidden-state projection / KV reload /
//! token recomputation), prefills the new prompt, generates tokens while
//! the two-stage saver persists every new row off the critical path (hidden
//! rows, and K/V rows of KV-offload layers), and finally evicts
//! the session's KV cache from "GPU memory" (drops it — the state now
//! lives in host storage). There is one session path: open, save, restore
//! and close all go through the controller, so every restore degrades
//! around a sick device instead of failing.

use std::collections::HashMap;
use std::sync::Arc;

use hc_cachectl::metrics::MetricsSnapshot;
use hc_cachectl::{CacheController, ControllerConfig, CtlError};
use hc_model::{KvCache, Model, ModelConfig, PosKind};
use hc_restore::engine::{save_items, DegradationReport};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::{ChunkStore, MemStore, StoreStats};
use hc_storage::manager::StorageManager;
use hc_storage::reactor::Reactor;
use hc_storage::two_stage::{SaveMode, StateSaver};
use hc_storage::StorageError;

/// Errors from the system facade.
#[derive(Debug)]
pub enum SystemError {
    /// Unknown session id.
    UnknownSession(u64),
    /// Storage failure.
    Storage(StorageError),
    /// A round's prompt is empty, names a token outside the model's
    /// vocabulary, or would run a learned-position model past its
    /// position table; the round was rejected before touching any state.
    InvalidPrompt(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::UnknownSession(id) => write!(f, "unknown session {id}"),
            SystemError::Storage(e) => write!(f, "storage error: {e}"),
            SystemError::InvalidPrompt(why) => write!(f, "invalid prompt: {why}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<StorageError> for SystemError {
    fn from(e: StorageError) -> Self {
        SystemError::Storage(e)
    }
}

impl From<CtlError> for SystemError {
    fn from(e: CtlError) -> Self {
        match e {
            CtlError::UnknownSession(id) => SystemError::UnknownSession(id),
            CtlError::Storage(e) => SystemError::Storage(e),
        }
    }
}

/// Chunk reads the facade's IO reactor keeps in flight per storage
/// device. Two keeps a device's queue non-empty while the completion of
/// its previous read is being decoded; the device count comes from the
/// store.
const REACTOR_IODEPTH: usize = 2;

struct SessionState {
    /// All tokens of the conversation so far (prompts + generations), the
    /// source of truth for recompute layers and RoPE positions.
    tokens: Vec<u32>,
}

/// The functional HCache serving system.
pub struct HCacheSystem<S: ChunkStore + 'static> {
    model: Model,
    mgr: Arc<StorageManager<S>>,
    saver: StateSaver<S>,
    scheme: PartitionScheme,
    /// Thread budget shared by the restore pipeline's projection GEMMs and
    /// the storage codec (the saver daemon encodes under the manager's
    /// matching budget).
    parallel: hc_tensor::ParallelConfig,
    /// The capacity control plane: session placement, byte accounting,
    /// eviction and restoration all route through it.
    controller: CacheController<S>,
    sessions: HashMap<u64, SessionState>,
    next_session: u64,
}

impl HCacheSystem<MemStore> {
    /// Builds a system over an in-memory chunk store striped across
    /// `n_devices` virtual SSDs, with a pure-hidden-state scheme (use
    /// [`HCacheSystem::with_scheme`] to mimic a bubble-free mixed schedule).
    pub fn in_memory(cfg: &ModelConfig, seed: u64, n_devices: usize) -> Self {
        let store = Arc::new(MemStore::new(n_devices));
        Self::with_store(cfg, seed, store, PartitionScheme::pure_hidden(cfg.n_layers))
    }
}

impl<S: ChunkStore + 'static> HCacheSystem<S> {
    /// Builds a system over any chunk store with an explicit scheme.
    pub fn with_store(
        cfg: &ModelConfig,
        seed: u64,
        store: Arc<S>,
        scheme: PartitionScheme,
    ) -> Self {
        Self::with_store_parallel(
            cfg,
            seed,
            store,
            scheme,
            hc_tensor::ParallelConfig::serial(),
        )
    }

    /// [`HCacheSystem::with_store`] with an explicit thread budget for the
    /// restore pipeline and the storage codec. The parallel paths are
    /// bit-for-bit equal to the serial ones, so generations are identical
    /// for every budget — only wall-clock changes.
    ///
    /// The storage manager gets an IO [`Reactor`] with one submission
    /// queue per device of `store`, so every restore streams its chunks
    /// from all devices at once; the reactor's IO threads live exactly as
    /// long as the system (dropping it joins them). The system's cache
    /// controller starts with [`ControllerConfig::unlimited`]: an
    /// unlimited quota always honours `scheme`, so it only tracks bytes
    /// and degrades restores around sick devices until
    /// [`HCacheSystem::with_cache_controller`] sets a quota.
    pub fn with_store_parallel(
        cfg: &ModelConfig,
        seed: u64,
        store: Arc<S>,
        scheme: PartitionScheme,
        parallel: hc_tensor::ParallelConfig,
    ) -> Self {
        let model = Model::new(cfg, seed);
        let reactor = Reactor::new(store.n_devices(), REACTOR_IODEPTH);
        let mgr = Arc::new(
            StorageManager::new(store, cfg.d_model)
                .with_parallel(parallel)
                .with_reactor(reactor),
        );
        let saver = StateSaver::new(Arc::clone(&mgr), SaveMode::TwoStage);
        let controller = CacheController::new(
            Arc::clone(&mgr),
            cfg.n_layers,
            cfg.d_model,
            ControllerConfig::unlimited(),
        );
        Self {
            model,
            mgr,
            saver,
            scheme,
            parallel,
            controller,
            sessions: HashMap::new(),
            next_session: 1,
        }
    }

    /// Replaces the partition scheme (affects how *future* rounds save
    /// state; already-saved sessions keep restoring under the scheme they
    /// were saved with, so only call this between sessions).
    pub fn with_scheme(mut self, scheme: PartitionScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Replaces the system's cache controller with one running `cfg`'s
    /// quota and policy. Sessions are admitted through its cost-model
    /// placement (the system's scheme is the *desired* placement), their
    /// resident bytes are charged against the quota after every round,
    /// pressure demotes victim sessions' layer mixes, and restoration runs
    /// under each session's current (possibly demoted) mix. Call before
    /// opening sessions.
    pub fn with_cache_controller(mut self, cfg: ControllerConfig) -> Self {
        assert!(
            self.sessions.is_empty(),
            "attach the controller before opening sessions"
        );
        self.controller = CacheController::new(
            Arc::clone(&self.mgr),
            self.model.cfg.n_layers,
            self.model.cfg.d_model,
            cfg,
        );
        self
    }

    /// The system's cache controller (always `Some`).
    pub fn controller(&self) -> Option<&CacheController<S>> {
        Some(&self.controller)
    }

    /// Controller counter snapshot (always `Some`).
    pub fn cache_metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.controller.metrics())
    }

    /// Thread budget used by restoration and the storage codec.
    pub fn parallel(&self) -> hc_tensor::ParallelConfig {
        self.parallel
    }

    /// The model (e.g. for inspecting the config).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Current partition scheme.
    pub fn scheme(&self) -> &PartitionScheme {
        &self.scheme
    }

    /// Backend IO statistics (chunk writes/reads, bytes).
    pub fn io_stats(&self) -> StoreStats {
        self.mgr.stats()
    }

    /// Opens a new conversation session, admitted through the controller's
    /// cost-model placement decision (the system scheme is the desired
    /// placement; quota feasibility may demote it to KV or token-only at
    /// admission).
    pub fn open_session(&mut self) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.controller.open_session(id, &self.scheme);
        self.sessions
            .insert(id, SessionState { tokens: Vec::new() });
        id
    }

    /// Context length of a session.
    pub fn context_len(&self, session: u64) -> Result<usize, SystemError> {
        Ok(self.session_tokens(session)?.len())
    }

    /// The full token history of a session (prompts + generations) — the
    /// source of truth recompute layers replay; exposed so external
    /// verifiers and schedulers can drive methods-based restores.
    pub fn session_tokens(&self, session: u64) -> Result<&[u32], SystemError> {
        Ok(&self
            .sessions
            .get(&session)
            .ok_or(SystemError::UnknownSession(session))?
            .tokens)
    }

    /// Closes a session and deletes its host-storage state; returns bytes
    /// freed.
    pub fn close_session(&mut self, session: u64) -> Result<u64, SystemError> {
        self.sessions
            .remove(&session)
            .ok_or(SystemError::UnknownSession(session))?;
        Ok(self.controller.close_session(session)?)
    }

    /// Restores a session's KV cache from host storage (the cache-miss
    /// path): [`HCacheSystem::restore_with_report`] without the report.
    pub fn restore(&self, session: u64) -> Result<KvCache, SystemError> {
        self.restore_with_report(session).map(|(kv, _)| kv)
    }

    /// Restores a session's KV cache under its current (possibly demoted)
    /// method mix and reports any degradation. Every restore is one job
    /// of the controller's restore body, which runs the one restore
    /// executor over this system's IO reactor as a one-request call of
    /// `hc_restore::reactor`'s driver: one restore state machine, advanced
    /// on the calling thread (worker 0 — no thread is spawned), submits
    /// every stored layer's 64-token chunk reads, in layer order, to all
    /// storage devices on its first step (up to `REACTOR_IODEPTH` reads in
    /// flight per device) and runs the recompute prefix's forward pass
    /// while they are served; each advance then projects every hidden layer's newly
    /// contiguous token prefix — everything that landed since its last
    /// GEMM, in one call — and places K/V chunks as both streams' prefixes
    /// pair up, all under this system's thread budget. The result is
    /// bit-identical to `restore_session_with_methods` under the mix
    /// served.
    ///
    /// Hits and fallbacks are counted, and the device-health plane is
    /// engaged: layers stranded behind a down or breaker-tripped storage
    /// device, or whose read fails mid-restore, are served by token
    /// recomputation and the returned [`DegradationReport`] says how many
    /// and why, instead of the restore failing.
    pub fn restore_with_report(
        &self,
        session: u64,
    ) -> Result<(KvCache, DegradationReport), SystemError> {
        let tokens = self.session_tokens(session)?;
        Ok(self
            .controller
            .restore_with_report(&self.model, session, tokens, &self.parallel)?)
    }

    /// Marks a storage device down on the controller (see
    /// [`CacheController::on_device_down`]).
    pub fn on_device_down(&self, device: usize) {
        self.controller.on_device_down(device);
    }

    /// Clears a device's down mark on the controller; affected sessions
    /// re-promote to full-mix restores on their next round.
    pub fn on_device_recovered(&self, device: usize) {
        self.controller.on_device_recovered(device);
    }

    /// The storage manager (device health registry, retry policy, IO
    /// stats) this system serves from.
    pub fn storage(&self) -> &Arc<StorageManager<S>> {
        &self.mgr
    }

    /// Runs one conversation round: restore evicted history → prefill
    /// `prompt` → greedily generate `n_generate` tokens → save new state →
    /// evict. Returns the generated tokens. The round has one writer: the
    /// prefill's rows and every decoded token's rows, under the session's
    /// mix, go to the two-stage saver as `hc_restore::engine::save_items`,
    /// and the session's barrier makes them durable. An empty prompt, one
    /// naming a token outside the vocabulary, or one whose round would
    /// pass a learned-position model's `max_seq_len` is
    /// [`SystemError::InvalidPrompt`] before any state is touched.
    ///
    /// A round either commits or leaves its session's token history as it
    /// was: when a save fails, the rows the round already wrote cannot be
    /// trusted, so the session's stored state drops to token-only and the
    /// typed error is returned. The next round recomputes the unchanged
    /// history.
    pub fn round(
        &mut self,
        session: u64,
        prompt: &[u32],
        n_generate: usize,
    ) -> Result<Vec<u32>, SystemError> {
        let history_len = {
            let state = self
                .sessions
                .get(&session)
                .ok_or(SystemError::UnknownSession(session))?;
            state.tokens.len()
        };
        let vocab = self.model.cfg.vocab_size;
        if let Some(&t) = prompt.iter().find(|&&t| t as usize >= vocab) {
            let why = format!("token {t} is outside the {vocab}-token vocabulary");
            return Err(SystemError::InvalidPrompt(why));
        }
        if prompt.is_empty() {
            return Err(SystemError::InvalidPrompt("empty prompt".into()));
        }
        let (pos, max_seq) = (self.model.cfg.pos, self.model.cfg.max_seq_len);
        let end = history_len + prompt.len() + n_generate;
        if pos == PosKind::Learned && end > max_seq {
            let why = format!("the round ends at position {end}, past max_seq_len {max_seq}");
            return Err(SystemError::InvalidPrompt(why));
        }

        // The mix this round saves under: the controller's live placement
        // (stable within a round — demotion only runs at round boundaries).
        let methods = self
            .controller
            .session_methods(session)
            .ok_or(SystemError::UnknownSession(session))?;

        // 1. Restore evicted history (no GPU KV reuse, as in §4: "we do not
        //    cache and reuse KV cache in GPU"). Every restore degrades: a
        //    sick storage device costs this round latency (its layers are
        //    recomputed), not the session.
        let kv = if history_len > 0 {
            self.restore(session)?
        } else {
            KvCache::new(&self.model.cfg)
        };

        let generated = match self.generate_and_save(session, &methods, prompt, n_generate, kv) {
            Ok(generated) => generated,
            Err(e) => {
                self.roll_back(session, history_len);
                return Err(e.into());
            }
        };

        let state = self.sessions.get_mut(&session).expect("checked above");
        state.tokens.extend_from_slice(prompt);
        state.tokens.extend_from_slice(&generated);
        let context_tokens = state.tokens.len();

        // 5. Settle the quota ledger: reconcile this session's resident
        //    bytes and let the controller demote victims if the pool is
        //    over quota.
        self.controller.on_saved(session, context_tokens as u64)?;
        Ok(generated)
    }

    /// Steps 2–4 of [`HCacheSystem::round`] over the restored cache `kv`:
    /// prefill, generate, save every new row under `methods` and make it
    /// durable. Returns the generated tokens.
    fn generate_and_save(
        &self,
        session: u64,
        methods: &[LayerMethod],
        prompt: &[u32],
        n_generate: usize,
        mut kv: KvCache,
    ) -> Result<Vec<u32>, StorageError> {
        let history_len = kv.n_tokens();

        // 2. Prefill the new prompt under the host thread budget (the
        //    head-parallel kernels are bit-identical to serial), capturing
        //    hidden states, and hand the prompt's rows to the two-stage
        //    saver (§4.2.2): hidden layers' hidden rows, KV-offload layers'
        //    K/V rows.
        let out = self
            .model
            .prefill_par(prompt, &mut kv, true, &self.parallel);
        let hidden = out.hidden_per_layer.expect("capture enabled");
        let tokens = history_len..kv.n_tokens();
        self.saver
            .save_batch(&save_items(session, methods, &hidden, &kv, tokens))?;

        // 3. Greedy generation; every decoded token's rows go through the
        //    saver the same way, so the chunk daemon seals them off the
        //    critical path.
        let mut generated = Vec::with_capacity(n_generate);
        let mut last_row = out.final_hidden.row(prompt.len() - 1).to_vec();
        for _ in 0..n_generate {
            let next = self.model.greedy_next_token(&last_row);
            let (row, captured) = self.model.decode_step(next, &mut kv, true);
            let per_layer = captured.expect("capture enabled");
            let tokens = kv.n_tokens() - 1..kv.n_tokens();
            self.saver
                .save_batch(&save_items(session, methods, &per_layer, &kv, tokens))?;
            generated.push(next);
            last_row = row;
        }

        // 4. Wait for the daemon (its first append error for this session
        //    surfaces here), make everything durable, then evict (drop)
        //    the KV cache.
        self.saver.barrier_and_flush(session)?;
        Ok(generated)
    }

    /// Undoes a round that failed after its first save: drains the saver
    /// so none of the round's batches is still in flight, drops the
    /// session's stored state to token-only down the controller's
    /// demotion ladder, and recharges the session at its pre-round
    /// `history_len` tokens. No stored row then disagrees with the token
    /// history, which the next restore recomputes.
    fn roll_back(&self, session: u64, history_len: usize) {
        // The round's own error is the one reported; these two only
        // repeat it (the drain) or cannot fail (a known session).
        let _ = self.saver.barrier_and_flush(session);
        self.controller.demote_to_floor(session);
        let _ = self.controller.on_saved(session, history_len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_restore::engine::kv_max_error;
    use hc_storage::StreamId;

    fn sys() -> HCacheSystem<MemStore> {
        HCacheSystem::in_memory(&ModelConfig::tiny_llama(), 7, 4)
    }

    #[test]
    fn multi_round_conversation_accumulates_context() {
        let mut s = sys();
        let sid = s.open_session();
        let out1 = s.round(sid, &[10, 11, 12], 5).unwrap();
        assert_eq!(out1.len(), 5);
        assert_eq!(s.context_len(sid).unwrap(), 8);
        let out2 = s.round(sid, &[13, 14], 3).unwrap();
        assert_eq!(out2.len(), 3);
        // Round 2 restored the 8-token history, then added its 2 prompt
        // and 3 generated tokens.
        assert_eq!(s.context_len(sid).unwrap(), 8 + 2 + 3);
        assert_eq!(
            s.session_tokens(sid).unwrap()[..10],
            [10, 11, 12, out1[0], out1[1], out1[2], out1[3], out1[4], 13, 14]
        );
    }

    #[test]
    fn round_rejects_an_empty_or_out_of_vocabulary_prompt() {
        // Each bad prompt fails typed, after a first round left history to
        // restore: tokens and stored bytes are untouched, and the next
        // valid round generates exactly what a never-rejected session does.
        let vocab = ModelConfig::tiny_llama().vocab_size as u32;
        let mut s = sys();
        let mut reference = sys();
        let (sid, rid) = (s.open_session(), reference.open_session());
        for bad in [&[][..], &[3, vocab], &[vocab + 7]] {
            s.round(sid, &[1, 2, 3], 2).unwrap();
            reference.round(rid, &[1, 2, 3], 2).unwrap();
            let (tokens, bytes) = (
                s.session_tokens(sid).unwrap().to_vec(),
                s.storage().session_bytes(sid),
            );
            let err = s.round(sid, bad, 2).unwrap_err();
            assert!(
                matches!(err, SystemError::InvalidPrompt(_)),
                "{bad:?}: {err}"
            );
            assert_eq!(s.session_tokens(sid).unwrap(), &tokens[..]);
            assert_eq!(s.storage().session_bytes(sid), bytes);
        }
        assert_eq!(
            s.round(sid, &[4, 5], 3).unwrap(),
            reference.round(rid, &[4, 5], 3).unwrap()
        );
        assert_eq!(
            s.session_tokens(sid).unwrap(),
            reference.session_tokens(rid).unwrap()
        );
    }

    #[test]
    fn round_rejects_running_past_a_learned_position_table() {
        // tiny_opt's learned position table holds 512 positions, so a
        // second 300-token round would run past it. It fails typed before
        // any state is touched, and a round ending exactly at the table's
        // end then succeeds.
        let cfg = ModelConfig::tiny_opt();
        let mut s = HCacheSystem::in_memory(&cfg, 7, 4);
        let sid = s.open_session();
        let prompt: Vec<u32> = (0..300u32).map(|i| (i * 7 + 3) % 256).collect();
        let rows = |s: &HCacheSystem<MemStore>| -> Vec<u64> {
            (0..cfg.n_layers as u32)
                .map(|l| s.storage().n_tokens(StreamId::hidden(sid, l)))
                .collect()
        };
        s.round(sid, &prompt, 4).unwrap();
        let (tokens, stored) = (s.session_tokens(sid).unwrap().to_vec(), rows(&s));
        assert_eq!(stored, vec![304; cfg.n_layers]);
        let err = s.round(sid, &prompt, 4).unwrap_err();
        assert!(matches!(err, SystemError::InvalidPrompt(_)), "{err}");
        assert_eq!(s.session_tokens(sid).unwrap(), &tokens[..]);
        assert_eq!(rows(&s), stored);
        assert_eq!(s.round(sid, &prompt[..200], 8).unwrap().len(), 8);
        assert_eq!(s.context_len(sid).unwrap(), cfg.max_seq_len);
    }

    #[test]
    fn restoration_matches_replay_reference() {
        // Drive two rounds, then compare the restored cache against a
        // from-scratch prefill of the full conversation.
        let mut s = sys();
        let sid = s.open_session();
        s.round(sid, &[1, 2, 3, 4, 5], 6).unwrap();
        s.round(sid, &[6, 7], 4).unwrap();

        let restored = s.restore(sid).unwrap();

        // Reference: replay all tokens in one prefill on a fresh model with
        // identical weights.
        let model = Model::new(&ModelConfig::tiny_llama(), 7);
        let tokens: Vec<u32> = {
            // Reconstruct the conversation from the session state.
            let n = s.context_len(sid).unwrap();
            assert_eq!(restored.n_tokens(), n);
            s.sessions[&sid].tokens.clone()
        };
        let mut reference = KvCache::new(&model.cfg);
        model.prefill(&tokens, &mut reference, false);
        let err = kv_max_error(&restored, &reference);
        assert!(err < 0.05, "restored cache deviates: {err}");
    }

    #[test]
    fn generation_is_deterministic_across_eviction() {
        // The same conversation driven in a system WITHOUT eviction (pure
        // in-GPU) must produce the same tokens as the evict+restore flow.
        let cfg = ModelConfig::tiny_llama();
        let mut s = sys();
        let sid = s.open_session();
        let r1 = s.round(sid, &[9, 8, 7], 4).unwrap();
        let r2 = s.round(sid, &[6, 5], 4).unwrap();

        // Reference: keep the KV cache alive the whole time.
        let model = Model::new(&cfg, 7);
        let mut kv = KvCache::new(&cfg);
        let mut generated_ref = Vec::new();
        for (prompt, n) in [(vec![9u32, 8, 7], 4usize), (vec![6, 5], 4)] {
            let out = model.prefill(&prompt, &mut kv, false);
            let mut last = out.final_hidden.row(prompt.len() - 1).to_vec();
            let mut round_out = Vec::new();
            for _ in 0..n {
                let next = model.greedy_next_token(&last);
                let (row, _) = model.decode_step(next, &mut kv, false);
                round_out.push(next);
                last = row;
            }
            generated_ref.push(round_out);
        }
        assert_eq!(r1, generated_ref[0], "round 1 diverged");
        assert_eq!(r2, generated_ref[1], "round 2 diverged");
    }

    #[test]
    fn mixed_scheme_round_trip() {
        let cfg = ModelConfig::tiny_llama();
        let scheme = PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::KvOffload,
        };
        let mut s = HCacheSystem::in_memory(&cfg, 11, 2).with_scheme(scheme);
        let sid = s.open_session();
        s.round(sid, &[1, 2, 3], 4).unwrap();
        let restored = s.restore(sid).unwrap();
        assert_eq!(restored.n_tokens(), 7);
        assert!(restored.is_consistent());
    }

    #[test]
    fn recompute_complement_scheme_round_trip() {
        let cfg = ModelConfig::tiny_llama();
        let scheme = PartitionScheme {
            l_h: 3,
            l_o: 1,
            complement: LayerMethod::Recompute,
        };
        let mut s = HCacheSystem::in_memory(&cfg, 13, 2).with_scheme(scheme);
        let sid = s.open_session();
        s.round(sid, &[4, 5, 6, 7], 3).unwrap();
        s.round(sid, &[8], 2).unwrap();
        let restored = s.restore(sid).unwrap();
        assert_eq!(restored.n_tokens(), 10);
    }

    #[test]
    fn parallel_system_generates_identically_to_serial() {
        // The whole serving workflow — save, two-stage daemon, pipelined
        // restore, decode — must be deterministic across thread budgets.
        let cfg = ModelConfig::tiny_llama();
        let mk = |par| {
            HCacheSystem::with_store_parallel(
                &cfg,
                7,
                Arc::new(MemStore::new(4)),
                PartitionScheme {
                    l_h: 3,
                    l_o: 1,
                    complement: LayerMethod::KvOffload,
                },
                par,
            )
        };
        let mut serial = mk(hc_tensor::ParallelConfig::serial());
        let mut parallel = mk(hc_tensor::ParallelConfig::new(4));
        let ss = serial.open_session();
        let sp = parallel.open_session();
        for (prompt, n) in [(vec![1u32, 2, 3], 5usize), (vec![4, 5], 4)] {
            let a = serial.round(ss, &prompt, n).unwrap();
            let b = parallel.round(sp, &prompt, n).unwrap();
            assert_eq!(a, b, "generation diverged under a parallel budget");
        }
        let ra = serial.restore(ss).unwrap();
        let rb = parallel.restore(sp).unwrap();
        assert_eq!(hc_restore::engine::kv_max_error(&ra, &rb), 0.0);
    }

    #[test]
    fn sessions_are_isolated() {
        let mut s = sys();
        let a = s.open_session();
        let b = s.open_session();
        s.round(a, &[1, 2], 2).unwrap();
        s.round(b, &[3, 4, 5], 2).unwrap();
        assert_eq!(s.context_len(a).unwrap(), 4);
        assert_eq!(s.context_len(b).unwrap(), 5);
        let ra = s.restore(a).unwrap();
        let rb = s.restore(b).unwrap();
        assert_eq!(ra.n_tokens(), 4);
        assert_eq!(rb.n_tokens(), 5);
    }

    #[test]
    fn close_session_frees_storage() {
        let mut s = sys();
        let sid = s.open_session();
        s.round(sid, &[1, 2, 3], 5).unwrap();
        let freed = s.close_session(sid).unwrap();
        assert!(freed > 0);
        assert!(matches!(
            s.restore(sid),
            Err(SystemError::UnknownSession(_))
        ));
        assert!(matches!(
            s.close_session(sid),
            Err(SystemError::UnknownSession(_))
        ));
    }

    #[test]
    fn unknown_session_errors() {
        let mut s = sys();
        assert!(matches!(
            s.round(99, &[1], 1),
            Err(SystemError::UnknownSession(99))
        ));
        assert!(matches!(
            s.context_len(99),
            Err(SystemError::UnknownSession(99))
        ));
    }

    #[test]
    fn controller_quota_demotes_but_never_corrupts() {
        use hc_cachectl::ControllerConfig;
        use hc_restore::engine::restore_session_with_methods;

        let cfg = ModelConfig::tiny_llama();
        // Quota fits roughly half the steady-state footprint of three
        // 26-token pure-hidden sessions (26 tokens × 4 layers × 64 × 2 B
        // ≈ 13 KiB each once flushed as whole chunks).
        let quota = 2 * 64 * 64 * 2; // two chunks of D=64
        let mut s = HCacheSystem::with_store_parallel(
            &cfg,
            7,
            Arc::new(MemStore::new(4)),
            PartitionScheme::pure_hidden(cfg.n_layers),
            hc_tensor::ParallelConfig::new(2),
        )
        .with_cache_controller(ControllerConfig::with_quota(quota).with_expected_tokens(16));

        let mut sids = Vec::new();
        for i in 0..3u32 {
            let sid = s.open_session();
            let prompt: Vec<u32> = (0..20).map(|j| (i * 20 + j) % 256).collect();
            s.round(sid, &prompt, 6).unwrap();
            sids.push(sid);
        }
        let ctl = s.controller().unwrap();
        assert!(ctl.used_bytes() <= quota, "quota must hold after rounds");
        assert!(ctl.metrics().demotions > 0, "pressure must have demoted");

        for &sid in &sids {
            let methods = ctl.session_methods(sid).unwrap();
            // Controller restore == sequential restore of the surviving
            // mix, bit for bit.
            let restored = s.restore(sid).unwrap();
            let tokens = s.sessions[&sid].tokens.clone();
            let seq = restore_session_with_methods(
                s.model(),
                &s.mgr,
                sid,
                &tokens,
                tokens.len(),
                &methods,
            )
            .unwrap();
            assert_eq!(
                hc_restore::engine::kv_max_error(&restored, &seq),
                0.0,
                "session {sid} diverged from its sequential restore"
            );
            // And it still matches a fresh replay of the conversation
            // within f16 tolerance (demoted layers are bit-exact).
            let model = Model::new(&cfg, 7);
            let mut reference = KvCache::new(&cfg);
            model.prefill(&tokens, &mut reference, false);
            let err = hc_restore::engine::kv_max_error(&restored, &reference);
            assert!(err < 0.05, "session {sid} deviates: {err}");
        }
    }

    #[test]
    fn controller_rounds_generate_identically_to_replay_when_nothing_is_evicted() {
        use hc_cachectl::ControllerConfig;
        // Unlimited quota: the controller is pure bookkeeping, so the
        // conversation must be exactly what a from-scratch replay that
        // never evicts produces.
        let cfg = ModelConfig::tiny_llama();
        let mut governed = HCacheSystem::in_memory(&cfg, 7, 4)
            .with_cache_controller(ControllerConfig::unlimited());
        let sg = governed.open_session();
        let model = Model::new(&cfg, 7);
        let mut history: Vec<u32> = Vec::new();
        for (prompt, n) in [(vec![1u32, 2, 3], 5usize), (vec![4, 5], 4)] {
            let got = governed.round(sg, &prompt, n).unwrap();
            history.extend_from_slice(&prompt);
            let mut kv = KvCache::new(&cfg);
            let out = model.prefill(&history, &mut kv, false);
            let mut last = out.final_hidden.row(history.len() - 1).to_vec();
            let mut want = Vec::with_capacity(n);
            for _ in 0..n {
                let next = model.greedy_next_token(&last);
                let (row, _) = model.decode_step(next, &mut kv, false);
                want.push(next);
                last = row;
            }
            assert_eq!(got, want);
            history.extend_from_slice(&want);
        }
        let m = governed.cache_metrics().unwrap();
        assert_eq!(m.restore_hits, 1, "round 2 restored from cache");
        assert_eq!(m.restore_fallbacks, 0);
        assert_eq!(m.demotions, 0);
    }

    #[test]
    fn controller_close_session_releases_quota() {
        use hc_cachectl::ControllerConfig;
        let cfg = ModelConfig::tiny_llama();
        let mut s = HCacheSystem::in_memory(&cfg, 3, 2)
            .with_cache_controller(ControllerConfig::unlimited());
        let sid = s.open_session();
        s.round(sid, &[1, 2, 3], 5).unwrap();
        let used = s.controller().unwrap().used_bytes();
        assert!(used > 0);
        let freed = s.close_session(sid).unwrap();
        assert_eq!(freed, used);
        assert_eq!(s.controller().unwrap().used_bytes(), 0);
    }

    #[test]
    fn device_down_round_degrades_and_recovery_repromotes() {
        use hc_cachectl::ControllerConfig;
        use hc_storage::fault::{FaultStore, FaultTarget};

        let cfg = ModelConfig::tiny_llama();
        let fault = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let mut s = HCacheSystem::with_store(
            &cfg,
            7,
            Arc::clone(&fault),
            PartitionScheme::pure_hidden(cfg.n_layers),
        )
        .with_cache_controller(ControllerConfig::unlimited());
        let sid = s.open_session();
        let prompt: Vec<u32> = (0..40).map(|i| i % 256).collect();
        s.round(sid, &prompt, 4).unwrap();

        let (healthy, rep) = s.restore_with_report(sid).unwrap();
        assert!(!rep.degraded());

        // Lose device 2 (44 tokens = one chunk; layer l lives on device
        // l % 4, so layers 0..=2 are stranded and layer 3 still reads).
        fault.device_down(2);
        s.on_device_down(2);
        let (degraded, rep) = s.restore_with_report(sid).unwrap();
        assert_eq!(rep.layers_recomputed, 3);
        assert_eq!(degraded.n_tokens(), healthy.n_tokens());
        // Still a correct cache: matches a fresh replay of the whole
        // conversation within f16 tolerance (recomputed layers exactly).
        let model = Model::new(&cfg, 7);
        let mut reference = KvCache::new(&cfg);
        model.prefill(s.session_tokens(sid).unwrap(), &mut reference, false);
        assert_eq!(degraded.keys(0), reference.keys(0));
        assert!(kv_max_error(&degraded, &reference) < 0.05);

        // Heal: the next restore is full-mix and bit-identical to the
        // healthy one.
        fault.device_up(2);
        s.on_device_recovered(2);
        let (back, rep) = s.restore_with_report(sid).unwrap();
        assert!(!rep.degraded());
        assert_eq!(kv_max_error(&back, &healthy), 0.0);
        assert_eq!(s.cache_metrics().unwrap().restores_degraded, 1);

        // A round while the lane cannot serve reads (its writes still
        // land — a round also saves): the restore inside it degrades, so
        // the sick device costs latency, not the session.
        fault.set_flaky_reads(FaultTarget::Device(2), 1.0, 7);
        s.on_device_down(2);
        assert_eq!(s.round(sid, &[1, 2, 3], 4).unwrap().len(), 4);
        assert_eq!(s.cache_metrics().unwrap().restores_degraded, 2);

        // And one after recovery: full mix again, bit-identical to the
        // sequential restore of what the two rounds saved.
        fault.clear_flaky_reads();
        s.on_device_recovered(2);
        assert_eq!(s.round(sid, &[4, 5], 3).unwrap().len(), 3);
        let (back, rep) = s.restore_with_report(sid).unwrap();
        assert!(!rep.degraded());
        let tokens = s.session_tokens(sid).unwrap();
        let oracle = hc_restore::engine::restore_session_with_methods(
            s.model(),
            s.storage(),
            sid,
            tokens,
            tokens.len(),
            &s.controller().unwrap().session_methods(sid).unwrap(),
        )
        .unwrap();
        assert_eq!(kv_max_error(&back, &oracle), 0.0);
        assert_eq!(s.cache_metrics().unwrap().restores_degraded, 2);
    }

    #[test]
    fn default_system_degrades_a_failing_device_instead_of_failing() {
        use hc_restore::engine::{restore_session_with_methods, DegradeCause};
        use hc_storage::fault::{FaultStore, FaultTarget};

        // No `with_cache_controller`: the default system's controller
        // still degrades. 150 prompt tokens put two durable chunks per
        // layer on the devices (a history under 64 tokens is served from
        // the manager's tail buffer and never reads a device).
        let cfg = ModelConfig::tiny_llama();
        let fault = Arc::new(FaultStore::new(Arc::new(MemStore::new(4))));
        let mut s = HCacheSystem::with_store(
            &cfg,
            7,
            Arc::clone(&fault),
            PartitionScheme::pure_hidden(cfg.n_layers),
        );
        let sid = s.open_session();
        let prompt: Vec<u32> = (0..150).map(|i| (i * 7) % 256).collect();
        s.round(sid, &prompt, 4).unwrap();

        // Every read from device 2 fails; layers 0..=2 each hold a chunk
        // there, so the recompute prefix widens over all three. The reads
        // exhaust their retries, and the failures they feed the device's
        // breaker may trip it before the last one is classified.
        fault.set_flaky_reads(FaultTarget::Device(2), 1.0, 11);
        let (degraded, rep) = s.restore_with_report(sid).unwrap();
        assert_eq!(rep.layers_recomputed, 3);
        assert!(
            matches!(
                rep.cause,
                Some(
                    DegradeCause::RetryExhausted { device: 2 }
                        | DegradeCause::BreakerOpen { device: 2 }
                )
            ),
            "{:?}",
            rep.cause
        );
        let tokens = s.session_tokens(sid).unwrap();
        fault.clear_flaky_reads();
        let oracle = restore_session_with_methods(
            s.model(),
            s.storage(),
            sid,
            tokens,
            tokens.len(),
            &[
                LayerMethod::Recompute,
                LayerMethod::Recompute,
                LayerMethod::Recompute,
                LayerMethod::Hidden,
            ],
        )
        .unwrap();
        assert_eq!(kv_max_error(&degraded, &oracle), 0.0);

        // A round while the device still fails its reads costs latency,
        // not the session.
        fault.set_flaky_reads(FaultTarget::Device(2), 1.0, 13);
        assert_eq!(s.round(sid, &[1, 2, 3], 4).unwrap().len(), 4);
        assert_eq!(s.cache_metrics().unwrap().restores_degraded, 2);
    }

    #[test]
    fn io_stats_show_chunked_writes() {
        let mut s = sys();
        let sid = s.open_session();
        // 70 prompt tokens + 10 generated spans the 64-token chunk boundary.
        let prompt: Vec<u32> = (0..70).map(|i| i % 256).collect();
        s.round(sid, &prompt, 10).unwrap();
        let stats = s.io_stats();
        assert!(stats.total_writes() > 0);
        assert!(stats.total_bytes_written() > 0);
        // All 4 layers × ≥2 chunks each, spread across 4 devices.
        assert!(stats.devices.iter().all(|d| d.writes > 0));
    }
}
