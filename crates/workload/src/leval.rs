//! L-Eval-like long-context workload generator (Table 1).
//!
//! L-Eval contains 20 sub-tasks; the paper reports three representative ones
//! plus the overall average. Each request has a long reusable *context*
//! (paper/document/few-shot examples), a short instruction, and a short
//! output — the bimodal shape noted in §2.3.

use crate::rng::Rng;
use crate::Request;

/// Published Table 1 statistics for a sub-task.
#[derive(Debug, Clone, PartialEq)]
pub struct SubTask {
    /// Sub-task name as reported in the paper.
    pub name: &'static str,
    /// Mean context tokens.
    pub context_mean: f64,
    /// Mean instruction tokens.
    pub input_mean: f64,
    /// Mean output tokens.
    pub output_mean: f64,
}

/// Paper Assistant sub-task (Table 1 row 1).
pub const PAPER_ASSISTANT: SubTask = SubTask {
    name: "Paper Assistant",
    context_mean: 10603.5,
    input_mean: 142.7,
    output_mean: 404.8,
};

/// GSM-100 few-shot math sub-task (Table 1 row 2).
pub const GSM_100: SubTask = SubTask {
    name: "GSM-100",
    context_mean: 5451.7,
    input_mean: 77.4,
    output_mean: 4.3,
};

/// QuALITY long-document QA sub-task (Table 1 row 3).
pub const QUALITY: SubTask = SubTask {
    name: "QuALITY",
    context_mean: 7053.9,
    input_mean: 92.4,
    output_mean: 19.2,
};

/// The 20-sub-task average (Table 1 row 4) — used for the "Mixed" bars of
/// Figure 10.
pub const LEVAL_AVG: SubTask = SubTask {
    name: "Mixed",
    context_mean: 16340.2,
    input_mean: 44.7,
    output_mean: 50.2,
};

/// The four rows of Table 1 / bar groups of Figure 10, in paper order.
pub fn table1_subtasks() -> Vec<SubTask> {
    vec![PAPER_ASSISTANT, GSM_100, QUALITY, LEVAL_AVG]
}

/// Generates `n` requests for a sub-task. Context lengths vary log-normally
/// around the published mean (σ=0.35 keeps the bimodal "long context, short
/// instruction" shape); each request reuses a distinct context
/// (`session_id` = request index) unless remapped by a popularity process
/// (see `zipf`).
pub fn generate_requests(task: &SubTask, n: usize, max_ctx: u32, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let ctx = rng
                .lognormal_with_mean(task.context_mean, 0.35)
                .round()
                .clamp(64.0, max_ctx as f64) as u32;
            let input = rng
                .lognormal_with_mean(task.input_mean, 0.5)
                .round()
                .max(1.0) as u32;
            let output = rng
                .lognormal_with_mean(task.output_mean.max(1.0), 0.5)
                .round()
                .max(1.0) as u32;
            Request {
                session_id: i as u64,
                arrival: 0.0,
                history_tokens: ctx,
                input_tokens: input,
                output_tokens: output,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::mean;

    #[test]
    fn table1_has_four_rows_in_paper_order() {
        let t = table1_subtasks();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].name, "Paper Assistant");
        assert_eq!(t[3].name, "Mixed");
    }

    #[test]
    fn generated_means_match_table1() {
        for task in table1_subtasks() {
            let reqs = generate_requests(&task, 4000, 32 * 1024, 11);
            let ctx = mean(
                &reqs
                    .iter()
                    .map(|r| r.history_tokens as f64)
                    .collect::<Vec<_>>(),
            );
            let rel = (ctx - task.context_mean).abs() / task.context_mean;
            assert!(
                rel < 0.1,
                "{}: ctx mean {ctx} vs {}",
                task.name,
                task.context_mean
            );
        }
    }

    #[test]
    fn bimodal_shape_context_much_longer_than_io() {
        // §2.3: contexts up to 16K, instructions/outputs below ~100.
        let reqs = generate_requests(&LEVAL_AVG, 1000, 32 * 1024, 5);
        let ctx = mean(
            &reqs
                .iter()
                .map(|r| r.history_tokens as f64)
                .collect::<Vec<_>>(),
        );
        let inp = mean(
            &reqs
                .iter()
                .map(|r| r.input_tokens as f64)
                .collect::<Vec<_>>(),
        );
        assert!(ctx / inp > 50.0, "ctx {ctx} vs input {inp}");
    }

    #[test]
    fn contexts_clamped_to_model_window() {
        let reqs = generate_requests(&LEVAL_AVG, 2000, 16 * 1024, 3);
        assert!(reqs.iter().all(|r| r.history_tokens <= 16 * 1024));
        assert!(reqs.iter().all(|r| r.history_tokens >= 64));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_requests(&QUALITY, 50, 16384, 1);
        let b = generate_requests(&QUALITY, 50, 16384, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn output_lengths_positive_even_for_tiny_means() {
        // GSM-100 mean output is 4.3; all outputs must still be >= 1.
        let reqs = generate_requests(&GSM_100, 500, 16384, 2);
        assert!(reqs.iter().all(|r| r.output_tokens >= 1));
    }
}
