//! Correctness checks wired into the run's exit status, and the
//! teacher-forced quality metric.
//!
//! * **K1** — FP32 weights + f32 cache: the greedy token after every
//!   position of `prefill ∘ stepⁿ` equals the argmax of
//!   `ReferenceModel::forward` on the whole sequence, exactly.
//! * **K2** — every repetition (and the traced pass) reproduces repetition
//!   0's outputs; checked where the repetitions run, in `main.rs`.
//! * **K3** — serve accounting; [`serve_accounting`].
//! * **K4** — the MACs a decode step reports equal the `sim::generation`
//!   formulas; checked on the last step of the agreement pass.

use tender::model::calibration::{token_batches, CorpusKind};
use tender::model::{greedy_token, DecodeSession, KvCacheMode};
use tender::serve::ServeReport;
use tender::sim::generation::{decode_step_macs, kv_int_dot_macs};

use crate::workloads::{Env, Sizes, Spec};

/// Length of the K1 sequence and of its prefilled head.
const K1_LEN: usize = 48;
const K1_PROMPT: usize = 24;

/// K1. Returns a description of the first mismatch.
pub fn k1_decode_equals_forward(env: &Env, seed: u64) -> Result<(), String> {
    let vocab = env.shape.vocab;
    let seq = token_batches(CorpusKind::Wiki, vocab, 1, K1_LEN, seed ^ 0x4b31).remove(0);
    let reference = env.exp.reference();
    let full = reference.forward(&seq);
    let mut s = DecodeSession::new(reference);
    let logits = s.prefill(&seq[..K1_PROMPT]);
    let mut got = greedy_token(&logits, K1_PROMPT - 1, K1_PROMPT, vocab);
    for pos in K1_PROMPT - 1..K1_LEN {
        let want = greedy_token(&full, pos, pos + 1, vocab);
        if got != want {
            return Err(format!(
                "K1: decode argmax {got} != forward argmax {want} at position {pos}"
            ));
        }
        if pos + 1 < K1_LEN {
            let logits = s
                .step(seq[pos + 1])
                .map_err(|e| format!("K1: step failed at position {pos}: {e}"))?;
            got = greedy_token(&logits, 0, pos + 2, vocab);
        }
    }
    Ok(())
}

/// K3. `demotion` says which side of the demotion bypass the run must be
/// on: `Some(true)` — pages were demoted *and* admission refused requests
/// for KV budget; `Some(false)` — no page was demoted; `None` — either.
pub fn serve_accounting(
    report: &ServeReport,
    submitted: u64,
    demotion: Option<bool>,
) -> Result<(), String> {
    let rejected = report.rejected_queue + report.rejected_kv;
    if report.unresolved != 0 {
        return Err(format!("K3: {} requests unresolved", report.unresolved));
    }
    if submitted != report.admitted + rejected {
        return Err(format!(
            "K3: submitted {submitted} != admitted {} + rejected {rejected}",
            report.admitted
        ));
    }
    if report.admitted != report.completed + report.expired + report.failed {
        return Err(format!(
            "K3: admitted {} != completed {} + expired {} + failed {}",
            report.admitted, report.completed, report.expired, report.failed
        ));
    }
    match demotion {
        Some(true) if report.kv_demoted_pages == 0 || report.rejected_kv == 0 => Err(format!(
            "K3: pressure mechanisms idle (demoted pages {}, kv rejections {})",
            report.kv_demoted_pages, report.rejected_kv
        )),
        Some(false) if report.kv_demoted_pages != 0 => Err(format!(
            "K3: {} pages demoted on a workload that must bypass demotion",
            report.kv_demoted_pages
        )),
        _ => Ok(()),
    }
}

/// Outcome of the agreement pass.
pub struct Agreement {
    /// Positions whose argmax matched the FP32 reference, and positions
    /// compared.
    pub matched: u64,
    pub compared: u64,
    /// MACs and integer-domain KV MACs the last decode step reported.
    pub step_macs: u64,
    pub step_kv_int_macs: u64,
    /// K4 verdict for that step.
    pub k4: Result<(), String>,
}

/// Teacher-forced quality, untimed: roll the FP32 reference model (f32
/// cache) greedily from a prompt, feed the *same* tokens to the workload's
/// weights + KV mode, and count positions — prompt positions from the
/// prefill logits, then every decode step — whose argmax matches.
///
/// The prompts are a fixed evaluation set drawn from the *model* seed, not
/// from `--seed`: quality is a property of (model, scheme, KV mode), and a
/// fixed set makes the share repeat exactly, so a 2 % bound can catch a
/// numerics change that a few hundred re-drawn positions (±3 % from the
/// draw alone) would hide.
pub fn argmax_agreement(env: &Env, spec: &Spec, sizes: &Sizes) -> Agreement {
    let vocab = env.shape.vocab;
    let layers = env.shape.layers as u64;
    let prompts = token_batches(
        CorpusKind::Wiki,
        vocab,
        sizes.agree_sessions,
        sizes.agree_prompt,
        env.exp.options().seed ^ 0xa97e,
    );
    let mut out = Agreement {
        matched: 0,
        compared: 0,
        step_macs: 0,
        step_kv_int_macs: 0,
        k4: Ok(()),
    };
    for prompt in &prompts {
        let n = prompt.len();
        let mut rs = DecodeSession::new(env.exp.reference());
        let mut ws = DecodeSession::with_cache_mode(env.model(spec.weights), spec.kv);
        let r_logits = rs.prefill(prompt);
        let w_logits = ws.prefill(prompt);
        for pos in 0..n {
            out.compared += 1;
            let want = greedy_token(&r_logits, pos, pos + 1, vocab);
            out.matched += u64::from(greedy_token(&w_logits, pos, pos + 1, vocab) == want);
        }
        let mut tok = greedy_token(&r_logits, n - 1, n, vocab);
        for i in 0..sizes.agree_steps {
            let (Ok(r), Ok(w)) = (rs.step(tok), ws.step(tok)) else {
                out.k4 = Err(format!("K4: agreement step {i} failed"));
                return out;
            };
            let len = n + i + 1;
            tok = greedy_token(&r, 0, len, vocab);
            out.compared += 1;
            out.matched += u64::from(greedy_token(&w, 0, len, vocab) == tok);
        }
        if sizes.agree_steps > 0 {
            let len = ws.len();
            out.step_macs = ws.last_step_macs();
            out.step_kv_int_macs = ws.last_step_kv_int_macs();
            let want = layers * decode_step_macs(&env.shape, len, 1);
            let want_int = match spec.kv {
                KvCacheMode::F32 => 0,
                mode => layers * kv_int_dot_macs(&env.shape, len, 1, mode),
            };
            if out.step_macs != want || out.step_kv_int_macs != want_int {
                out.k4 = Err(format!(
                    "K4: step at context {len} reported {} MACs ({} integer), sim formula says {want} ({want_int})",
                    out.step_macs, out.step_kv_int_macs
                ));
            }
        }
    }
    out
}
