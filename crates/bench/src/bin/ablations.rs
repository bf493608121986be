//! Ablation studies over Tender's design choices (§III-B "Power of 2"
//! discussion): channel-bias subtraction, rescale factor α, row chunking,
//! static vs dynamic calibration, and classification vs K-means clustering
//! (the RPTQ approach) — in both accuracy and calibration cost.

#![forbid(unsafe_code)]

use std::time::Instant;

use tender::model::calibration::CorpusKind;
use tender::model::eval::perplexity;
use tender::model::ModelShape;
use tender::quant::baselines::RptqScheme;
use tender::quant::scheme::Scheme;
use tender::quant::tender::{ChunkCalibration, TenderConfig, TenderScheme};
use tender::tensor::stats;
use tender::{Experiment, ExperimentOptions};
use tender_bench::fmt::{fmt_ppl, Table};

fn main() {
    let shape = ModelShape::opt_6_7b().eval_preset();
    let opts = ExperimentOptions::standard();
    let exp = Experiment::new(&shape, opts);
    let base = exp.reference_perplexity(CorpusKind::Wiki);
    let seq = opts.seq_len;

    let ppl_of = |scheme: Box<dyn Scheme>| -> f64 {
        let qm = exp.quantize(scheme);
        perplexity(|t| qm.forward(t), exp.eval_set(CorpusKind::Wiki))
    };

    // --- Ablation 1: channel bias -------------------------------------
    let mut t1 = Table::new(
        "Ablation: channel-bias subtraction (OPT-6.7B preset, INT4, Wiki)",
        &["Variant", "ppl"],
    );
    t1.row(vec!["FP32 base".into(), fmt_ppl(base)]);
    for (label, bias) in [("with bias (paper)", true), ("without bias", false)] {
        let cfg = TenderConfig::int4().with_row_chunk(seq / 8).with_bias(bias);
        t1.row(vec![
            label.into(),
            fmt_ppl(ppl_of(Box::new(TenderScheme::new(cfg)))),
        ]);
    }
    t1.note("the bias reclaims the range sign-consistent outlier channels waste (Fig. 4 step 1)");
    t1.print();

    // --- Ablation 2: rescale factor alpha ------------------------------
    let mut t2 = Table::new(
        "Ablation: rescale factor alpha (INT4, groups scaled to keep coverage)",
        &["alpha", "groups", "ppl", "HW rescale cost"],
    );
    for (alpha, groups) in [(2_u32, 12_usize), (3, 8), (4, 6)] {
        let cfg = TenderConfig {
            bits: 4,
            num_groups: groups,
            alpha,
            row_chunk: seq / 8,
            quant_act_act: false,
            subtract_bias: true,
        };
        let cost = if alpha.is_power_of_two() {
            format!("{} cycle/boundary", alpha.trailing_zeros().max(1))
        } else {
            "8 cycles/boundary".to_string()
        };
        t2.row(vec![
            alpha.to_string(),
            groups.to_string(),
            fmt_ppl(ppl_of(Box::new(TenderScheme::new(cfg)))),
            cost,
        ]);
    }
    t2.note(
        "alpha = 2 keeps single-cycle shifts; larger alpha trades finer ladders for rescale cycles",
    );
    t2.print();

    // --- Ablation 3: row-chunk size -----------------------------------
    let mut t3 = Table::new("Ablation: row-chunk size (INT4)", &["chunk", "ppl"]);
    for chunk in [0_usize, seq / 2, seq / 4, seq / 8] {
        let cfg = TenderConfig::int4().with_row_chunk(chunk);
        let label = if chunk == 0 {
            "none".to_string()
        } else {
            chunk.to_string()
        };
        t3.row(vec![
            label,
            fmt_ppl(ppl_of(Box::new(TenderScheme::new(cfg)))),
        ]);
    }
    t3.note("chunking matters most under intra-channel (position-dependent) variance");
    t3.print();

    // --- Ablation 4: classification vs clustering (RPTQ) ---------------
    let mut t4 = Table::new(
        "Ablation: power-of-2 classification vs K-means clustering (INT4)",
        &["Method", "groups", "ppl", "calibration"],
    );
    let layer = shape.layers / 2;
    let sample = exp
        .reference()
        .qkv_input_activation(&exp.calibration_batches()[0].clone(), layer);
    // Calibration-cost microbenchmark on one site.
    let t_class = {
        let cfg = TenderConfig::int4().with_row_chunk(0);
        let start = Instant::now();
        for _ in 0..50 {
            let _ = ChunkCalibration::from_activation(&sample, &cfg);
        }
        start.elapsed().as_secs_f64() / 50.0
    };
    let t_cluster = {
        let mm = stats::col_min_max(&sample);
        let start = Instant::now();
        for _ in 0..50 {
            let _ = tender::quant::baselines::kmeans_min_max(&mm, 12, 20);
        }
        start.elapsed().as_secs_f64() / 50.0
        // (K-means alone — RPTQ still needs the same min/max scan on top.)
    };
    t4.row(vec![
        "Tender classification".into(),
        "12".into(),
        fmt_ppl(ppl_of(Box::new(TenderScheme::new(
            TenderConfig::int4().with_row_chunk(0),
        )))),
        format!("{:.1} us/site", t_class * 1e6),
    ]);
    t4.row(vec![
        "RPTQ K-means".into(),
        "12".into(),
        fmt_ppl(ppl_of(Box::new(RptqScheme::new(4, 12)))),
        format!("{:.1} us/site (+scan)", t_cluster * 1e6),
    ]);
    t4.note("clustering groups tightly but needs explicit per-group dequantization at runtime");
    t4.note("(§III-B: classification is 'much faster than clustering' and runtime-friendly)");
    t4.print();
}
