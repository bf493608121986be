//! Hardware-model integration tests: the full algorithm→hardware contract
//! (quantize → decompose → systolic array → dequantize equals the software
//! result), plus cross-checks between the functional simulator, the
//! analytic performance model, and the accelerator comparison.

use tender::model::ModelShape;
use tender::quant::tender::{
    implicit_requant_matmul, quantized_group_operands, QuantizedWeight, TenderCalibration,
    TenderConfig,
};
use tender::sim::accel::{Accelerator, AcceleratorKind};
use tender::sim::area::AreaModel;
use tender::sim::config::TenderHwConfig;
use tender::sim::dram::{HbmConfig, HbmModel};
use tender::sim::energy::run_energy;
use tender::sim::memory::IndexBuffer;
use tender::sim::msa::{GroupOperand, MultiScaleSystolicArray};
use tender::sim::perf::{tile_cycles, RequantMode};
use tender::sim::workload::PrefillWorkload;
use tender::tensor::rng::DetRng;
use tender::tensor::Matrix;

/// The full hardware path reproduces the software result end to end:
/// MSA integer accumulators, dequantized with the smallest group scale and
/// corrected with `bias · W`, equal `implicit_requant_matmul` exactly.
#[test]
fn msa_end_to_end_equals_software_result() {
    let mut rng = DetRng::new(77);
    let m = 12;
    let k = 24;
    let n = 10;
    let mut x = rng.normal_matrix(m, k, 0.5, 0.8);
    for r in 0..m {
        x[(r, 7)] = rng.normal(2.0, 20.0);
    }
    let wf = rng.normal_matrix(k, n, 0.0, 0.3);
    let config = TenderConfig::int8().with_groups(4).with_row_chunk(0);
    let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
    let w = QuantizedWeight::per_col(&wf, config.bits);
    let cc = calib.chunk_for_row(0);

    // Hardware path.
    let operands: Vec<GroupOperand> = quantized_group_operands(&x, cc, &w, &config)
        .into_iter()
        .map(|(a, b)| GroupOperand::new(a, b))
        .collect();
    let msa = MultiScaleSystolicArray::new(&TenderHwConfig::small_test(16));
    let hw = msa.run_groups(&operands, config.alpha);
    assert_eq!(hw.overflow_events, 0, "32-bit accumulators must suffice");

    // VPU dequantization: result = acc · s_G · s_w[col] + (bias · W_deq).
    let s_last = cc.scales[config.num_groups - 1];
    let w_deq = w.dequantized();
    let mut bias_corr = vec![0.0_f32; n];
    for (j, &b) in cc.bias.iter().enumerate() {
        for (c, corr) in bias_corr.iter_mut().enumerate() {
            *corr += b * w_deq[(j, c)];
        }
    }
    let hw_result = Matrix::from_fn(m, n, |r, c| {
        hw.at(r, c) as f32 * s_last * w.scales()[c] + bias_corr[c]
    });

    // Software path.
    let sw = implicit_requant_matmul(&x, &w, &calib, &config).result;
    assert!(
        hw_result.approx_eq(&sw, sw.abs_max() * 1e-5),
        "hardware and software paths must agree"
    );
}

/// The index buffer implements the implicit reordering of Figure 8: the
/// calibrated channel order is a permutation, and computing with reordered
/// channels changes nothing about the result.
#[test]
fn index_buffer_reordering_is_transparent() {
    let mut rng = DetRng::new(78);
    let mut x = rng.normal_matrix(8, 16, 0.0, 1.0);
    for r in 0..8 {
        x[(r, 3)] = rng.normal(0.0, 25.0);
    }
    let config = TenderConfig::int8().with_groups(4).with_row_chunk(0);
    let calib = TenderCalibration::from_samples(std::slice::from_ref(&x), &config);
    let order = calib.chunk_for_row(0).channel_order();

    let mut ib = IndexBuffer::new(16 * 1024);
    ib.program(&order).expect("order fits");
    let perm = ib.reorder_check(16); // panics if not a permutation
    assert_eq!(perm, order);

    // Gathering activation columns and weight rows by the same order
    // leaves the product invariant.
    let wf = rng.normal_matrix(16, 8, 0.0, 0.3);
    let direct = x.matmul(&wf).expect("shapes");
    let reordered = x
        .gather_cols(&order)
        .matmul(&wf.gather_rows(&order))
        .expect("shapes");
    assert!(reordered.approx_eq(&direct, direct.abs_max() * 1e-5));
}

/// The analytic tile model agrees exactly with the functional simulator on
/// a sweep of shapes (the validation DESIGN.md promises).
#[test]
fn analytic_model_matches_functional_simulator() {
    let hw = TenderHwConfig::small_test(8);
    let msa = MultiScaleSystolicArray::new(&hw);
    for (m, n, ks) in [
        (8, 8, vec![32]),
        (3, 7, vec![5, 9]),
        (8, 1, vec![4, 4, 4, 4]),
        (1, 1, vec![1]),
    ] {
        let ops: Vec<GroupOperand> = ks
            .iter()
            .map(|&k| {
                GroupOperand::new(
                    tender::tensor::IMatrix::zeros(m, k),
                    tender::tensor::IMatrix::zeros(k, n),
                )
            })
            .collect();
        let functional = msa.run_groups(&ops, 2).cycles;
        let analytic = tile_cycles(
            m,
            n,
            ks.iter().sum(),
            RequantMode::Implicit { groups: ks.len() },
            hw.vpu_lanes,
        );
        assert_eq!(functional, analytic, "m={m} n={n} ks={ks:?}");
    }
}

/// Fleet-level consistency: Tender is fastest and most energy-efficient of
/// the four iso-area designs on every evaluated model.
#[test]
fn tender_wins_speed_and_efficiency_on_every_model() {
    let hw = TenderHwConfig::paper();
    for shape in [ModelShape::opt_6_7b(), ModelShape::llama2_70b()] {
        let w = PrefillWorkload::new(&shape, 2048);
        let mut cycles = Vec::new();
        let mut energy = Vec::new();
        for kind in AcceleratorKind::ALL {
            let a = Accelerator::iso_area(kind, &hw, 8);
            let cost = a.run(&w);
            cycles.push((kind, cost.cycles));
            energy.push((kind, run_energy(&a, &w, &cost).total_j()));
        }
        let min_cycles = cycles.iter().min_by_key(|(_, c)| *c).expect("nonempty");
        assert_eq!(min_cycles.0, AcceleratorKind::Tender, "{}", shape.name);
        let min_energy = energy
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty");
        assert_eq!(min_energy.0, AcceleratorKind::Tender, "{}", shape.name);
    }
}

/// The DRAM estimate used by the accelerator models stays within 5% (plus
/// one refresh window of alignment slack) of the event-driven HBM2 model
/// for stream sizes spanning three decades.
#[test]
fn dram_estimate_tracks_event_model() {
    let cfg = HbmConfig::hbm2();
    for bytes in [512 * 1024_u64, 4 * 1024 * 1024, 64 * 1024 * 1024] {
        let mut hbm = HbmModel::new(cfg.clone());
        let event = hbm.transfer(0, bytes, 0) as f64;
        let est = HbmModel::stream_cycles_estimate(&cfg, bytes) as f64;
        let slack = 0.05 * event + cfg.t_rfc as f64;
        assert!(
            (event - est).abs() < slack,
            "bytes {bytes}: event {event} vs estimate {est}"
        );
    }
}

/// Table V invariant: iso-area scaling gives every baseline fewer PEs but
/// the same compute-area budget within one PE's worth.
#[test]
fn iso_area_budget_is_respected() {
    let hw = TenderHwConfig::paper();
    let budget = AreaModel::new(hw.clone()).compute_area_mm2();
    for kind in AcceleratorKind::ALL {
        let a = Accelerator::iso_area(kind, &hw, 8);
        let pes = (a.hw().sa_dim * a.hw().sa_dim) as f64;
        let per_pe = budget / (hw.sa_dim * hw.sa_dim) as f64;
        let used = pes * per_pe * tender::sim::area::relative_pe_area(kind);
        assert!(
            used <= budget * 1.001,
            "{kind:?} exceeds the area budget: {used} > {budget}"
        );
        assert!(
            used >= budget * 0.85,
            "{kind:?} wastes the area budget: {used} < {budget}"
        );
    }
}
