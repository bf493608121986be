//! Scheme registry: the named configurations that appear in the paper's
//! tables, constructible by name for the experiment binaries.

use tender_quant::baselines::{
    AntScheme, MixedPrecisionScheme, MsfpScheme, MsfpVariant, MxFormat, MxScheme, OliveScheme,
    SmoothQuantScheme,
};
use tender_quant::granularity::{Granularity, GranularityScheme};
use tender_quant::scheme::{ExactScheme, Fp16Scheme, Scheme};
use tender_quant::tender::{TenderConfig, TenderScheme};

/// A display name plus a factory for the scheme it denotes.
pub struct NamedScheme {
    /// Name as used in the paper's tables.
    pub name: &'static str,
    factory: Box<dyn Fn() -> Box<dyn Scheme> + Send + Sync>,
}

impl NamedScheme {
    /// Creates a named scheme.
    pub fn new<F>(name: &'static str, factory: F) -> Self
    where
        F: Fn() -> Box<dyn Scheme> + Send + Sync + 'static,
    {
        Self {
            name,
            factory: Box::new(factory),
        }
    }

    /// Instantiates the scheme.
    pub fn build(&self) -> Box<dyn Scheme> {
        (self.factory)()
    }
}

impl std::fmt::Debug for NamedScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NamedScheme({})", self.name)
    }
}

/// Tender at a bit width with the paper's table defaults.
fn tender_config(bits: u32) -> TenderConfig {
    match bits {
        8 => TenderConfig::int8(),
        4 => TenderConfig::int4(),
        _ => TenderConfig {
            bits,
            ..TenderConfig::int8()
        },
    }
}

/// The scheme lineup of Table II at one precision:
/// SmoothQuant, ANT, OliVe, Tender.
pub fn table2_schemes(bits: u32) -> Vec<NamedScheme> {
    vec![
        NamedScheme::new("SmoothQuant", move || {
            Box::new(SmoothQuantScheme::new(bits))
        }),
        NamedScheme::new("ANT", move || Box::new(AntScheme::new(bits))),
        NamedScheme::new("OliVe", move || Box::new(OliveScheme::new(bits))),
        NamedScheme::new("Tender", move || {
            Box::new(TenderScheme::new(tender_config(bits)))
        }),
    ]
}

/// Looks up any named scheme used across the experiments.
///
/// Recognized names: `FP32`, `FP16`, `per-tensor@B`, `per-row@B`,
/// `per-column@B`, `SmoothQuant@B`, `LLM.int8`, `ANT@B`, `OliVe@B`,
/// `Tender@B`, `Tender-all@B`, `MSFP12`, `MSFP12-OL`, `SMX4`, `MXFP4`
/// (where `B` is a bit width, e.g. `Tender@4`).
pub fn scheme_by_name(name: &str) -> Option<Box<dyn Scheme>> {
    let (base, bits) = match name.split_once('@') {
        Some((b, w)) => (b, w.parse::<u32>().ok()?),
        None => (name, 8),
    };
    Some(match base {
        "FP32" => Box::new(ExactScheme::new()),
        "FP16" => Box::new(Fp16Scheme::new()),
        "per-tensor" => Box::new(GranularityScheme::new(bits, Granularity::PerTensor)),
        "per-row" => Box::new(GranularityScheme::new(bits, Granularity::PerRow)),
        "per-column" => Box::new(GranularityScheme::new(bits, Granularity::PerCol)),
        "SmoothQuant" => Box::new(SmoothQuantScheme::new(bits)),
        "LLM.int8" => Box::new(MixedPrecisionScheme::new(bits)),
        "ANT" => Box::new(AntScheme::new(bits)),
        "OliVe" => Box::new(OliveScheme::new(bits)),
        "Tender" => Box::new(TenderScheme::new(tender_config(bits))),
        "Tender-all" => Box::new(TenderScheme::new(tender_config(bits).with_act_act(true))),
        "MSFP12" => Box::new(MsfpScheme::new(MsfpVariant::Msfp12)),
        "MSFP12-OL" => Box::new(MsfpScheme::new(MsfpVariant::Msfp12Ol)),
        "SMX4" => Box::new(MxScheme::new(MxFormat::Smx4)),
        "MXFP4" => Box::new(MxScheme::new(MxFormat::Mxfp4)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tender_tensor::rng::DetRng;
    use tender_tensor::Matrix;

    #[test]
    fn table2_lineup_matches_paper() {
        let names: Vec<&str> = table2_schemes(8).iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["SmoothQuant", "ANT", "OliVe", "Tender"]);
    }

    /// One spelling of every base name [`scheme_by_name`] recognizes.
    const NAMES: [&str; 15] = [
        "FP32",
        "FP16",
        "per-tensor@8",
        "per-row@4",
        "per-column@8",
        "SmoothQuant@4",
        "LLM.int8",
        "ANT@4",
        "OliVe@8",
        "Tender@4",
        "Tender-all@8",
        "MSFP12",
        "MSFP12-OL",
        "SMX4",
        "MXFP4",
    ];

    #[test]
    fn schemes_instantiate_with_bit_widths() {
        for name in NAMES {
            assert!(scheme_by_name(name).is_some(), "{name} must resolve");
        }
    }

    /// The license the decode engine's stacked step rests on, checked for
    /// every scheme the registry builds (the degradation ladder's
    /// `per-tensor@8` and `FP16` rungs among them) at both table
    /// precisions, on an activation with outlier channels, ReLU zeros and
    /// rows of very different magnitude:
    ///
    /// * `forward_rows` treats its rows as independent tokens — row `r` of a
    ///   stack at scattered positions is bit-equal to that row run alone at
    ///   its position;
    /// * its default, `forward(x)`, is only right for an operator whose
    ///   `forward` is itself row-independent, so that is checked too — with
    ///   the one operator that looks across the rows of a call (MSFP12-OL's
    ///   column blocks) named, and shown to really do so.
    #[test]
    fn every_scheme_stacks_rows_independently() {
        const LOOKS_ACROSS_ROWS: [&str; 1] = ["MSFP12-OL"];
        let mut rng = DetRng::new(41);
        let (rows, k, n) = (24, 32, 12);
        let mut x = Matrix::from_fn(rows, k, |r, _| {
            rng.normal(0.0, 0.5).max(-0.2) * (1 + r % 5) as f32
        });
        for r in 0..rows {
            x[(r, 3)] = rng.normal(2.0, 30.0);
            x[(r, 17)] = rng.normal(-1.0, 14.0);
        }
        let calib = [x.clone(), rng.normal_matrix(rows, k, 0.0, 1.0)];
        let w = rng.normal_matrix(k, n, 0.0, 0.2);
        // Scattered, unordered, with neighbours and a repeat.
        let positions: Vec<usize> = (0..rows).map(|r| (r * 7 + 3) % 20 + r / 12).collect();
        let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for name in NAMES {
            let base = name.split('@').next().expect("a base name");
            for width in [8, 4] {
                let name = format!("{base}@{width}");
                let scheme = scheme_by_name(&name).expect("a registry name");
                let op = scheme.prepare(&calib, &w);
                let stacked = op.forward_rows(&x, &positions);
                let full = op.forward(&x);
                assert_eq!(stacked.shape(), (rows, n), "{name}");
                let mut forward_is_row_independent = true;
                for r in 0..rows {
                    let row = x.slice_rows(r, r + 1);
                    assert_eq!(
                        bits(op.forward_rows(&row, &positions[r..=r]).row(0)),
                        bits(stacked.row(r)),
                        "{name}: stacked row {r} is not the row alone"
                    );
                    assert_eq!(
                        bits(op.forward_at(&row, positions[r]).row(0)),
                        bits(stacked.row(r)),
                        "{name}: forward_at is forward_rows over a range of one"
                    );
                    forward_is_row_independent &=
                        bits(op.forward(&row).row(0)) == bits(full.row(r));
                }
                assert_eq!(
                    forward_is_row_independent,
                    !LOOKS_ACROSS_ROWS.contains(&base),
                    "{name}: forward's row independence"
                );
            }
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(scheme_by_name("GPTQ").is_none());
        assert!(scheme_by_name("Tender@x").is_none());
    }

    #[test]
    fn tender_all_quantizes_act_act() {
        let s = scheme_by_name("Tender-all@8").unwrap();
        assert!(s.quantizes_act_act());
        let s = scheme_by_name("Tender@8").unwrap();
        assert!(!s.quantizes_act_act());
    }
}
