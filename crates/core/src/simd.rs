//! Interval implementations of SIMD intrinsics (Section V).
//!
//! The paper's pipeline (Fig. 4) runs the generated C implementation of
//! every intrinsic back through IGen, producing the interval version
//! (`igen_simd.c/.h`); a small set of very common intrinsics is replaced
//! by hand-optimized implementations instead. [`compile_intrinsics`]
//! performs exactly that: it generates C from the embedded specification
//! corpus and self-compiles it.

use crate::lower;
use crate::{CompileError, Config};
use igen_cfront::TranslationUnit;

/// Intrinsics for which the runtime ships hand-optimized interval
/// implementations (detected "by checking name and signature", Section V
/// "Optimized implementations"); the generated fallback is not used for
/// these.
pub const HAND_OPTIMIZED: &[&str] = &[
    "_mm_add_pd",
    "_mm_sub_pd",
    "_mm_mul_pd",
    "_mm_div_pd",
    "_mm_min_pd",
    "_mm_max_pd",
    "_mm_sqrt_pd",
    "_mm_loadu_pd",
    "_mm_storeu_pd",
    "_mm_set1_pd",
    "_mm_setzero_pd",
    "_mm256_add_pd",
    "_mm256_sub_pd",
    "_mm256_mul_pd",
    "_mm256_div_pd",
    "_mm256_min_pd",
    "_mm256_max_pd",
    "_mm256_sqrt_pd",
    "_mm256_loadu_pd",
    "_mm256_load_pd",
    "_mm256_storeu_pd",
    "_mm256_store_pd",
    "_mm256_set1_pd",
    "_mm256_setzero_pd",
    "_mm256_blendv_pd",
    "_mm256_fmadd_pd",
    "_mm256_hadd_pd",
];

/// True if the runtime provides a hand-optimized interval implementation
/// for the named intrinsic.
pub fn hand_optimized(name: &str) -> bool {
    HAND_OPTIMIZED.contains(&name)
}

/// Result of compiling the intrinsics corpus to interval implementations.
#[derive(Debug, Clone)]
pub struct IntrinsicsOutput {
    /// The transformed translation unit (`igen_simd.c` of Fig. 4).
    pub unit: TranslationUnit,
    /// Pretty-printed source.
    pub c_source: String,
    /// Intrinsics that could not be generated (each with the reason) —
    /// the paper's "had to be implemented manually" set.
    pub skipped: Vec<(String, String)>,
}

/// Generates C implementations for the whole embedded corpus and compiles
/// them to interval code — the complete Fig. 4 pipeline. Intrinsics whose
/// generated code is not transformable (e.g. raw bit shifts on the
/// integer view, as in `_mm256_blendv_pd`'s mask test) are reported in
/// `skipped` — these are exactly the ones the runtime must hand-optimize,
/// as the paper describes in Section V "Optimized implementations".
///
/// # Errors
///
/// Currently infallible in practice (failures go to `skipped`); the
/// `Result` is kept for API stability.
pub fn compile_intrinsics(cfg: &Config) -> Result<IntrinsicsOutput, CompileError> {
    use igen_cfront::{Item, TranslationUnit};
    let specs = igen_simdgen::corpus_specs();
    let (gen_unit, errors) = igen_simdgen::generate_unit(&specs);
    let mut skipped: Vec<(String, String)> =
        errors.into_iter().map(|(n, e)| (n, e.to_string())).collect();
    let mut items: Vec<Item> = vec![Item::Include("\"igen_lib.h\"".to_string())];
    let prefix = igen_ir::temp_prefix(&lower::t_names(&[&gen_unit]));
    for item in &gen_unit.items {
        match item {
            Item::Typedef(td) => items.push(Item::Typedef(lower::promote_typedef(td, cfg))),
            Item::Function(f) => {
                let mut xf = lower::Xform::new(cfg, &prefix);
                match xf.function(f) {
                    Ok(tf) => items.push(Item::Function(tf)),
                    Err(e) => {
                        let name = f.name.strip_prefix("_c").unwrap_or(&f.name).to_string();
                        skipped.push((name, format!("{e} (hand-optimized instead)")));
                    }
                }
            }
            other => items.push(other.clone()),
        }
    }
    let unit = TranslationUnit { items };
    let c_source = igen_cfront::print_unit(&unit);
    Ok(IntrinsicsOutput { unit, c_source, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_self_compiles() {
        let out = compile_intrinsics(&Config::default()).unwrap();
        let c = &out.c_source;
        // The generated interval intrinsic bodies use the runtime ops on
        // the promoted union fields.
        assert!(c.contains("_c_mm256_add_pd"), "{c}");
        assert!(c.contains("ia_add_f64(a.f[i / 64], b.f[i / 64])"), "{c}");
        assert!(c.contains("ia_sqrt_f64"), "{c}");
        // Skipped: the deliberate unsupported corpus entry plus
        // blendv_pd, whose generated mask test shifts raw bits — exactly
        // the kind of intrinsic the paper hand-optimizes instead.
        let names: Vec<&str> = out.skipped.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["_mm256_round_pd", "_mm256_blendv_pd"], "{:?}", out.skipped);
        assert!(hand_optimized("_mm256_blendv_pd"));
        // Output re-parses.
        igen_cfront::parse(c).unwrap();
    }

    #[test]
    fn hand_optimized_set() {
        assert!(hand_optimized("_mm256_add_pd"));
        assert!(hand_optimized("_mm_mul_pd"));
        assert!(!hand_optimized("_mm256_round_pd"));
        assert!(!hand_optimized("_mm256_cvtps_pd"));
    }
}
