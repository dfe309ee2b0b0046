//! Property tests for the IR layer: the printer and parser must be exact
//! inverses on every well-formed kernel, and the verifier must accept what
//! the builder produces.

use uu_check::{build_kernel, check, Config, KernelSpec};
use uu_ir::{parse_function, verify_function};

#[test]
fn built_kernels_verify() {
    check(
        "built_kernels_verify",
        &Config::from_env(64),
        |spec: &KernelSpec| {
            let f = build_kernel(spec);
            verify_function(&f).map_err(|e| format!("builder produced invalid IR: {e}\n{f}"))
        },
    );
}

/// Printed text is already the fixpoint: one print → parse → print round
/// reproduces it byte for byte (the parser keeps every printed number), and
/// the reparsed function verifies.
#[test]
fn print_parse_reaches_fixpoint_after_one_round() {
    check(
        "print_parse_reaches_fixpoint_after_one_round",
        &Config::from_env(64),
        |spec: &KernelSpec| {
            let f = build_kernel(spec);
            let text = f.to_string();
            let g = parse_function(&text).map_err(|e| format!("parse failed: {e}\n{text}"))?;
            verify_function(&g).map_err(|e| format!("reparsed IR invalid: {e}\n{g}"))?;
            let again = g.to_string();
            if again != text {
                return Err(format!(
                    "print -> parse -> print is not a fixpoint.\n\
                     first print:\n{text}\nsecond print:\n{again}"
                ));
            }
            Ok(())
        },
    );
}
