//! Table II — lines of code (without blank lines and comments) of each part
//! of the system: the Platform Part (reused by every DSL), the DSL Part
//! (written once per DSL), the App Part (what the end-user writes) and the
//! handwritten baselines.

use aohpc_bench::count_loc;
use std::path::Path;

fn main() {
    println!("# Table II — lines of code without blanks and comments");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rows = [
        (
            "Platform Part (aop + mem + env + runtime + core + kernel)",
            vec![
                "crates/aop/src",
                "crates/mem/src",
                "crates/env/src",
                "crates/runtime/src",
                "crates/core/src",
                "crates/kernel/src",
            ],
        ),
        ("DSL Part (sgrid + usgrid + particle systems)", vec!["crates/dsl/src"]),
        ("App Part (end-user examples)", vec!["examples"]),
        ("Handwritten baselines", vec!["crates/baselines/src"]),
        ("Evaluation harness", vec!["crates/bench/src"]),
    ];
    for (label, dirs) in rows {
        let total: usize = dirs.iter().map(|d| count_loc(&root.join(d))).sum();
        println!("{label:<55} {total:>8}");
    }
    println!();
    println!(
        "(paper: Platform Part ~1.1-3.2k, DSL Part ~0.4-0.6k, App Part comparable to handwritten)"
    );
}
