//! The figure-regeneration binary must keep producing all twelve figures
//! with their load-bearing content: it is the reproduction of the paper's
//! qualitative comparisons (Figs. 1–12, against `hrdm-baseline`).

use std::process::Command;

#[test]
fn figures_binary_regenerates_all_figures() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .output()
        .expect("figures binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8 output");

    for n in 1..=12 {
        assert!(
            text.contains(&format!("Figure {n}:")),
            "figure {n} missing from output"
        );
    }
    // Load-bearing content per figure:
    // Fig. 6's evolved attribute lifespan with a gap.
    assert!(text.contains("ALS = {[5,15], [28,40]}"), "Fig. 6 ALS wrong");
    // Fig. 7's vls = X ∩ Y probes.
    assert!(
        text.contains(
            "value defined at 25? true; at 15 (in Y only)? false; at 32 (in X only)? false"
        ),
        "Fig. 7 vls probes wrong"
    );
    // Fig. 9's three levels all present.
    for level in ["REPRESENTATION", "MODEL", "PHYSICAL"] {
        assert!(text.contains(level), "Fig. 9 missing {level} level");
    }
    assert!(
        text.contains("checksum ok: true"),
        "Fig. 9 page checksum failed"
    );
    // Fig. 11's union vs object-union contrast.
    assert!(
        text.contains("key constraint audit: key violation"),
        "Fig. 11 plain union should violate the key constraint"
    );
    assert!(
        text.contains("1 tuple (merged object)"),
        "Fig. 11 object union should merge"
    );
    // Fig. 12's access-path contrast: both index kinds chosen, and a
    // sequential fallback for the non-indexable predicate.
    assert!(
        text.contains("emp: 3 tuples in 1 partition(s) (span=2^10), 3 distinct keys"),
        "Fig. 12 missing the access-path summary"
    );
    assert!(
        text.contains("IndexScan(lifespan, [0..10])"),
        "Fig. 12 missing lifespan IndexScan"
    );
    assert!(
        text.contains("IndexScan(key, NAME = \"Mary\")"),
        "Fig. 12 missing key IndexScan"
    );
    assert!(
        text.contains("[SeqScan]"),
        "Fig. 12 missing SeqScan fallback"
    );
}
