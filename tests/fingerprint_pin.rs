//! Fingerprint pin: the AST fingerprint of every seed-corpus file and the
//! body and signature fingerprints of every function in it, as fixed
//! values.
//!
//! The incremental cache keys its records by these hashes, and they are
//! computed from the printed AST plus every node span. So an unchanged
//! table shows that the front end still builds the same trees (same
//! shapes, same literal text, same positions) and that caches written by
//! earlier builds stay valid without a `CACHE_FORMAT_VERSION` bump.
//!
//! The table lives in `tests/data/fingerprint_pin.txt`, one line per unit
//! (`unit <file> <ast>`) and per function (`fn <file> <name> <body> <sig>`),
//! hashes in hex. On a mismatch the observed table is written next to the
//! system temp dir's `fingerprint_pin.observed.txt` for diffing.

use flash_mc::ast::{parse_translation_unit, Fingerprint};
use flash_mc::corpus::{generate_fleet, DEFAULT_SEED};

const PIN: &str = include_str!("data/fingerprint_pin.txt");

/// The table for the seed corpus, files in protocol then file order.
fn observed() -> String {
    let mut out = String::new();
    for proto in generate_fleet(DEFAULT_SEED, 1) {
        for file in &proto.files {
            let name = format!("{}/{}", proto.name, file.name);
            let unit = parse_translation_unit(&file.source, &name).expect("seed file parses");
            out.push_str(&format!(
                "unit {name} {:016x}\n",
                Fingerprint::of_unit(&unit)
            ));
            for f in unit.functions() {
                let fp = Fingerprint::of_function(f);
                out.push_str(&format!(
                    "fn {name} {} {:016x} {:016x}\n",
                    f.name, fp.body, fp.sig
                ));
            }
        }
    }
    out
}

#[test]
fn seed_corpus_fingerprints_match_the_recorded_pin() {
    let got = observed();
    if got == PIN {
        return;
    }
    let path = std::env::temp_dir().join("fingerprint_pin.observed.txt");
    let _ = std::fs::write(&path, &got);
    let first = got
        .lines()
        .zip(PIN.lines())
        .find(|(g, w)| g != w)
        .map(|(g, w)| format!("first difference:\n  pinned:   {w}\n  observed: {g}"))
        .unwrap_or_else(|| {
            format!(
                "{} lines observed, {} pinned",
                got.lines().count(),
                PIN.lines().count()
            )
        });
    panic!(
        "fingerprints differ from the pin ({first}); observed table written to {}",
        path.display()
    );
}
