//! Verdict pin: the `sat` / `confirmed` / `refuted` split of every seed
//! corpus protocol under default flags, and the fingerprint of every
//! `confirmed` report, as fixed values.
//!
//! Every other equivalence gate compares the code under test with itself
//! (jobs, cache state, shards, client surfaces), so a change that silently
//! stopped confirming reports would pass all of them. This test compares
//! with numbers recorded once, from the whole-program confirmation pass
//! that used to run in `mcheck` after checking.
//!
//! Each protocol is checked on its own, the way
//! `mcheck --builtin --spec P/spec.json P/*.c` checks it from the directory
//! `mcheck --emit-corpus` wrote: file names are `P/<file>`, in name order.

use flash_mc::corpus::{generate_fleet, Protocol, DEFAULT_SEED};
use flash_mc::driver::{CheckEngine, Verdict};

/// `(protocol, sat, confirmed, refuted, confirmed fingerprints)`.
type Pin = (&'static str, usize, usize, usize, &'static [&'static str]);

/// Recorded from the whole-program confirmation pass (see CHANGES.md).
const PINS: &[Pin] = &[
    (
        "bitvector",
        7,
        7,
        4,
        &[
            "56265231f4144f66",
            "782c3d988e3b80cb",
            "8f586875eb8cd414",
            "c868896f0cf3fbf1",
            "d55f0130054b0444",
            "d82c6ecb1b5d7d26",
            "da7cf1529626477e",
        ],
    ),
    (
        "dyn_ptr",
        16,
        3,
        11,
        &["6c0250d4a5356780", "b62f6a04d2d6dfc9", "e0fa08f9227ff350"],
    ),
    ("sci", 4, 2, 1, &["12ab3650d39f9db7", "944e8a01b23c1cc0"]),
    ("coma", 5, 0, 0, &[]),
    ("rac", 13, 1, 7, &["113ace557d161d6e"]),
    (
        "common",
        0,
        3,
        2,
        &["19476eeedbf333f8", "1b02fad4af6d6ed7", "d86d0a9364609b87"],
    ),
];

/// The protocol's sources as `mcheck P/*.c` reads them.
fn sources(proto: &Protocol) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = proto
        .files
        .iter()
        .map(|f| (f.source.clone(), format!("{}/{}", proto.name, f.name)))
        .collect();
    files.sort_by(|a, b| a.1.cmp(&b.1));
    files
}

/// One protocol's observed row, in the shape of [`Pin`].
type Row = (String, usize, usize, usize, Vec<String>);

/// Checks one protocol through the path every client surface shares,
/// with `mcheck`'s default flags.
fn observed(proto: &Protocol) -> Row {
    let dir = std::env::temp_dir().join(format!(
        "mc-verdict-pin-{}-{}",
        proto.name,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, mc_json::to_string_pretty(&proto.spec)).expect("spec written");
    let opts = mc_cli::Options {
        builtin: true,
        spec: Some(spec),
        jobs: Some(1),
        ..mc_cli::Options::default()
    };
    let driver = mc_cli::build_driver(&opts).expect("driver builds");
    let mut engine = CheckEngine::in_memory();
    let (shown, _, refuted, _) =
        mc_cli::checked_reports(&driver, &mut engine, &opts, &sources(proto)).expect("checks");
    let _ = std::fs::remove_dir_all(&dir);
    let count = |v: Verdict| shown.iter().filter(|r| r.verdict == v).count();
    let mut fps: Vec<String> = shown
        .iter()
        .filter(|r| r.verdict == Verdict::Confirmed)
        .map(|r| r.fingerprint())
        .collect();
    fps.sort();
    (
        proto.name.clone(),
        count(Verdict::Sat),
        count(Verdict::Confirmed),
        refuted,
        fps,
    )
}

#[test]
fn seed_corpus_verdicts_match_the_recorded_pin() {
    let got: Vec<Row> = generate_fleet(DEFAULT_SEED, 1)
        .iter()
        .map(observed)
        .collect();
    let want: Vec<Row> = PINS
        .iter()
        .map(|(name, sat, confirmed, refuted, fps)| {
            let fps = fps.iter().map(|f| f.to_string()).collect();
            (name.to_string(), *sat, *confirmed, *refuted, fps)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, sat, confirmed, refuted, fps)| {
            format!("    (\"{name}\", {sat}, {confirmed}, {refuted}, &{fps:?}),\n")
        })
        .collect();
    assert_eq!(got, want, "observed verdict table:\n{table}");
}
