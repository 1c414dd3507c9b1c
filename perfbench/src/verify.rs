//! Running `mcheck` in-process, reducing its output to a comparable
//! signature, and scoring reports against the corpus manifests.

use crate::inputs::Corpus;
use mc_corpus::eval::evaluate_full;
use mc_corpus::PlantedKind;
use mc_driver::Report;
use mc_json::{FromJson, Json};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The analysis flags of a workload. Only flags that are part of the
/// tool's lasting interface appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flags {
    /// Symbolic refutation (and with it concrete replay) on.
    pub refute: bool,
}

impl Flags {
    /// The `mcheck` arguments for these flags over `corpus`.
    pub fn args(&self, corpus: &Corpus, jobs: usize, cache: Option<&Path>) -> Vec<String> {
        let mut args = vec![
            "--builtin".to_string(),
            "--spec".into(),
            path_arg(&corpus.spec),
            "--format".into(),
            "json".into(),
            "--jobs".into(),
            jobs.to_string(),
        ];
        if !self.refute {
            args.push("--no-refute".into());
        }
        if let Some(dir) = cache {
            args.push("--cache-dir".into());
            args.push(path_arg(dir));
        }
        args.extend(corpus.files.iter().map(|f| path_arg(f)));
        args
    }
}

/// A path as a command-line string.
pub fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// The argument that turns this executable into `mcheck`.
pub const MCHECK_FLAG: &str = "--as-mcheck";

/// The prefix of the peak-RSS line an `mcheck` child prints last on its
/// standard error.
const RSS_LINE: &str = "perfbench: peak_rss_kb=";

/// Runs this process as `mcheck`: the `mcheck` binary's own `main` (a
/// call to [`mc_cli::run_full`]), then its peak RSS on standard error.
pub fn mcheck_main(args: Vec<String>) -> u8 {
    let code = match mc_cli::parse_args(args) {
        Ok(opts) => match mc_cli::run_full(&opts, &mut std::io::stdout(), &mut std::io::stderr()) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
        Err(e) => {
            eprintln!("{e}");
            2
        }
    };
    let kb = crate::measure::peak_rss_mb("self").map_or(0.0, |mb| mb * 1024.0);
    eprintln!("{RSS_LINE}{kb}");
    code
}

/// One finished `mcheck` process.
pub struct Check {
    /// Its JSON output.
    pub json: Json,
    /// Spawn to exit, in seconds.
    pub secs: f64,
    /// Its peak resident set size in MB.
    pub rss_mb: f64,
}

/// Runs `mcheck <args>` as a fresh process (this executable re-run with
/// [`MCHECK_FLAG`]) and returns its JSON output, wall time and peak RSS.
pub fn mcheck(args: &[String]) -> Result<Check, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let (output, secs) = crate::measure::timed(|| {
        std::process::Command::new(exe)
            .arg(MCHECK_FLAG)
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
    });
    let output = output.map_err(|e| format!("running mcheck: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    match output.status.code() {
        Some(0 | 1) => {}
        _ => return Err(format!("mcheck failed ({}): {stderr}", output.status)),
    }
    let rss_mb = stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(RSS_LINE))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("mcheck printed no peak RSS")?
        / 1024.0;
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let json = Json::parse(text.trim()).map_err(|e| format!("mcheck output: {e}"))?;
    Ok(Check { json, secs, rss_mb })
}

/// What two runs over the same bytes must agree on: every shown report's
/// fingerprint and verdict, in output order, plus the refuted and
/// suppressed counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    reports: Vec<(String, String)>,
    refuted: i64,
    suppressed: i64,
}

impl Signature {
    /// Reduces an `mcheck-reports` envelope.
    pub fn of(envelope: &Json) -> Signature {
        let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let reports = envelope
            .get("reports")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|r| (field(r, "fingerprint"), field(r, "verdict")))
            .collect();
        let count = |k: &str| envelope.get(k).and_then(Json::as_i64).unwrap_or(-1);
        Signature {
            reports,
            refuted: count("refuted"),
            suppressed: count("suppressed"),
        }
    }

    /// Where `self` first departs from `want`, for the log.
    pub fn diff(&self, want: &Signature) -> String {
        if (self.refuted, self.suppressed) != (want.refuted, want.suppressed) {
            return format!(
                "refuted/suppressed {}/{} where {}/{}",
                self.refuted, self.suppressed, want.refuted, want.suppressed
            );
        }
        let at = (0..self.reports.len().max(want.reports.len()))
            .find(|&i| self.reports.get(i) != want.reports.get(i))
            .unwrap_or(0);
        format!(
            "{} report(s) where {}; first difference at #{at}: {:?} where {:?}",
            self.reports.len(),
            want.reports.len(),
            self.reports.get(at),
            want.reports.get(at)
        )
    }

    /// A deliberately wrong copy (one fingerprint altered), used to prove
    /// that the comparison catches a difference.
    pub fn tampered(mut self) -> Signature {
        match self.reports.first_mut() {
            Some(r) => r.0.push('!'),
            None => self.refuted += 1,
        }
        self
    }
}

/// Reference signatures: one uncached `--jobs 1` batch run per distinct
/// input state, computed on demand and kept for the rest of the run.
pub struct References {
    flags: Flags,
    tamper: bool,
    known: HashMap<u64, Signature>,
    /// Reference runs made.
    pub runs: usize,
}

impl References {
    /// `tamper` makes every reference wrong (the self-test of the check).
    pub fn new(flags: Flags, tamper: bool) -> References {
        References {
            flags,
            tamper,
            known: HashMap::new(),
            runs: 0,
        }
    }

    /// The reference for the corpus's current on-disk bytes.
    pub fn get(&mut self, corpus: &Corpus) -> Result<Signature, String> {
        let key = state_key(&corpus.files)?;
        if let Some(sig) = self.known.get(&key) {
            return Ok(sig.clone());
        }
        let json = mcheck(&self.flags.args(corpus, 1, None))?.json;
        self.runs += 1;
        let mut sig = Signature::of(&json);
        if self.tamper {
            sig = sig.tampered();
        }
        self.known.insert(key, sig.clone());
        Ok(sig)
    }
}

/// Hash of the files' current bytes.
fn state_key(files: &[PathBuf]) -> Result<u64, String> {
    let mut h = mc_ast::Fnv1a::new();
    for f in files {
        let bytes = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        h.write_str(&f.display().to_string())
            .write_u64(mc_ast::fnv1a(&bytes));
    }
    Ok(h.finish())
}

/// Correctness bookkeeping for one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that differed from their reference (or scored wrong).
    pub failed: u64,
    /// Planted bugs that got fewer reports than the manifest expects.
    pub bugs_missed: u64,
}

impl Tally {
    /// Counts one compared output.
    pub fn compare(&mut self, got: &Signature, want: &Signature, what: &str) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            eprintln!(
                "perfbench: {what}: output differs from the uncached --jobs 1 reference: {}",
                got.diff(want)
            );
        }
    }

    /// The share of checked outputs that were wrong.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A manifest score: planted bugs missed and false positives reported,
/// against the count the manifests expect for the flags used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    /// Planted bug reports missing.
    pub bugs_missed: u64,
    /// Reports attributed to planted false positives, plus reports that
    /// match nothing planted.
    pub false_positives: u64,
    /// False-positive reports the manifests expect.
    pub expected_false_positives: u64,
}

/// Scores an `mcheck-reports` envelope against every protocol's manifest,
/// with the expectations for default pruning, no call-site resolution,
/// and the given refutation setting.
pub fn score(corpus: &Corpus, envelope: &Json, flags: Flags) -> Result<Score, String> {
    let reports: Vec<Report> = envelope
        .get("reports")
        .and_then(Json::as_array)
        .ok_or("envelope has no reports")?
        .iter()
        .map(|r| Report::from_json(r).map_err(|e| format!("report: {e}")))
        .collect::<Result<_, _>>()?;
    let (prune, interproc, refute) = (true, false, flags.refute);
    let mut s = Score {
        bugs_missed: 0,
        false_positives: 0,
        expected_false_positives: 0,
    };
    for proto in &corpus.protocols {
        let mine: Vec<Report> = reports
            .iter()
            .filter(|r| {
                Path::new(&r.file)
                    .parent()
                    .and_then(Path::file_name)
                    .is_some_and(|d| d == proto.name.as_str())
            })
            .cloned()
            .collect();
        let outcome = evaluate_full(proto, &mine, prune, interproc, refute);
        s.bugs_missed += outcome
            .matched
            .iter()
            .filter(|(p, _)| matches!(p.kind, PlantedKind::Bug | PlantedKind::Incident))
            .map(|(p, n)| (p.expected_full(prune, interproc, refute) - n) as u64)
            .sum::<u64>();
        s.false_positives +=
            (outcome.reports_of("", PlantedKind::FalsePositive) + outcome.unexpected.len()) as u64;
        s.expected_false_positives += proto
            .manifest
            .iter()
            .filter(|p| p.kind == PlantedKind::FalsePositive)
            .map(|p| p.expected_full(prune, interproc, refute) as u64)
            .sum::<u64>();
    }
    Ok(s)
}
