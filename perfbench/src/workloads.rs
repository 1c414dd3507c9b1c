//! The three workloads, measured with tracing off.
//!
//! Each reports the same end-to-end metrics, measured through the surface
//! that workload exercises: `mcheck` (via [`mc_cli::run_full`]) for the
//! two batch workloads, a real `mcheckd` with one client for
//! `seed_edit`. Every output is compared with an uncached `--jobs 1`
//! batch run over the same bytes.

use crate::daemon::Daemon;
use crate::inputs::{seed_protocols, Corpus, Edit};
use crate::measure::{peak_rss_mb, timed, Host};
use crate::verify::{mcheck, score, Flags, References, Score, Signature, Tally};
use mc_corpus::rng::CorpusRng;
use mc_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["seed_batch", "seed_edit", "fleet_batch"];

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("edit_p50_ms", "ms"),
    ("revert_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("false_positives", "count"),
];

/// Fleet scale of `fleet_batch` (about 60 protocols, 15k functions).
const FLEET_SCALE: usize = 10;

/// How many times a run repeats its set-up (`setup_s` is their median):
/// three where a set-up includes a full cold check (`seed_batch`), nine
/// where it is cheap. `seed_edit` also takes its `cold_s` and `warm_s`
/// samples from its set-ups.
const SETUPS: usize = 3;
const CHEAP_SETUPS: usize = 9;

/// Mixed into the seed for edit-site choice, so edit sites do not
/// correlate with the corpus generator's own draws.
const EDIT_SALT: u64 = 0xED17_5EED;

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Corpus seed; also seeds the edit sites.
    pub seed: u64,
    /// How long the measured loop runs, in seconds.
    pub seconds: f64,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// Corrupt every reference (self-test of the correctness check).
    pub tamper: bool,
    /// Host facts and the worker count.
    pub host: Host,
}

impl Params {
    fn setups(&self, n: usize) -> usize {
        if self.smoke {
            1
        } else {
            n
        }
    }
}

/// A measured quantity: its samples and the value reported for it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Raw samples; the reported value is their median.
    pub samples: Vec<f64>,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Correctness bookkeeping.
    pub tally: Tally,
    /// Lines for the log.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `samples` under the unit [`END_TO_END`] gives `name`.
    fn put(&mut self, name: &str, samples: Vec<f64>) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("end-to-end metric is declared");
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            samples,
        });
    }

    fn put_score(&mut self, s: Score) {
        self.tally.attempted += 1;
        self.tally.bugs_missed += s.bugs_missed;
        if s.bugs_missed > 0 || s.false_positives != s.expected_false_positives {
            self.tally.failed += 1;
            eprintln!(
                "perfbench: manifest score off: {} bug report(s) missed, {} false positive(s) \
                 where {} expected",
                s.bugs_missed, s.false_positives, s.expected_false_positives
            );
        }
        self.notes.push(format!(
            "manifest: bugs_missed={} false_positives={} (expected {})",
            s.bugs_missed, s.false_positives, s.expected_false_positives
        ));
        self.put("false_positives", vec![s.false_positives as f64]);
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// `.bench_work/<tag>-<pid>`, relative to the working directory.
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, p: impl AsRef<Path>) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload with tracing off.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    match workload {
        "seed_batch" => seed_batch(p),
        "seed_edit" => seed_edit(p),
        "fleet_batch" => fleet_batch(p),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The protocols of `seed_batch` (smoke: one small protocol).
pub fn seed_batch_protocols(p: &Params) -> Vec<mc_corpus::Protocol> {
    seed_protocols(p.seed, if p.smoke { &["sci"] } else { &[] })
}

/// The protocols of `fleet_batch` (smoke: one protocol in two families).
pub fn fleet_protocols(p: &Params) -> Vec<mc_corpus::Protocol> {
    if p.smoke {
        mc_corpus::generate_fleet(p.seed, 2)
            .into_iter()
            .filter(|q| q.name.starts_with("sci"))
            .collect()
    } else {
        mc_corpus::generate_fleet(p.seed, FLEET_SCALE)
    }
}

/// The protocol whose functions every workload edits (in the fleet, its
/// family-0 copy). Keeping edits inside one protocol keeps the cost of an
/// edit comparable across seeds and workloads.
pub fn edited_protocol(p: &Params) -> &'static str {
    if p.smoke {
        "sci"
    } else {
        "dyn_ptr"
    }
}

/// The protocols `seed_edit` serves: the edited one plus `common`.
pub fn edit_protocols(p: &Params) -> Vec<mc_corpus::Protocol> {
    seed_protocols(p.seed, &[edited_protocol(p), "common"])
}

/// Indexes of the files of protocol `name`.
pub fn files_of(corpus: &Corpus, name: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    for proto in &corpus.protocols {
        for _ in &proto.files {
            if proto.name == name {
                out.push(i);
            }
            i += 1;
        }
    }
    out
}

/// The run's seeded edit generator.
pub fn edit_rng(p: &Params) -> CorpusRng {
    CorpusRng::seed_from_u64(p.seed ^ EDIT_SALT)
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Copies the flat cache directory `from` to `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// `seed_batch`: the whole seed corpus in one `mcheck` invocation with
/// default flags. Set-up generates and writes the corpus and fills a
/// cache; each repetition then runs cold (no cache), warm (fresh process
/// over a copy of the filled cache), after a one-function edit, and after
/// its revert.
fn seed_batch(p: &Params) -> Result<Outcome, String> {
    let flags = Flags { refute: true };
    let work = WorkDir::new("seed_batch")?;
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..p.setups(SETUPS) {
        if let Some((_, old)) = state.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        // Every set-up uses the same paths, so report file names match.
        let dir = work.join("setup");
        let (made, secs) = timed(|| -> Result<_, String> {
            let corpus = Corpus::write(&dir.join("corpus"), seed_batch_protocols(p)).map_err(io)?;
            let cache = dir.join("cache");
            let fill = mcheck(&flags.args(&corpus, p.host.jobs, Some(&cache)))?;
            Ok((corpus, cache, fill))
        });
        setup.push(secs);
        state = Some((made?, dir));
    }
    let ((corpus, cache, fill), _) = state.expect("at least one set-up");
    let mut refs = References::new(flags, p.tamper);
    out.tally.compare(
        &Signature::of(&fill.json),
        &refs.get(&corpus)?,
        "cache fill",
    );
    let rep_cache = work.join("rep-cache");
    let reps = batch_loop(p, &corpus, flags, &mut refs, &mut out, (false, 1), || {
        let _ = std::fs::remove_dir_all(&rep_cache);
        copy_dir(&cache, &rep_cache)?;
        Ok(rep_cache.clone())
    })?;
    out.notes.push(format!(
        "seed_batch: {} file(s), {} function(s), {} repetition(s), {} reference run(s)",
        corpus.files.len(),
        corpus.functions(),
        reps.cold.len(),
        refs.runs
    ));
    finish(&mut out, setup, reps);
    Ok(out)
}

/// `fleet_batch`: a scale-10 fleet in one `mcheck --no-refute`
/// invocation. Set-up generates and writes the fleet; each repetition
/// runs cold into a fresh cache directory (writing every record), warm
/// from that directory, after a one-function edit, and after its revert.
fn fleet_batch(p: &Params) -> Result<Outcome, String> {
    let flags = Flags { refute: false };
    let work = WorkDir::new("fleet_batch")?;
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut state = None;
    for _ in 0..p.setups(CHEAP_SETUPS) {
        if let Some((_, old)) = state.take() {
            let _ = std::fs::remove_dir_all(old);
        }
        let dir = work.join("setup");
        let (made, secs) = timed(|| Corpus::write(&dir, fleet_protocols(p)).map_err(io));
        setup.push(secs);
        state = Some((made?, dir));
    }
    let (corpus, _) = state.expect("at least one set-up");
    let mut refs = References::new(flags, p.tamper);
    let cache = work.join("cache");
    let reps = batch_loop(p, &corpus, flags, &mut refs, &mut out, (true, 3), || {
        let _ = std::fs::remove_dir_all(&cache);
        Ok(cache.clone())
    })?;
    out.notes.push(format!(
        "fleet_batch: {} protocol(s), {} file(s), {} function(s), {} repetition(s)",
        corpus.protocols.len(),
        corpus.files.len(),
        corpus.functions(),
        reps.cold.len()
    ));
    finish(&mut out, setup, reps);
    Ok(out)
}

/// The samples of a measured loop.
#[derive(Default)]
struct Samples {
    cold: Vec<f64>,
    warm: Vec<f64>,
    edits: Vec<f64>,
    reverts: Vec<f64>,
    rss: Vec<f64>,
}

/// The measured loop of a batch workload. Each repetition asks
/// `prepare` for its cache directory, then runs cold (into that cache
/// when `cold_cached`, else uncached), warm, after the run's seeded
/// one-function edit, and after its revert. Warm and revert checks are
/// made `quick` times each, for workloads where they take a fraction of
/// a second. Every output is compared with its reference; the edited
/// state's reference is computed after the loop so it never delays a
/// timed check.
fn batch_loop(
    p: &Params,
    corpus: &Corpus,
    flags: Flags,
    refs: &mut References,
    out: &mut Outcome,
    (cold_cached, quick): (bool, usize),
    mut prepare: impl FnMut() -> Result<PathBuf, String>,
) -> Result<Samples, String> {
    let want = refs.get(corpus)?;
    let sites = files_of(corpus, edited_protocol(p));
    let edit = Edit::pick(corpus, &sites, &mut edit_rng(p), 1);
    let args = |cache: Option<&Path>| flags.args(corpus, p.host.jobs, cache);
    let mut s = Samples::default();
    let mut edit_sigs = Vec::new();
    let start = Instant::now();
    while s.cold.is_empty() || start.elapsed().as_secs_f64() < p.seconds {
        let cache = prepare()?;
        let c = mcheck(&args(cold_cached.then_some(cache.as_path())))?;
        s.cold.push(c.secs);
        s.rss.push(c.rss_mb);
        out.tally.compare(&Signature::of(&c.json), &want, "cold");
        if s.cold.len() == 1 {
            out.put_score(score(corpus, &c.json, flags)?);
        }
        for _ in 0..quick {
            let c = mcheck(&args(Some(&cache)))?;
            s.warm.push(c.secs);
            out.tally.compare(&Signature::of(&c.json), &want, "warm");
        }
        edit.write(corpus).map_err(io)?;
        let ran = mcheck(&args(Some(&cache)));
        edit.revert(corpus).map_err(io)?;
        let c = ran?;
        s.edits.push(c.secs * 1e3);
        edit_sigs.push(Signature::of(&c.json));
        for _ in 0..quick {
            let c = mcheck(&args(Some(&cache)))?;
            s.reverts.push(c.secs * 1e3);
            out.tally.compare(&Signature::of(&c.json), &want, "revert");
        }
    }
    let _ = std::fs::remove_dir_all(prepare()?);
    edit.write(corpus).map_err(io)?;
    let want_edit = refs.get(corpus);
    edit.revert(corpus).map_err(io)?;
    let want_edit = want_edit?;
    for sig in &edit_sigs {
        out.tally.compare(sig, &want_edit, "edit");
    }
    Ok(s)
}

/// The reports envelope of a daemon `check` result.
fn envelope(result: &Json) -> Result<&Json, String> {
    result
        .get("reports")
        .ok_or_else(|| "check result has no reports".to_string())
}

/// `seed_edit`: one `mcheckd` with default flags and a disk cache serving
/// dyn_ptr plus common, and one client in a closed loop alternating a
/// seeded body-only edit with its revert. Set-up writes the sources,
/// starts a daemon on an empty cache and checks once (`cold_s`), then
/// restarts the daemon on that cache and checks once more (`warm_s`);
/// the second daemon serves the loop.
fn seed_edit(p: &Params) -> Result<Outcome, String> {
    let flags = Flags { refute: true };
    let jobs = p.host.jobs;
    let work = WorkDir::new("seed_edit")?;
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut s = Samples::default();
    let mut setup_sigs = Vec::new();
    let mut state: Option<(Corpus, Daemon, PathBuf)> = None;
    for k in 0..p.setups(CHEAP_SETUPS) {
        // The previous set-up's daemon stops before this one is timed.
        if let Some((_, old_daemon, old_dir)) = state.take() {
            old_daemon.stop()?;
            let _ = std::fs::remove_dir_all(old_dir);
        }
        // Every set-up uses the same paths, so report file names match.
        let dir = work.join("setup");
        let socket = dir.join("d.sock");
        let (made, secs) = timed(|| -> Result<_, String> {
            let corpus = Corpus::write(&dir.join("corpus"), edit_protocols(p)).map_err(io)?;
            let args = flags.args(&corpus, jobs, Some(&dir.join("cache")));
            let mut first = Daemon::start(&socket, &args)?;
            let c = first.check(&corpus.files)?;
            first.stop()?;
            let mut daemon = Daemon::start(&socket, &args)?;
            let w = daemon.check(&corpus.files)?;
            Ok((corpus, daemon, c, w))
        });
        let (corpus, daemon, c, w) = made?;
        setup.push(secs);
        s.cold.push(c.secs);
        s.warm.push(w.secs);
        setup_sigs.push(("cold", Signature::of(envelope(&c.result)?)));
        setup_sigs.push(("warm", Signature::of(envelope(&w.result)?)));
        if k == 0 {
            out.put_score(score(&corpus, envelope(&c.result)?, flags)?);
        }
        state = Some((corpus, daemon, dir));
    }
    let (corpus, mut daemon, _) = state.expect("at least one set-up");
    let mut refs = References::new(flags, p.tamper);
    let want = refs.get(&corpus)?;
    for (what, sig) in &setup_sigs {
        out.tally.compare(sig, &want, what);
    }

    let candidates = files_of(&corpus, edited_protocol(p));
    let mut rng = edit_rng(p);
    let mut edit_sigs = Vec::new();
    let (mut rechecked, mut revert_rechecked) = (0i64, 0i64);
    let start = Instant::now();
    while s.edits.is_empty() || start.elapsed().as_secs_f64() < p.seconds {
        let tag = s.edits.len() as u64 + 1;
        let edit = Edit::pick(&corpus, &candidates, &mut rng, tag);
        edit.write(&corpus).map_err(io)?;
        let r = daemon.check(&corpus.files);
        edit.revert(&corpus).map_err(io)?;
        let r = r?;
        s.edits.push(r.secs * 1e3);
        rechecked += stat(&r.result, "functions_rechecked");
        edit_sigs.push((edit, Signature::of(envelope(&r.result)?)));
        let r = daemon.check(&corpus.files)?;
        s.reverts.push(r.secs * 1e3);
        revert_rechecked += stat(&r.result, "functions_rechecked");
        out.tally
            .compare(&Signature::of(envelope(&r.result)?), &want, "revert");
    }
    let rss = peak_rss_mb(&daemon.pid().to_string()).ok_or("cannot read mcheckd peak RSS")?;
    s.rss.push(rss);
    daemon.stop()?;
    for (edit, sig) in &edit_sigs {
        edit.write(&corpus).map_err(io)?;
        let want_edit = refs.get(&corpus);
        edit.revert(&corpus).map_err(io)?;
        out.tally.compare(sig, &want_edit?, "edit");
    }
    out.notes.push(format!(
        "seed_edit: {} file(s), {} request(s); functions re-checked: {} over edits, {} over reverts",
        corpus.files.len(),
        s.edits.len() + s.reverts.len(),
        rechecked,
        revert_rechecked
    ));
    finish(&mut out, setup, s);
    Ok(out)
}

/// A counter from a daemon `check` result's `stats`.
fn stat(result: &Json, key: &str) -> i64 {
    result
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

/// Records the timing metrics and peak RSS, then orders every metric as
/// [`END_TO_END`] does.
fn finish(out: &mut Outcome, setup: Vec<f64>, s: Samples) {
    out.put("setup_s", setup);
    out.put("cold_s", s.cold);
    out.put("warm_s", s.warm);
    out.put("edit_p50_ms", s.edits);
    out.put("revert_p50_ms", s.reverts);
    out.put("peak_rss_mb", s.rss);
    let pos = |m: &Metric| END_TO_END.iter().position(|(n, _)| *n == m.name);
    out.metrics.sort_by_key(pos);
}
