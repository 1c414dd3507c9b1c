//! The traced run: per-layer numbers from spans kept around calls into
//! each layer's public functions.
//!
//! A *pipeline* re-composes what a user-facing check does from those
//! calls, one span per call, with one worker so spans never overlap: for
//! the batch workloads a cold `mcheck` (what [`mc_cli::run_full`] does),
//! for `seed_edit` one daemon edit request and its revert (what
//! [`mc_cli::checked_reports`] does). `trace.coverage` is the share of
//! the pipeline's wall time covered by layer self-times, and
//! `trace.overhead` its wall time over the same check made untraced.
//! *Probes* time the layers the pipeline cannot separate from outside:
//! the traversal inside `check_units`, per-checker traversal, refutation
//! (refute on minus off), cache reads and writes, the scheduler, and the
//! daemon transport. Every output the run produces is compared with the
//! uncached `--jobs 1` reference. Spans are written to
//! `.bench_out/trace-<workload>-<seed>.json` when the run ends.

use crate::daemon::Daemon;
use crate::inputs::{Corpus, Edit};
use crate::measure::{median, timed};
use crate::verify::{path_arg, Flags, Signature};
use crate::workloads::{
    edit_protocols, edit_rng, edited_protocol, files_of, fleet_protocols, seed_batch_protocols,
    Metric, Outcome, Params, WorkDir,
};
use mc_checkers::flash::FlashSpec;
use mc_driver::{CheckedUnit, Driver, Report, Verdict};
use mc_json::Json;
use std::path::Path;
use std::time::Instant;

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("mc-ast.parse_ms", "ms"),
    ("mc-ast.functions", "count"),
    ("mc-cfg.build_ms", "ms"),
    ("mc-cfg.blocks", "count"),
    ("mc-metal.plan_ms", "ms"),
    ("mc-metal.candidates", "count"),
    ("mc-driver.summaries_ms", "ms"),
    ("mc-driver.summaries", "count"),
    ("mc-driver.check_ms", "ms"),
    ("mc-driver.traverse_ms", "ms"),
    ("mc-driver.traverse.wait_for_db_ms", "ms"),
    ("mc-driver.traverse.msglen_ms", "ms"),
    ("mc-driver.traverse.refcount_bump_ms", "ms"),
    ("mc-driver.traverse.buffer_mgmt_ms", "ms"),
    ("mc-driver.traverse.lanes_ms", "ms"),
    ("mc-driver.traverse.exec_restrict_ms", "ms"),
    ("mc-driver.traverse.alloc_check_ms", "ms"),
    ("mc-driver.traverse.directory_ms", "ms"),
    ("mc-driver.traverse.send_wait_ms", "ms"),
    ("mc-symx.refute_ms", "ms"),
    ("mc-symx.witnesses", "count"),
    ("mc-symx.refuted_ratio", "ratio"),
    ("mc-sim.load_ms", "ms"),
    ("mc-sim.clone_ms", "ms"),
    ("mc-sim.replay_ms", "ms"),
    ("mc-sim.replays", "count"),
    ("mc-sim.confirmed_ratio", "ratio"),
    ("mc-cli.post_ms", "ms"),
    ("mc-cli.render_ms", "ms"),
    ("mc-cli.render_bytes", "bytes"),
    ("mc-driver.cache.write_ms", "ms"),
    ("mc-driver.cache.read_ms", "ms"),
    ("mc-driver.cache.bytes", "bytes"),
    ("mc-driver.cache.files", "count"),
    ("mc-driver.units_checked", "count"),
    ("mc-driver.functions_rechecked", "count"),
    ("mc-driver.functions_replayed", "count"),
    ("mc-driver.sched.tasks", "count"),
    ("mc-driver.sched.imbalance", "ratio"),
    ("mc-driver.sched.idle_ms", "ms"),
    ("mc-cli.daemon.transport_ms", "ms"),
    ("mc-cli.daemon.response_bytes", "bytes"),
    ("mc-json.encode_ms", "ms"),
    ("mc-json.decode_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// No-change daemon requests (each paired with the same check made
/// in-process) timed for the transport split.
const TRANSPORT_REQUESTS: usize = 5;

/// Alternated repetitions behind each difference-of-two-timings probe.
const PAIRS: usize = 3;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder. Spans are closed in LIFO order by the
/// single thread that opened them.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as a leaf span under `parent`.
    fn leaf<T>(&mut self, parent: usize, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Duration of the span opened last, in seconds.
    fn last(&self) -> f64 {
        self.duration(self.spans.len() - 1)
    }

    fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// A span's duration minus the time its direct children cover.
    fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(c, _)| self.duration(c))
            .sum();
        self.duration(id) - children
    }

    /// Summed self time, in ms, of the spans named `name` under the
    /// roots named `root`.
    fn total_ms(&self, root: &str, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && self.root_name(s) == root)
            .map(|(i, _)| self.self_time(i))
            .fold(0.0, |a, b| a + b)
            * 1e3
    }

    fn root_name<'a>(&'a self, s: &'a Span) -> &'a str {
        let mut cur = s;
        while let Some(p) = cur.parent {
            cur = &self.spans[p];
        }
        &cur.name
    }

    /// Self time per layer (the span name up to its first `.`) under the
    /// roots named `root`, largest first, plus the roots' total duration.
    fn layers(&self, root: &str) -> (Vec<(String, f64)>, f64) {
        let mut layers: Vec<(String, f64)> = Vec::new();
        let mut wall = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if self.root_name(s) != root {
                continue;
            }
            if s.parent.is_none() {
                wall += self.duration(i);
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, t)) => *t += self.self_time(i),
                None => layers.push((layer, self.self_time(i))),
            }
        }
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        (layers, wall)
    }

    fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::Object(vec![
                        ("id".into(), Json::Int(i as i64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_s".into(), Json::Float(s.start)),
                        ("end_s".into(), Json::Float(s.end)),
                        ("self_s".into(), Json::Float(self.self_time(i))),
                    ])
                })
                .collect(),
        )
    }
}

/// Collected per-layer values.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.0.push((name, v));
    }
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// `mcheck` options for `corpus` under `flags` with `jobs` workers.
fn options(
    corpus: &Corpus,
    flags: Flags,
    jobs: usize,
    cache: Option<&Path>,
) -> Result<mc_cli::Options, String> {
    mc_cli::parse_args(flags.args(corpus, jobs, cache)).map_err(|e| e.to_string())
}

fn read_sources(corpus: &Corpus) -> Result<Vec<(String, String)>, String> {
    corpus
        .files
        .iter()
        .map(|f| Ok((std::fs::read_to_string(f).map_err(io)?, path_arg(f))))
        .collect()
}

/// Post-processing counters of one pipeline pass.
#[derive(Default)]
struct SimCounts {
    replays: u64,
    confirmed: u64,
}

/// The confirmation step of a check, one span per layer call: build the
/// simulator program, then clone it and replay each replayable `sat`
/// report (promoting reproduced ones to `confirmed`, as `mcheck` does).
fn promote(
    rec: &mut Recorder,
    parent: usize,
    reports: &mut [Report],
    sources: &[(String, String)],
    counts: &mut SimCounts,
) {
    if !reports.iter().any(|r| r.verdict == Verdict::Sat) {
        return;
    }
    let Ok(program) = rec.leaf(parent, "mc-sim.load", || {
        mc_sim::Program::from_sources(sources)
    }) else {
        return;
    };
    for r in reports.iter_mut() {
        if r.verdict != Verdict::Sat || !mc_sim::replayable_checker(&r.checker) {
            continue;
        }
        let copy = rec.leaf(parent, "mc-sim.clone", || program.clone());
        let hit = rec.leaf(parent, "mc-sim.replay", || {
            mc_sim::replay(copy, &r.checker, &r.function, &r.model)
        });
        counts.replays += 1;
        if hit {
            counts.confirmed += 1;
            r.verdict = Verdict::Confirmed;
            r.confidence = r.confidence.saturating_add(10).min(100);
        }
    }
}

/// Sort, drop refuted reports and apply suppressions, as every client
/// surface does. Returns the shown reports, suppressed and refuted counts.
fn post(
    rec: &mut Recorder,
    parent: usize,
    mut reports: Vec<Report>,
    sources: &[(String, String)],
) -> (Vec<Report>, usize, usize) {
    rec.leaf(parent, "mc-cli.post", || {
        Report::sort_by_confidence(&mut reports);
        let (reports, refuted) = mc_cli::partition_refuted(reports);
        let (reports, suppressed) = mc_cli::partition_suppressed(reports, sources);
        (reports, suppressed, refuted)
    })
}

fn signature(reports: &[Report], suppressed: usize, refuted: usize) -> Signature {
    Signature::of(&mc_cli::json_envelope(reports, suppressed, refuted))
}

/// Runs the traced measurement of one workload.
pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    let work = WorkDir::new(&format!("trace-{workload}"))?;
    let mut rec = Recorder::new();
    let mut out = Outcome::default();
    let mut v = Values::default();
    let (corpus, flags) = match workload {
        "seed_batch" => (
            Corpus::write(&work.join("corpus"), seed_batch_protocols(p)).map_err(io)?,
            Flags { refute: true },
        ),
        "fleet_batch" => (
            Corpus::write(&work.join("corpus"), fleet_protocols(p)).map_err(io)?,
            Flags { refute: false },
        ),
        "seed_edit" => (
            Corpus::write(&work.join("corpus"), edit_protocols(p)).map_err(io)?,
            Flags { refute: true },
        ),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let root_name = if workload == "seed_edit" {
        request_pipeline(p, &corpus, flags, &work, &mut rec, &mut out, &mut v)?
    } else {
        batch_pipeline(p, &corpus, flags, &mut rec, &mut out, &mut v)?
    };
    probes(
        p, workload, &corpus, flags, &work, &mut rec, &mut out, &mut v,
    )?;

    let (layers, wall) = rec.layers(root_name);
    let covered: f64 = layers.iter().map(|(_, t)| t).sum();
    let coverage = covered / wall;
    v.set("trace.coverage", coverage);
    if coverage < 0.90 {
        eprintln!("perfbench: trace coverage {coverage:.3} is below 0.90");
    }
    out.notes.push(format!(
        "trace: pipeline wall {:.1} ms; layer self-times: {}",
        wall * 1e3,
        layers
            .iter()
            .map(|(l, t)| format!("{l} {:.1} ms", t * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    write_trace(workload, p, &rec, &layers, wall)?;
    out.metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let samples: Vec<f64> =
                v.0.iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, x)| *x)
                    .collect();
            assert!(!samples.is_empty(), "per-layer metric {name} not measured");
            Metric {
                name: (*name).to_string(),
                unit,
                samples,
            }
        })
        .collect();
    Ok(out)
}

/// Writes the spans and the layer table under `.bench_out/`.
fn write_trace(
    workload: &str,
    p: &Params,
    rec: &Recorder,
    layers: &[(String, f64)],
    wall: f64,
) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(io)?;
    let doc = Json::Object(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Int(p.seed as i64)),
        ("nproc".into(), Json::Int(p.host.nproc as i64)),
        (
            "available_parallelism".into(),
            Json::Int(p.host.available_parallelism as i64),
        ),
        ("jobs".into(), Json::Int(p.host.jobs as i64)),
        ("pipeline_wall_s".into(), Json::Float(wall)),
        (
            "layer_self_s".into(),
            Json::Object(
                layers
                    .iter()
                    .map(|(l, t)| (l.clone(), Json::Float(*t)))
                    .collect(),
            ),
        ),
        ("spans".into(), rec.to_json()),
    ]);
    let path = dir.join(format!("trace-{workload}-{}.json", p.seed));
    std::fs::write(&path, doc.to_pretty()).map_err(io)
}

/// The batch pipeline: a cold uncached check with one worker, traced
/// call by call and bracketed by untraced [`mc_cli::run_full`] calls.
/// Returns the pipeline root's name.
fn batch_pipeline(
    p: &Params,
    corpus: &Corpus,
    flags: Flags,
    rec: &mut Recorder,
    out: &mut Outcome,
    v: &mut Values,
) -> Result<&'static str, String> {
    const ROOT: &str = "trace.cold";
    let want = crate::verify::References::new(flags, p.tamper).get(corpus)?;
    // Untraced through `run_full`: once to warm the process up (heap,
    // page cache), once before and once after the traced pass; the
    // overhead divides by the mean of the last two, so drift cancels.
    let untraced = |out: &mut Outcome| -> Result<f64, String> {
        let (buf, secs) = timed(|| -> Result<_, String> {
            let opts = options(corpus, flags, 1, None)?;
            let mut buf = Vec::new();
            mc_cli::run_full(&opts, &mut buf, &mut std::io::sink()).map_err(|e| e.to_string())?;
            Ok(buf)
        });
        let text = String::from_utf8(buf?).map_err(|e| e.to_string())?;
        let json = Json::parse(text.trim()).map_err(|e| e.to_string())?;
        out.tally
            .compare(&Signature::of(&json), &want, "in-process run_full");
        Ok(secs)
    };
    untraced(out)?;
    let before = untraced(out)?;

    let opts = options(corpus, flags, 1, None)?;
    let root = rec.open(ROOT, None);
    let driver = rec
        .leaf(root, "mc-cli.build_driver", || mc_cli::build_driver(&opts))
        .map_err(|e| e.to_string())?;
    let sources = rec.leaf(root, "mc-cli.read", || read_sources(corpus))?;
    let mut units = Vec::with_capacity(sources.len());
    for (src, file) in &sources {
        let tu = rec
            .leaf(root, "mc-ast.parse", || {
                mc_ast::parse_translation_unit(src, file)
            })
            .map_err(|e| e.to_string())?;
        units.push(rec.leaf(root, "mc-cfg.build", || CheckedUnit::new(tu)));
    }
    let mut reports = rec.leaf(root, "mc-driver.check_units", || driver.check_units(&units));
    set_unit_counts(v, &units);
    // `Driver::check_sources` frees the parsed units before confirmation.
    rec.leaf(root, "mc-driver.drop_units", || drop(units));
    reports.extend(rec.leaf(root, "mc-driver.load_diagnostics", || {
        driver.metal_load_diagnostics()
    }));
    let mut counts = SimCounts::default();
    if flags.refute {
        promote(rec, root, &mut reports, &sources, &mut counts);
    }
    let (shown, suppressed, refuted) = post(rec, root, reports, &sources);
    let mut rendered = Vec::new();
    rec.leaf(root, "mc-cli.render", || {
        mc_cli::render(
            mc_cli::Format::Json,
            &shown,
            &sources,
            suppressed,
            refuted,
            &mut rendered,
        )
    });
    rec.close(root);
    out.tally.compare(
        &signature(&shown, suppressed, refuted),
        &want,
        "traced pipeline",
    );

    let after = untraced(out)?;
    v.set(
        "trace.overhead",
        rec.duration(root) * 2.0 / (before + after),
    );
    v.set("mc-ast.parse_ms", rec.total_ms(ROOT, "mc-ast.parse"));
    v.set("mc-cfg.build_ms", rec.total_ms(ROOT, "mc-cfg.build"));
    v.set(
        "mc-driver.check_ms",
        rec.total_ms(ROOT, "mc-driver.check_units"),
    );
    set_sim(v, rec, ROOT, &counts);
    v.set("mc-cli.post_ms", rec.total_ms(ROOT, "mc-cli.post"));
    v.set("mc-cli.render_ms", rec.total_ms(ROOT, "mc-cli.render"));
    v.set("mc-cli.render_bytes", rendered.len() as f64);
    v.set("mc-json.encode_ms", encode_ms(&shown, suppressed, refuted));
    Ok(ROOT)
}

fn set_unit_counts(v: &mut Values, units: &[CheckedUnit]) {
    v.set(
        "mc-ast.functions",
        units.iter().map(|u| u.cfgs.len()).sum::<usize>() as f64,
    );
    v.set(
        "mc-cfg.blocks",
        units
            .iter()
            .flat_map(|u| &u.cfgs)
            .map(|c| c.blocks.len())
            .sum::<usize>() as f64,
    );
}

fn set_sim(v: &mut Values, rec: &Recorder, root: &str, counts: &SimCounts) {
    v.set("mc-sim.load_ms", rec.total_ms(root, "mc-sim.load"));
    v.set("mc-sim.clone_ms", rec.total_ms(root, "mc-sim.clone"));
    v.set("mc-sim.replay_ms", rec.total_ms(root, "mc-sim.replay"));
    v.set("mc-sim.replays", counts.replays as f64);
    v.set(
        "mc-sim.confirmed_ratio",
        counts.confirmed as f64 / counts.replays.max(1) as f64,
    );
}

/// Median time, in ms, of encoding the daemon's response envelope.
fn encode_ms(shown: &[Report], suppressed: usize, refuted: usize) -> f64 {
    let times: Vec<f64> = (0..TRANSPORT_REQUESTS)
        .map(|_| timed(|| mc_cli::json_envelope(shown, suppressed, refuted).to_compact()).1 * 1e3)
        .collect();
    median(&times)
}

/// The `seed_edit` pipeline: one edit request and its revert, handled
/// in-process on a warm disk-backed engine exactly as the daemon handles
/// a `check` (read, engine check, confirm, post-process, encode). The
/// same pair, at another edit tag, is first made untraced through
/// [`mc_cli::checked_reports`]. Returns the pipeline root's name.
fn request_pipeline(
    p: &Params,
    corpus: &Corpus,
    flags: Flags,
    work: &WorkDir,
    rec: &mut Recorder,
    out: &mut Outcome,
    v: &mut Values,
) -> Result<&'static str, String> {
    const ROOT: &str = "trace.request";
    let opts = options(corpus, flags, 1, Some(&work.join("pipeline-cache")))?;
    let driver = mc_cli::build_driver(&opts).map_err(|e| e.to_string())?;
    let mut engine = mc_cli::engine_for(&opts).map_err(|e| e.to_string())?;
    let mut refs = crate::verify::References::new(flags, p.tamper);
    let want = refs.get(corpus)?;
    let sources = read_sources(corpus)?;
    let warm = mc_cli::checked_reports(&driver, &mut engine, &opts, &sources)
        .map_err(|e| e.to_string())?;
    out.tally
        .compare(&signature(&warm.0, warm.1, warm.2), &want, "warm-up check");

    let sites = files_of(corpus, edited_protocol(p));
    let warmup = Edit::pick(corpus, &sites, &mut edit_rng(p), 1);
    let first = Edit { tag: 2, ..warmup };
    let second = Edit { tag: 3, ..warmup };

    // Untraced: the same request pair through the public entry point,
    // after one warm-up pair so that the timed pair starts where the
    // traced one will.
    let mut untraced = 0.0;
    for (i, state) in [Some(warmup), None, Some(first), None]
        .into_iter()
        .enumerate()
    {
        if let Some(e) = state {
            e.write(corpus).map_err(io)?;
        }
        let (got, secs) = timed(|| -> Result<_, String> {
            let sources = read_sources(corpus)?;
            mc_cli::checked_reports(&driver, &mut engine, &opts, &sources)
                .map_err(|e| e.to_string())
        });
        if let Some(e) = state {
            e.revert(corpus).map_err(io)?;
        }
        let got = got?;
        if i >= 2 {
            untraced += secs;
        }
        let reference = match state {
            Some(e) => edited_reference(&mut refs, corpus, e)?,
            None => want.clone(),
        };
        out.tally.compare(
            &signature(&got.0, got.1, got.2),
            &reference,
            "untraced request",
        );
    }

    // Traced: the pair again, call by call.
    let mut counts = SimCounts::default();
    let mut traced = 0.0;
    let mut last = None;
    let mut edit_stats = None;
    for state in [Some(second), None] {
        if let Some(e) = state {
            e.write(corpus).map_err(io)?;
        }
        let root = rec.open(ROOT, None);
        let sources = rec.leaf(root, "mc-cli.read", || read_sources(corpus));
        let checked = sources.and_then(|sources| {
            let (mut reports, stats) = rec
                .leaf(root, "mc-driver.engine", || {
                    engine.check_sources(&driver, &sources)
                })
                .map_err(|e| e.to_string())?;
            reports.extend(rec.leaf(root, "mc-driver.load_diagnostics", || {
                driver.metal_load_diagnostics()
            }));
            promote(rec, root, &mut reports, &sources, &mut counts);
            let (shown, suppressed, refuted) = post(rec, root, reports, &sources);
            let body = rec.leaf(root, "mc-json.encode", || {
                mc_cli::json_envelope(&shown, suppressed, refuted).to_compact()
            });
            Ok((shown, suppressed, refuted, stats, body, sources))
        });
        rec.close(root);
        traced += rec.duration(root);
        if let Some(e) = state {
            e.revert(corpus).map_err(io)?;
        }
        let (shown, suppressed, refuted, stats, _, sources) = checked?;
        let reference = match state {
            Some(e) => {
                edit_stats = Some(stats);
                edited_reference(&mut refs, corpus, e)?
            }
            None => want.clone(),
        };
        out.tally.compare(
            &signature(&shown, suppressed, refuted),
            &reference,
            "traced request",
        );
        last = Some((shown, suppressed, refuted, sources));
    }
    let stats = edit_stats.expect("the edit request ran");
    v.set("trace.overhead", traced / untraced);
    v.set("mc-driver.check_ms", rec.total_ms(ROOT, "mc-driver.engine"));
    v.set("mc-driver.units_checked", stats.units_checked as f64);
    v.set(
        "mc-driver.functions_rechecked",
        stats.functions_rechecked as f64,
    );
    v.set(
        "mc-driver.functions_replayed",
        stats.functions_replayed as f64,
    );
    set_sim(v, rec, ROOT, &counts);
    v.set("mc-cli.post_ms", rec.total_ms(ROOT, "mc-cli.post"));
    v.set(
        "mc-json.encode_ms",
        rec.total_ms(ROOT, "mc-json.encode") / 2.0,
    );

    // Parse, CFG and render are not separable inside a request; time them
    // over the same files.
    let (shown, suppressed, refuted, sources) = last.expect("the revert request ran");
    let probe = rec.open("probe.layers", None);
    let mut units = Vec::new();
    for (src, file) in &sources {
        let tu = rec
            .leaf(probe, "mc-ast.parse", || {
                mc_ast::parse_translation_unit(src, file)
            })
            .map_err(|e| e.to_string())?;
        units.push(rec.leaf(probe, "mc-cfg.build", || CheckedUnit::new(tu)));
    }
    let mut rendered = Vec::new();
    rec.leaf(probe, "mc-cli.render", || {
        mc_cli::render(
            mc_cli::Format::Json,
            &shown,
            &sources,
            suppressed,
            refuted,
            &mut rendered,
        )
    });
    rec.close(probe);
    v.set(
        "mc-ast.parse_ms",
        rec.total_ms("probe.layers", "mc-ast.parse"),
    );
    v.set(
        "mc-cfg.build_ms",
        rec.total_ms("probe.layers", "mc-cfg.build"),
    );
    set_unit_counts(v, &units);
    v.set(
        "mc-cli.render_ms",
        rec.total_ms("probe.layers", "mc-cli.render"),
    );
    v.set("mc-cli.render_bytes", rendered.len() as f64);
    Ok(ROOT)
}

/// The reference for `corpus` with `edit` applied.
fn edited_reference(
    refs: &mut crate::verify::References,
    corpus: &Corpus,
    edit: Edit,
) -> Result<Signature, String> {
    edit.write(corpus).map_err(io)?;
    let sig = refs.get(corpus);
    edit.revert(corpus).map_err(io)?;
    sig
}

/// The nine suite checkers, each registered alone on a driver.
fn single_checker_drivers(spec: &FlashSpec) -> Result<Vec<(&'static str, Driver)>, String> {
    use mc_checkers::*;
    let mut out = Vec::new();
    for (name, src) in [
        ("mc-driver.traverse.wait_for_db_ms", WAIT_FOR_DB_METAL),
        ("mc-driver.traverse.msglen_ms", MSGLEN_METAL),
        ("mc-driver.traverse.refcount_bump_ms", REFCOUNT_BUMP_METAL),
    ] {
        let mut d = Driver::new();
        d.add_metal_source(src).map_err(|e| e.to_string())?;
        out.push((name, d));
    }
    let natives: [(&str, Box<dyn mc_driver::Checker>); 6] = [
        (
            "mc-driver.traverse.buffer_mgmt_ms",
            Box::new(buffer_mgmt::BufferMgmt::new(spec.clone())),
        ),
        (
            "mc-driver.traverse.lanes_ms",
            Box::new(lanes::Lanes::new(spec.clone())),
        ),
        (
            "mc-driver.traverse.exec_restrict_ms",
            Box::new(exec_restrict::ExecRestrict::new(spec.clone())),
        ),
        (
            "mc-driver.traverse.alloc_check_ms",
            Box::new(alloc_check::AllocCheck::new()),
        ),
        (
            "mc-driver.traverse.directory_ms",
            Box::new(directory::Directory::new(spec.clone())),
        ),
        (
            "mc-driver.traverse.send_wait_ms",
            Box::new(send_wait::SendWait::new()),
        ),
    ];
    for (name, checker) in natives {
        let mut d = Driver::new();
        d.add_checker(checker);
        out.push((name, d));
    }
    for (_, d) in &mut out {
        d.refute(false).jobs(1);
    }
    Ok(out)
}

/// Layer probes over the workload's current (original) files.
#[allow(clippy::too_many_arguments)]
fn probes(
    p: &Params,
    workload: &str,
    corpus: &Corpus,
    flags: Flags,
    work: &WorkDir,
    rec: &mut Recorder,
    out: &mut Outcome,
    v: &mut Values,
) -> Result<(), String> {
    let sources = read_sources(corpus)?;
    let units = Driver::new()
        .jobs(p.host.jobs)
        .parse_units(&sources)
        .map_err(|e| e.to_string())?;
    let refs: Vec<&CheckedUnit> = units.iter().collect();
    let on = mc_cli::build_driver(&options(corpus, Flags { refute: true }, 1, None)?)
        .map_err(|e| e.to_string())?;
    let off = mc_cli::build_driver(&options(corpus, Flags { refute: false }, 1, None)?)
        .map_err(|e| e.to_string())?;
    let workload_driver = if flags.refute { &on } else { &off };
    let probe = rec.open("probe.layers", None);

    // Candidate plans with the suite's three compiled metal programs.
    let compiled = [
        mc_checkers::WAIT_FOR_DB_METAL,
        mc_checkers::MSGLEN_METAL,
        mc_checkers::REFCOUNT_BUMP_METAL,
    ]
    .iter()
    .map(|src| {
        let prog = mc_metal::MetalProgram::parse(src).map_err(|e| e.to_string())?;
        mc_metal::CompiledProgram::compile(&prog).map_err(|e| format!("{e:?}"))
    })
    .collect::<Result<Vec<_>, String>>()?;
    let progs: Vec<&mc_metal::CompiledProgram> = compiled.iter().collect();
    let candidates = rec.leaf(probe, "mc-metal.plan", || {
        units
            .iter()
            .flat_map(|u| &u.cfgs)
            .map(|cfg| {
                mc_metal::CandidatePlan::build_many(&progs, cfg)
                    .iter()
                    .map(|plan| plan.total_cands())
                    .sum::<u64>()
            })
            .sum::<u64>()
    });
    v.set(
        "mc-metal.plan_ms",
        rec.total_ms("probe.layers", "mc-metal.plan"),
    );
    v.set("mc-metal.candidates", candidates as f64);

    let summaries = rec.leaf(probe, "mc-driver.summaries", || {
        mc_driver::Summaries::compute(workload_driver, &refs, workload_driver.interproc_enabled())
    });
    v.set(
        "mc-driver.summaries_ms",
        rec.total_ms("probe.layers", "mc-driver.summaries"),
    );
    v.set("mc-driver.summaries", summaries.len() as f64);

    // Traversal with refutation off, and refutation as refute on minus
    // off over the same units. On and off alternate and the medians over
    // `PAIRS` are reported, so drift on a busy host cancels.
    let (mut plain, mut decided) = (Vec::new(), Vec::new());
    let (mut off_ms, mut refute_ms) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        plain = rec.leaf(probe, "mc-driver.traverse", || off.check_units(&units));
        let off_s = rec.last();
        decided = rec.leaf(probe, "mc-symx.refute", || on.check_units(&units));
        off_ms.push(off_s * 1e3);
        refute_ms.push((rec.last() - off_s) * 1e3);
    }
    v.set("mc-driver.traverse_ms", median(&off_ms));
    v.set("mc-symx.refute_ms", median(&refute_ms));
    let witnesses = decided
        .iter()
        .filter(|r| r.verdict != Verdict::Unchecked)
        .count();
    let refuted = decided
        .iter()
        .filter(|r| r.verdict == Verdict::Refuted)
        .count();
    v.set("mc-symx.witnesses", witnesses as f64);
    v.set(
        "mc-symx.refuted_ratio",
        refuted as f64 / witnesses.max(1) as f64,
    );
    let spec: FlashSpec = mc_json::from_str(&std::fs::read_to_string(&corpus.spec).map_err(io)?)
        .map_err(|e| e.to_string())?;
    for (name, d) in single_checker_drivers(&spec)? {
        rec.leaf(probe, name, || d.check_units(&units));
        v.set(name, rec.last() * 1e3);
    }

    // Cache writes: a cold engine with a fresh disk cache minus the same
    // cold engine in memory. Reads: a fresh disk engine over the filled
    // cache minus a memo hit. Alternated; medians over `PAIRS`.
    let batch = if flags.refute { decided } else { plain };
    let cache_dir = work.join("probe-cache");
    let disk_opts = options(corpus, flags, 1, Some(&cache_dir))?;
    let mem_opts = options(corpus, flags, 1, None)?;
    let engine = |o: &mc_cli::Options| mc_cli::engine_for(o).map_err(|e| e.to_string());
    let check = |what: &str, e: &mut mc_driver::CheckEngine, out: &mut Outcome| {
        let (got, secs) = timed(|| e.check_sources(workload_driver, &sources));
        out.tally.attempted += 1;
        if got.as_ref().ok().map(|(r, _)| r) != Some(&batch) {
            out.tally.failed += 1;
            eprintln!("perfbench: {what}: reports differ from the batch driver");
        }
        secs
    };
    let (mut write_ms, mut read_ms, mut warm) = (Vec::new(), Vec::new(), None);
    for _ in 0..PAIRS {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut mem = engine(&mem_opts)?;
        let mem_cold = check("in-memory engine", &mut mem, out);
        let mut disk = engine(&disk_opts)?;
        let disk_cold = check("disk engine", &mut disk, out);
        let mem_hot = check("memo replay", &mut mem, out);
        let mut fresh = engine(&disk_opts)?;
        let disk_warm = check("disk replay", &mut fresh, out);
        write_ms.push((disk_cold - mem_cold) * 1e3);
        read_ms.push((disk_warm - mem_hot) * 1e3);
        warm = Some(fresh);
    }
    let mut fresh = warm.expect("at least one pair");
    v.set("mc-driver.cache.write_ms", median(&write_ms));
    v.set("mc-driver.cache.read_ms", median(&read_ms));
    let (mut bytes, mut files) = (0u64, 0u64);
    for entry in std::fs::read_dir(&cache_dir).map_err(io)? {
        let meta = entry.map_err(io)?.metadata().map_err(io)?;
        if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    v.set("mc-driver.cache.bytes", bytes as f64);
    v.set("mc-driver.cache.files", files as f64);

    // Invalidation counters of one seeded edit on the warm disk engine
    // (`seed_edit` records those of its traced edit request instead).
    if workload != "seed_edit" {
        let sites = files_of(corpus, edited_protocol(p));
        let edit = Edit::pick(corpus, &sites, &mut edit_rng(p), 1);
        let mut edited = sources.clone();
        edited[edit.file].0 = edit.apply(corpus);
        let (reports, stats) = fresh
            .check_sources(workload_driver, &edited)
            .map_err(|e| e.to_string())?;
        out.tally.attempted += 1;
        if workload_driver.check_sources(&edited).ok().as_ref() != Some(&reports) {
            out.tally.failed += 1;
            eprintln!("perfbench: edited engine check: reports differ from the batch driver");
        }
        v.set("mc-driver.units_checked", stats.units_checked as f64);
        v.set(
            "mc-driver.functions_rechecked",
            stats.functions_rechecked as f64,
        );
        v.set(
            "mc-driver.functions_replayed",
            stats.functions_replayed as f64,
        );
    }

    // The scheduler at the workload's worker count.
    let sched_opts = options(corpus, flags, p.host.jobs, None)?;
    let pooled = mc_cli::build_driver(&sched_opts).map_err(|e| e.to_string())?;
    pooled.take_sched_stats();
    rec.leaf(probe, "mc-driver.sched", || pooled.check_units(&units));
    let sched = pooled.take_sched_stats();
    let per_worker: Vec<f64> = sched.tasks_per_worker.iter().map(|&t| t as f64).collect();
    let mean = per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64;
    let max = per_worker.iter().copied().fold(0.0, f64::max);
    v.set("mc-driver.sched.tasks", sched.tasks as f64);
    v.set(
        "mc-driver.sched.imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
    );
    v.set("mc-driver.sched.idle_ms", sched.idle_ns as f64 / 1e6);
    rec.close(probe);

    transport(p, corpus, flags, work, out, v)
}

/// The daemon transport: no-change `check` round trips through a real
/// `mcheckd` minus the same check made in-process with
/// [`mc_cli::checked_reports`] on an equally warm engine. The two are
/// interleaved and the median of the pairwise differences reported, so
/// drift on a busy host cancels.
fn transport(
    p: &Params,
    corpus: &Corpus,
    flags: Flags,
    work: &WorkDir,
    out: &mut Outcome,
    v: &mut Values,
) -> Result<(), String> {
    let want = crate::verify::References::new(flags, p.tamper).get(corpus)?;
    let args = flags.args(corpus, p.host.jobs, Some(&work.join("daemon-cache")));
    let mut daemon = Daemon::start(&work.join("d.sock"), &args)?;
    let opts = options(corpus, flags, p.host.jobs, Some(&work.join("inproc-cache")))?;
    let driver = mc_cli::build_driver(&opts).map_err(|e| e.to_string())?;
    let mut engine = mc_cli::engine_for(&opts).map_err(|e| e.to_string())?;
    let inproc = |engine: &mut mc_driver::CheckEngine| {
        timed(|| -> Result<_, String> {
            let sources = read_sources(corpus)?;
            mc_cli::checked_reports(&driver, engine, &opts, &sources).map_err(|e| e.to_string())
        })
    };
    daemon.check(&corpus.files)?;
    inproc(&mut engine).0?;
    let (mut diff, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..TRANSPORT_REQUESTS {
        let r = daemon.check(&corpus.files)?;
        let envelope = r
            .result
            .get("reports")
            .ok_or("check result has no reports")?;
        out.tally
            .compare(&Signature::of(envelope), &want, "daemon request");
        let (got, secs) = inproc(&mut engine);
        let got = got?;
        out.tally.compare(
            &signature(&got.0, got.1, got.2),
            &want,
            "in-process request",
        );
        diff.push((r.secs - secs) * 1e3);
        decode.push(r.decode_secs * 1e3);
        bytes = r.bytes;
    }
    daemon.stop()?;
    v.set("mc-cli.daemon.transport_ms", median(&diff));
    v.set("mc-cli.daemon.response_bytes", bytes as f64);
    v.set("mc-json.decode_ms", median(&decode));
    Ok(())
}
