//! Report renderers: text (with source excerpts), JSON, and SARIF 2.1.0.
//!
//! All three renderers consume the same inputs — the final report list,
//! the checked sources (for text excerpts), the count of reports hidden
//! by `// mc-suppress:` comments, and the count demoted by the symbolic
//! refutation pass — so every output format agrees on what was found,
//! what was suppressed, and what was refuted.
//!
//! ## JSON schema (`--format json`)
//!
//! ```json
//! {
//!   "schema": "mcheck-reports",
//!   "version": 1,
//!   "suppressed": 0,
//!   "refuted": 3,
//!   "reports": [
//!     {
//!       "checker": "buffer_mgmt",
//!       "severity": "error",
//!       "file": "sci/sci_main.c",
//!       "function": "PIRemoteGet",
//!       "span": {"line": 41, "col": 5},
//!       "message": "len used after DB_FREE",
//!       "steps": [
//!         {"file": "", "span": {"line": 38, "col": 5}, "note": "branch taken"}
//!       ],
//!       "confidence": 75,
//!       "pruned_paths": 0,
//!       "verdict": "confirmed",
//!       "model": {"gLen": 5},
//!       "fingerprint": "9f86d081884c7d65"
//!     }
//!   ]
//! }
//! ```
//!
//! `schema`/`version` identify the envelope. `suppressed` counts reports
//! dropped by inline suppressions; `refuted` counts reports demoted (and
//! dropped from `reports`) by the `--refute` symbolic witness pass. Each
//! report is the [`Report`] JSON shape plus its stable content
//! `fingerprint` (the baseline key): `verdict` is one of `unchecked` /
//! `sat` / `confirmed` (`refuted` reports are not emitted) and `model` is
//! the concrete global assignment that realizes the witness, present for
//! `sat`/`confirmed` reports. A step with an empty `file` is in the
//! report's own file. All locations carry both `line` and `col` (1-based).
//!
//! ## SARIF (`--format sarif`)
//!
//! A SARIF 2.1.0 log: one run, one `tool.driver` named `mcheck` with one
//! rule per distinct checker, one `result` per report. The witness path is
//! emitted as `codeFlows[0].threadFlows[0].locations`, the fingerprint as
//! `partialFingerprints["mcheckFingerprint/v1"]`, and confidence /
//! function / pruned-path counts / verdict (plus `concreteInput` when a
//! solver model exists) under `properties`. The run-level `properties`
//! carry both `suppressedReports` and `refutedReports`.

use mc_driver::{Report, Severity, Verdict};
use mc_json::Json;
use std::collections::HashMap;
use std::io::Write;

/// Output format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable text with source excerpts and numbered path steps.
    #[default]
    Text,
    /// The documented JSON envelope (see module docs).
    Json,
    /// SARIF 2.1.0 with `codeFlows` for the witness path.
    Sarif,
}

impl Format {
    /// Parses a `--format` value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "sarif" => Some(Format::Sarif),
            _ => None,
        }
    }
}

/// Renders `reports` in `format` to `out`. `sources` are `(text, name)`
/// pairs as produced by reading the input files; they feed the text
/// renderer's source excerpts (a report whose file is not among the
/// sources simply renders without an excerpt). `suppressed` is the number
/// of reports already removed by `// mc-suppress:` comments and `refuted`
/// the number demoted by the symbolic refutation pass; every format states
/// both so a clean run is distinguishable from a silenced one.
pub fn render(
    format: Format,
    reports: &[Report],
    sources: &[(String, String)],
    suppressed: usize,
    refuted: usize,
    out: &mut dyn Write,
) {
    match format {
        Format::Text => render_text(reports, sources, suppressed, refuted, out),
        Format::Json => {
            let _ = writeln!(
                out,
                "{}",
                json_envelope(reports, suppressed, refuted).to_pretty()
            );
        }
        Format::Sarif => {
            let _ = writeln!(
                out,
                "{}",
                sarif_log(reports, suppressed, refuted).to_pretty()
            );
        }
    }
}

/// Splits `reports` into the ones to show and the count the symbolic
/// refutation pass demoted to [`Verdict::Refuted`] (their witness path
/// cannot execute). Refuted reports are dropped from every output format;
/// the count is rendered so a quieter run is visibly the refuter's doing.
pub fn partition_refuted(reports: Vec<Report>) -> (Vec<Report>, usize) {
    let total = reports.len();
    let kept: Vec<Report> = reports
        .into_iter()
        .filter(|r| r.verdict != Verdict::Refuted)
        .collect();
    let refuted = total - kept.len();
    (kept, refuted)
}

/// Text renderer: one block per report —
///
/// ```text
/// sci/sci_main.c:41:5: error: [buffer_mgmt] len used after DB_FREE (in PIRemoteGet)
///    41 |     DB_SEND(hdr, len);
///       |     ^
///     1. sci/sci_main.c:38:5: branch taken
///     2. sci/sci_main.c:41:5: statement
/// ```
fn render_text(
    reports: &[Report],
    sources: &[(String, String)],
    suppressed: usize,
    refuted: usize,
    out: &mut dyn Write,
) {
    let by_name: HashMap<&str, &str> = sources
        .iter()
        .map(|(text, name)| (name.as_str(), text.as_str()))
        .collect();
    for r in reports {
        let _ = write!(
            out,
            "{}:{}: {}: [{}] {}",
            r.file, r.span, r.severity, r.checker, r.message
        );
        if !r.function.is_empty() {
            let _ = write!(out, " (in {})", r.function);
        }
        let _ = writeln!(out);
        if let Some(text) = by_name.get(r.file.as_str()) {
            write_excerpt(text, r.span.line, r.span.col, out);
        }
        for (i, step) in r.steps.iter().enumerate() {
            let file = if step.file.is_empty() {
                &r.file
            } else {
                &step.file
            };
            let _ = writeln!(out, "    {}. {}:{}: {}", i + 1, file, step.span, step.note);
        }
        if r.verdict != Verdict::Unchecked {
            let _ = write!(out, "    verdict: {}", r.verdict.as_str());
            if !r.model.is_empty() {
                let binds: Vec<String> = r
                    .model
                    .iter()
                    .map(|(name, v)| format!("{name}={v}"))
                    .collect();
                let _ = write!(out, " (input: {})", binds.join(", "));
            }
            let _ = writeln!(out);
        }
    }
    if suppressed > 0 {
        let _ = writeln!(
            out,
            "note: {suppressed} report(s) suppressed by // mc-suppress comments"
        );
    }
    if refuted > 0 {
        let _ = writeln!(
            out,
            "note: {refuted} report(s) refuted by symbolic witness analysis"
        );
    }
}

/// Writes the `   41 | <source>` / `      |  ^` excerpt pair for one
/// location. Out-of-range lines (a report against generated or shifted
/// code) write nothing.
fn write_excerpt(text: &str, line: u32, col: u32, out: &mut dyn Write) {
    let Some(src_line) = text.lines().nth(line.saturating_sub(1) as usize) else {
        return;
    };
    let src_line = src_line.trim_end();
    let _ = writeln!(out, "{line:>5} | {src_line}");
    // The caret lands under the report column, clamped into the line so a
    // stale column can never push it off the excerpt.
    let caret_at = (col.max(1) as usize - 1).min(src_line.chars().count());
    let pad: String = src_line
        .chars()
        .take(caret_at)
        .map(|c| if c == '\t' { '\t' } else { ' ' })
        .collect();
    let _ = writeln!(out, "      | {pad}^");
}

/// Builds the documented `mcheck-reports` JSON envelope (the module docs'
/// schema): the same value `--format json` pretty-prints, also reused
/// verbatim by the `mcheckd` daemon for check responses and push-style
/// diagnostics.
pub fn json_envelope(reports: &[Report], suppressed: usize, refuted: usize) -> Json {
    let reports_json: Vec<Json> = reports
        .iter()
        .map(|r| {
            let mut fields = match mc_json::ToJson::to_json(r) {
                Json::Object(fields) => fields,
                other => return other,
            };
            fields.push(("fingerprint".to_string(), Json::Str(r.fingerprint())));
            Json::Object(fields)
        })
        .collect();
    mc_json::object(vec![
        ("schema", Json::Str("mcheck-reports".into())),
        ("version", Json::Int(1)),
        ("suppressed", Json::Int(suppressed as i64)),
        ("refuted", Json::Int(refuted as i64)),
        ("reports", Json::Array(reports_json)),
    ])
}

/// Builds the SARIF 2.1.0 log value.
fn sarif_log(reports: &[Report], suppressed: usize, refuted: usize) -> Json {
    // One rule per distinct checker, in order of first appearance.
    let mut rule_index: Vec<&str> = Vec::new();
    for r in reports {
        if !rule_index.contains(&r.checker.as_str()) {
            rule_index.push(&r.checker);
        }
    }
    let rules: Vec<Json> = rule_index
        .iter()
        .map(|id| {
            mc_json::object(vec![
                ("id", Json::Str((*id).to_string())),
                (
                    "shortDescription",
                    mc_json::object(vec![("text", Json::Str(format!("mcheck `{id}` checker")))]),
                ),
            ])
        })
        .collect();

    let results: Vec<Json> = reports
        .iter()
        .map(|r| {
            let level = match r.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let mut fields = vec![
                ("ruleId", Json::Str(r.checker.clone())),
                (
                    "ruleIndex",
                    Json::Int(
                        rule_index
                            .iter()
                            .position(|id| *id == r.checker)
                            .unwrap_or(0) as i64,
                    ),
                ),
                ("level", Json::Str(level.into())),
                (
                    "message",
                    mc_json::object(vec![("text", Json::Str(r.message.clone()))]),
                ),
                (
                    "locations",
                    Json::Array(vec![sarif_location(&r.file, r.span, None)]),
                ),
                (
                    "partialFingerprints",
                    mc_json::object(vec![("mcheckFingerprint/v1", Json::Str(r.fingerprint()))]),
                ),
                ("properties", {
                    let mut props = vec![
                        ("function", Json::Str(r.function.clone())),
                        ("confidence", Json::Int(i64::from(r.confidence))),
                        ("prunedPaths", Json::Int(i64::from(r.pruned_paths))),
                        ("verdict", Json::Str(r.verdict.as_str().into())),
                    ];
                    if !r.model.is_empty() {
                        props.push((
                            "concreteInput",
                            Json::Object(
                                r.model
                                    .iter()
                                    .map(|(name, v)| (name.clone(), Json::Int(*v)))
                                    .collect(),
                            ),
                        ));
                    }
                    mc_json::object(props)
                }),
            ];
            if !r.steps.is_empty() {
                let flow_locations: Vec<Json> = r
                    .steps
                    .iter()
                    .map(|s| {
                        let file = if s.file.is_empty() { &r.file } else { &s.file };
                        mc_json::object(vec![(
                            "location",
                            sarif_location(file, s.span, Some(&s.note)),
                        )])
                    })
                    .collect();
                fields.push((
                    "codeFlows",
                    Json::Array(vec![mc_json::object(vec![(
                        "threadFlows",
                        Json::Array(vec![mc_json::object(vec![(
                            "locations",
                            Json::Array(flow_locations),
                        )])]),
                    )])]),
                ));
            }
            mc_json::object(fields)
        })
        .collect();

    mc_json::object(vec![
        (
            "$schema",
            Json::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("version", Json::Str("2.1.0".into())),
        (
            "runs",
            Json::Array(vec![mc_json::object(vec![
                (
                    "tool",
                    mc_json::object(vec![(
                        "driver",
                        mc_json::object(vec![
                            ("name", Json::Str("mcheck".into())),
                            ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
                            ("rules", Json::Array(rules)),
                        ]),
                    )]),
                ),
                ("results", Json::Array(results)),
                (
                    "properties",
                    mc_json::object(vec![
                        ("suppressedReports", Json::Int(suppressed as i64)),
                        ("refutedReports", Json::Int(refuted as i64)),
                    ]),
                ),
            ])]),
        ),
    ])
}

/// One SARIF `location` (physical location + optional message).
fn sarif_location(file: &str, span: mc_ast::Span, message: Option<&str>) -> Json {
    let mut fields = vec![(
        "physicalLocation",
        mc_json::object(vec![
            (
                "artifactLocation",
                mc_json::object(vec![("uri", Json::Str(file.to_string()))]),
            ),
            (
                "region",
                mc_json::object(vec![
                    ("startLine", Json::Int(i64::from(span.line))),
                    ("startColumn", Json::Int(i64::from(span.col))),
                ]),
            ),
        ]),
    )];
    if let Some(text) = message {
        fields.push((
            "message",
            mc_json::object(vec![("text", Json::Str(text.to_string()))]),
        ));
    }
    mc_json::object(fields)
}

/// Splits `reports` into kept reports and the count suppressed by inline
/// `// mc-suppress: <checker>` comments.
///
/// A suppression names one or more checkers (comma- or space-separated)
/// and silences matching reports on its own line or the line directly
/// below (so it works both as a trailing comment and as a comment above
/// the flagged statement):
///
/// ```c
/// DB_FREE();  // mc-suppress: buffer_mgmt
/// // mc-suppress: lanes, send_wait
/// CONTROL_SEND(hdr);
/// ```
///
/// Checker names must match exactly — there is deliberately no wildcard,
/// so a suppression can never hide a report from a checker added later.
pub fn partition_suppressed(
    reports: Vec<Report>,
    sources: &[(String, String)],
) -> (Vec<Report>, usize) {
    // file -> list of (comment line, suppressed checker names)
    let mut map: HashMap<&str, Vec<(u32, Vec<&str>)>> = HashMap::new();
    for (text, name) in sources {
        let found = suppressions(text);
        if !found.is_empty() {
            map.entry(name.as_str()).or_default().extend(found);
        }
    }
    let total = reports.len();
    let kept: Vec<Report> = reports
        .into_iter()
        .filter(|r| {
            let Some(entries) = map.get(r.file.as_str()) else {
                return true;
            };
            !entries.iter().any(|(line, names)| {
                (*line == r.span.line || *line + 1 == r.span.line)
                    && names.iter().any(|n| *n == r.checker)
            })
        })
        .collect();
    let suppressed = total - kept.len();
    (kept, suppressed)
}

const SUPPRESS_MARKER: &str = "// mc-suppress:";

/// The suppression comments of one source text: `(line, checker names)`
/// for every line holding [`SUPPRESS_MARKER`] with at least one name, in
/// line order. Only the first marker on a line counts; names run to the
/// end of the line, split on `,`, space and tab, and a `\r` before the
/// newline is not part of them (as with [`str::lines`]).
///
/// One substring search covers the whole text; newlines are counted only
/// between hits, so a file without a marker costs a single scan.
fn suppressions(text: &str) -> Vec<(u32, Vec<&str>)> {
    let bytes = text.as_bytes();
    let mut found = Vec::new();
    let mut line = 1u32;
    // Newlines before `counted` are already in `line`.
    let mut counted = 0usize;
    // A hit before `line_end` sits on the line of the previous hit.
    let mut line_end = 0usize;
    for (at, _) in text.match_indices(SUPPRESS_MARKER) {
        if at < line_end {
            continue;
        }
        line += bytes[counted..at].iter().filter(|&&b| b == b'\n').count() as u32;
        counted = at;
        let start = at + SUPPRESS_MARKER.len();
        let rest = match text[start..].find('\n') {
            Some(k) => {
                line_end = start + k;
                let rest = &text[start..line_end];
                rest.strip_suffix('\r').unwrap_or(rest)
            }
            None => {
                line_end = text.len();
                &text[start..]
            }
        };
        let names: Vec<&str> = rest
            .split([',', ' ', '\t'])
            .filter(|s| !s.is_empty())
            .collect();
        if !names.is_empty() {
            found.push((line, names));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::Span;

    fn sample_report() -> Report {
        let mut r = Report::error(
            "buffer_mgmt",
            "f.c",
            "PIHandler",
            Span::new(2, 3),
            "double free",
        );
        r.steps = vec![
            mc_cfg::PathStep::new(Span::new(1, 1), "statement"),
            mc_cfg::PathStep::new(Span::new(2, 3), "branch taken"),
        ];
        r
    }

    fn sample_source() -> Vec<(String, String)> {
        vec![(
            "void PIHandler(void) {\n  DB_FREE();\n}\n".to_string(),
            "f.c".to_string(),
        )]
    }

    #[test]
    fn format_parse() {
        assert_eq!(Format::parse("text"), Some(Format::Text));
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("sarif"), Some(Format::Sarif));
        assert_eq!(Format::parse("xml"), None);
    }

    #[test]
    fn text_renders_excerpt_caret_and_steps() {
        let mut out = Vec::new();
        render_text(&[sample_report()], &sample_source(), 0, 0, &mut out);
        let s = String::from_utf8(out).unwrap();
        assert!(
            s.contains("f.c:2:3: error: [buffer_mgmt] double free (in PIHandler)"),
            "{s}"
        );
        assert!(s.contains("    2 |   DB_FREE();"), "{s}");
        assert!(s.contains("      |   ^"), "{s}");
        assert!(s.contains("    1. f.c:1:1: statement"), "{s}");
        assert!(s.contains("    2. f.c:2:3: branch taken"), "{s}");
    }

    #[test]
    fn text_counts_suppressed_and_refuted() {
        let mut out = Vec::new();
        render_text(&[], &[], 2, 3, &mut out);
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("2 report(s) suppressed"), "{s}");
        assert!(
            s.contains("3 report(s) refuted by symbolic witness analysis"),
            "{s}"
        );
    }

    #[test]
    fn text_renders_verdict_with_concrete_input() {
        let mut confirmed = sample_report();
        confirmed.verdict = Verdict::Confirmed;
        confirmed.model = vec![("gLen".to_string(), 5), ("gNak".to_string(), -1)];
        let mut out = Vec::new();
        render_text(&[confirmed], &sample_source(), 0, 0, &mut out);
        let s = String::from_utf8(out).unwrap();
        assert!(
            s.contains("verdict: confirmed (input: gLen=5, gNak=-1)"),
            "{s}"
        );
        // An unchecked report prints no verdict line at all.
        let mut out = Vec::new();
        render_text(&[sample_report()], &sample_source(), 0, 0, &mut out);
        let s = String::from_utf8(out).unwrap();
        assert!(!s.contains("verdict:"), "{s}");
    }

    #[test]
    fn partition_refuted_drops_only_refuted_reports() {
        let mut refuted = sample_report();
        refuted.verdict = Verdict::Refuted;
        let mut sat = sample_report();
        sat.verdict = Verdict::Sat;
        let (kept, n) = partition_refuted(vec![sample_report(), refuted, sat]);
        assert_eq!(n, 1);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|r| r.verdict != Verdict::Refuted));
    }

    #[test]
    fn json_envelope_carries_schema_and_fingerprints() {
        let r = sample_report();
        let v = json_envelope(std::slice::from_ref(&r), 1, 4);
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("mcheck-reports")
        );
        assert_eq!(v.get("version").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("suppressed").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("refuted").and_then(Json::as_i64), Some(4));
        let reports = v.get("reports").and_then(Json::as_array).unwrap();
        assert_eq!(
            reports[0].get("fingerprint").and_then(Json::as_str),
            Some(r.fingerprint().as_str())
        );
        // Locations keep both line and col.
        let span = reports[0].get("span").unwrap();
        assert_eq!(span.get("line").and_then(Json::as_i64), Some(2));
        assert_eq!(span.get("col").and_then(Json::as_i64), Some(3));
    }

    #[test]
    fn sarif_has_required_shape() {
        let v = sarif_log(&[sample_report()], 0, 0);
        assert_eq!(v.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = v.get("runs").and_then(Json::as_array).unwrap();
        let driver = runs[0].get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").and_then(Json::as_str), Some("mcheck"));
        let results = runs[0].get("results").and_then(Json::as_array).unwrap();
        let result = &results[0];
        assert_eq!(
            result.get("ruleId").and_then(Json::as_str),
            Some("buffer_mgmt")
        );
        let flows = result.get("codeFlows").and_then(Json::as_array).unwrap();
        let locations = flows[0]
            .get("threadFlows")
            .and_then(Json::as_array)
            .unwrap()[0]
            .get("locations")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(locations.len(), 2);
        let region = locations[1]
            .get("location")
            .unwrap()
            .get("physicalLocation")
            .unwrap()
            .get("region")
            .unwrap();
        assert_eq!(region.get("startLine").and_then(Json::as_i64), Some(2));
        assert_eq!(region.get("startColumn").and_then(Json::as_i64), Some(3));
        let props = result.get("properties").unwrap();
        assert_eq!(
            props.get("verdict").and_then(Json::as_str),
            Some("unchecked")
        );
        assert!(props.get("concreteInput").is_none());
        let run_props = runs[0].get("properties").unwrap();
        assert_eq!(
            run_props.get("refutedReports").and_then(Json::as_i64),
            Some(0)
        );
    }

    #[test]
    fn sarif_confirmed_report_carries_concrete_input() {
        let mut r = sample_report();
        r.verdict = Verdict::Confirmed;
        r.model = vec![("gLen".to_string(), 7)];
        let v = sarif_log(&[r], 0, 2);
        let runs = v.get("runs").and_then(Json::as_array).unwrap();
        let results = runs[0].get("results").and_then(Json::as_array).unwrap();
        let props = results[0].get("properties").unwrap();
        assert_eq!(
            props.get("verdict").and_then(Json::as_str),
            Some("confirmed")
        );
        let input = props.get("concreteInput").unwrap();
        assert_eq!(input.get("gLen").and_then(Json::as_i64), Some(7));
        let run_props = runs[0].get("properties").unwrap();
        assert_eq!(
            run_props.get("refutedReports").and_then(Json::as_i64),
            Some(2)
        );
    }

    // Regression (metal load-time warnings): suppressions must also match
    // when the report's file is a checker (.metal) file whose text the CLI
    // folds into the suppression sources — not one of the checked C files.
    #[test]
    fn suppression_matches_metal_checker_file_reports() {
        let sources = vec![(
            "state gLen { valid }\n// mc-suppress: metal-load\nevent bogus;\n".to_string(),
            "checkers/buf.metal".to_string(),
        )];
        let reports = vec![Report::warning(
            "metal-load",
            "checkers/buf.metal",
            "buffer_mgmt",
            Span::new(3, 1),
            "[W01] unreachable state",
        )];
        let (kept, suppressed) = partition_suppressed(reports, &sources);
        assert_eq!((kept.len(), suppressed), (0, 1));
    }

    #[test]
    fn suppression_matches_same_line_and_line_above() {
        let src = "\
// mc-suppress: buffer_mgmt
DB_FREE();
CONTROL_SEND(); // mc-suppress: send_wait, lanes
"
        .to_string();
        let sources = vec![(src, "f.c".to_string())];
        let mk =
            |checker: &str, line: u32| Report::error(checker, "f.c", "h", Span::new(line, 1), "m");
        let reports = vec![
            mk("buffer_mgmt", 2), // line below the comment: suppressed
            mk("send_wait", 3),   // trailing comment: suppressed
            mk("lanes", 3),       // second name in the list: suppressed
            mk("buffer_mgmt", 3), // not named on line 3: kept
            mk("send_wait", 2),   // wrong checker for line 1 comment: kept
        ];
        let (kept, suppressed) = partition_suppressed(reports, &sources);
        assert_eq!(suppressed, 3);
        assert_eq!(kept.len(), 2);
        assert!(kept
            .iter()
            .all(|r| r.span.line != 2 || r.checker != "buffer_mgmt"));
    }

    #[test]
    fn suppression_ignores_other_files() {
        let sources = vec![(
            "// mc-suppress: lanes\nx();\n".to_string(),
            "a.c".to_string(),
        )];
        let reports = vec![Report::error("lanes", "b.c", "h", Span::new(2, 1), "m")];
        let (kept, suppressed) = partition_suppressed(reports, &sources);
        assert_eq!((kept.len(), suppressed), (1, 0));
    }

    /// The per-line scan `suppressions` replaced, kept as its oracle.
    fn suppressions_by_line(text: &str) -> Vec<(u32, Vec<&str>)> {
        let mut found = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let Some(at) = line.find(SUPPRESS_MARKER) else {
                continue;
            };
            let names: Vec<&str> = line[at + SUPPRESS_MARKER.len()..]
                .split([',', ' ', '\t'])
                .filter(|s| !s.is_empty())
                .collect();
            if !names.is_empty() {
                found.push((idx as u32 + 1, names));
            }
        }
        found
    }

    #[test]
    fn suppression_scan_matches_the_per_line_oracle_on_edge_cases() {
        let cases = [
            "",
            "// mc-suppress:",
            "// mc-suppress: lanes",
            "// mc-suppress: lanes\n",
            "x();\n// mc-suppress: lanes",
            "a // mc-suppress: lanes // mc-suppress: send_wait\nb\n",
            "// mc-suppress: a,b\tc  d,,\n// mc-suppress:\t\n// mc-suppress: e\n",
            "// mc-suppress: lanes\r\nx();\r\n// mc-suppress: a, b\r\n",
            "// mc-suppress: lanes\r",
            "// mc-suppress: la\rnes\n",
            "// mc-suppress: lanes\r\r\n",
            "\n\n\n// mc-suppress: x\n\n// mc-suppress: y",
            "// mc-suppress:// mc-suppress: z\n",
            "/// mc-suppress: z\n// mc-suppress:z\n",
            "\u{e9}t\u{e9} // mc-suppress: \u{fc}ber\n",
        ];
        for text in cases {
            assert_eq!(suppressions(text), suppressions_by_line(text), "{text:?}");
        }
    }

    #[test]
    fn suppression_scan_matches_the_per_line_oracle_on_the_seed_corpus() {
        let markers = [
            " // mc-suppress: buffer_mgmt",
            "// mc-suppress: lanes, send_wait\r",
            "  // mc-suppress:\t",
            " // mc-suppress: a // mc-suppress: b",
            "// mc-suppress:",
        ];
        let mut files = 0;
        for proto in mc_corpus::generate_all(mc_corpus::DEFAULT_SEED) {
            for (text, name) in proto.sources() {
                assert_eq!(suppressions(&text), suppressions_by_line(&text), "{name}");
                // The same file with markers spliced onto every seventh
                // line, in every form the scan must agree on.
                let mut marked = String::with_capacity(text.len() * 2);
                for (k, line) in text.split('\n').enumerate() {
                    if k > 0 {
                        marked.push('\n');
                    }
                    marked.push_str(line);
                    if k % 7 == 3 {
                        marked.push_str(markers[(k / 7) % markers.len()]);
                    }
                }
                let got = suppressions(&marked);
                assert!(!got.is_empty(), "{name}: no marker found");
                assert_eq!(got, suppressions_by_line(&marked), "{name} (marked)");
                files += 1;
            }
        }
        assert!(files > 20, "seed corpus has {files} files");
    }
}
