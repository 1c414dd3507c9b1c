//! End-to-end tests for the `mcheckd` daemon: real binaries, a real unix
//! socket, and the contract that every transport — daemon `check`,
//! `--watch --daemon-socket`, and batch `mcheck` — reports the same
//! thing byte for byte.
#![cfg(unix)]

use mc_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

const MCHECKD: &str = env!("CARGO_BIN_EXE_mcheckd");
const MCHECK: &str = env!("CARGO_BIN_EXE_mcheck");

/// A fresh scratch directory plus a socket path short enough for
/// `sockaddr_un` (the temp dir keeps paths well under the limit).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("mcheckd_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    (dir, socket)
}

/// The planted-bug source every test checks: one raw read, one double
/// free.
fn write_buggy_source(dir: &std::path::Path) -> PathBuf {
    let src = dir.join("h.c");
    std::fs::write(
        &src,
        "void h(void) { MISCBUS_READ_DB(a, b); DB_FREE(); DB_FREE(); }\n",
    )
    .unwrap();
    src.canonicalize().unwrap()
}

fn connect_with_retry(socket: &std::path::Path) -> UnixStream {
    for _ in 0..100 {
        if let Ok(s) = UnixStream::connect(socket) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon never came up on {}", socket.display());
}

fn shutdown(socket: &std::path::Path) {
    let _ = Command::new(MCHECKD)
        .args(["shutdown", "--socket"])
        .arg(socket)
        .output();
}

/// `mcheckd check` with no daemon running: the client spawns one
/// (fall-back path), and the envelope it prints is byte-identical to
/// batch `mcheck --format json` over the same file.
#[test]
fn daemon_check_spawns_and_matches_batch_output() {
    let (dir, socket) = scratch("spawn");
    let src = write_buggy_source(&dir);

    let daemon_out = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    shutdown(&socket);
    assert_eq!(
        daemon_out.status.code(),
        Some(1),
        "reports were emitted: {}",
        String::from_utf8_lossy(&daemon_out.stderr)
    );

    let batch_out = Command::new(MCHECK)
        .args(["--builtin", "--format", "json"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(batch_out.status.code(), Some(1));

    let daemon_env = Json::parse(std::str::from_utf8(&daemon_out.stdout).unwrap()).unwrap();
    let batch_env = Json::parse(std::str::from_utf8(&batch_out.stdout).unwrap()).unwrap();
    assert_eq!(
        daemon_env.get("schema").and_then(Json::as_str),
        Some("mcheck-reports")
    );
    assert_eq!(
        daemon_env, batch_env,
        "daemon transport changed the reports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second `serve` on a live socket is refused; a stale socket file
/// (its daemon long dead) is reaped and rebound.
#[test]
fn serve_refuses_live_socket_and_reaps_stale_one() {
    let (dir, socket) = scratch("stale");
    let src = write_buggy_source(&dir);

    // Plant a stale socket file: bind and immediately drop the listener.
    // The file stays behind, but nothing accepts on it.
    drop(UnixListener::bind(&socket).unwrap());
    assert!(socket.exists(), "stale socket file planted");

    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    drop(connect_with_retry(&socket)); // reaped + rebound

    let second = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(second.status.code(), Some(2), "double-bind must be refused");
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("already listening"),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );

    shutdown(&socket);
    let _ = daemon.wait();
    assert!(!socket.exists(), "shutdown removes the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `subscribe` connections receive a push `diagnostics` notification —
/// the same mcheck-reports envelope — whenever any other client checks.
#[test]
fn subscribers_get_push_diagnostics() {
    let (dir, socket) = scratch("subscribe");
    let src = write_buggy_source(&dir);

    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut sub = connect_with_retry(&socket);
    writeln!(sub, r#"{{"id": 7, "method": "subscribe"}}"#).unwrap();
    let mut reader = BufReader::new(sub.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(resp.get("id").and_then(Json::as_i64), Some(7));
    assert_eq!(
        resp.get("result")
            .and_then(|r| r.get("ok"))
            .and_then(Json::as_bool),
        Some(true)
    );

    // Another client triggers a check; the subscriber gets the push.
    let check = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(check.status.code(), Some(1));
    let mut push = String::new();
    reader.read_line(&mut push).unwrap();
    let note = Json::parse(push.trim()).unwrap();
    assert_eq!(
        note.get("method").and_then(Json::as_str),
        Some("diagnostics")
    );
    let envelope = note.get("params").unwrap();
    assert_eq!(
        envelope.get("schema").and_then(Json::as_str),
        Some("mcheck-reports")
    );
    assert!(
        !envelope
            .get("reports")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "the planted bugs ride the push"
    );

    shutdown(&socket);
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `invalidate` drops the memo tables (observable only as a still-correct
/// next check), and `shutdown` against a dead socket exits 0.
#[test]
fn invalidate_then_recheck_and_idempotent_shutdown() {
    let (dir, socket) = scratch("invalidate");
    let src = write_buggy_source(&dir);

    let first = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(first.status.code(), Some(1));

    let inv = Command::new(MCHECKD)
        .args(["invalidate", "--socket"])
        .arg(&socket)
        .output()
        .unwrap();
    assert_eq!(inv.status.code(), Some(0), "{:?}", inv);

    let second = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(second.status.code(), Some(1));
    assert_eq!(
        Json::parse(std::str::from_utf8(&first.stdout).unwrap()).unwrap(),
        Json::parse(std::str::from_utf8(&second.stdout).unwrap()).unwrap(),
        "invalidation must not change the reports"
    );

    shutdown(&socket);
    // Second shutdown: nothing is listening; still exit 0.
    let again = Command::new(MCHECKD)
        .args(["shutdown", "--socket"])
        .arg(&socket)
        .output()
        .unwrap();
    assert_eq!(again.status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `check` request may carry a per-request `jobs` hint: the daemon
/// applies it for that run, echoes the effective count in the stats, and
/// the reports stay byte-identical at every worker count — the hint
/// trades latency, never output.
#[test]
fn check_jobs_hint_is_applied_and_echoed() {
    let (dir, socket) = scratch("jobs");
    let src = write_buggy_source(&dir);

    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let conn = connect_with_retry(&socket);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut conn = conn;
    let mut ask = |id: i64, params: &str| -> Json {
        writeln!(
            conn,
            r#"{{"id": {id}, "method": "check", "params": {params}}}"#
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(id));
        resp
    };

    let file = format!(r#"["{}"]"#, src.display());
    let with_hint = ask(1, &format!(r#"{{"files": {file}, "jobs": 2}}"#));
    let result = with_hint.get("result").expect("check succeeds");
    assert_eq!(
        result
            .get("stats")
            .and_then(|s| s.get("jobs"))
            .and_then(Json::as_i64),
        Some(2),
        "the hint is echoed back: {with_hint:?}"
    );

    let without = ask(2, &format!(r#"{{"files": {file}}}"#));
    let default_jobs = without
        .get("result")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("jobs"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(default_jobs >= 1, "hint-less requests use the default");
    assert_eq!(
        with_hint.get("result").and_then(|r| r.get("reports")),
        without.get("result").and_then(|r| r.get("reports")),
        "the worker count must never change report bytes"
    );

    let bad = ask(3, &format!(r#"{{"files": {file}, "jobs": 0}}"#));
    assert!(
        bad.get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("jobs")),
        "a zero hint is a request error: {bad:?}"
    );

    shutdown(&socket);
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon outlives hostile requests: a request nested 200k levels
/// deep and one longer than the request cap each get a JSON-RPC error on
/// the same connection, and the next `check` there still succeeds.
#[test]
fn deeply_nested_and_oversized_requests_get_errors_and_the_daemon_keeps_serving() {
    let (dir, socket) = scratch("hostile");
    let src = write_buggy_source(&dir);

    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let conn = connect_with_retry(&socket);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut conn = conn;
    let mut send = |request: &str| -> Json {
        conn.write_all(request.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).unwrap()
    };
    let error_of = |resp: &Json| resp.get("error").and_then(Json::as_str).map(str::to_string);

    let deep = "[".repeat(200_000);
    let resp = send(&deep);
    assert!(
        error_of(&resp).is_some_and(|m| m.contains("nested deeper than")),
        "{resp:?}"
    );

    let long = format!(
        r#"{{"id": 7, "method": "check", "params": {{"pad": "{}"}}}}"#,
        "x".repeat(5 << 20)
    );
    let resp = send(&long);
    assert!(
        error_of(&resp).is_some_and(|m| m.contains("longer than")),
        "{resp:?}"
    );

    let ok = send(&format!(
        r#"{{"id": 8, "method": "check", "params": {{"files": ["{}"]}}}}"#,
        src.display()
    ));
    assert_eq!(ok.get("id").and_then(Json::as_i64), Some(8));
    assert_eq!(
        ok.get("result")
            .and_then(|r| r.get("exit"))
            .and_then(Json::as_i64),
        Some(1),
        "the check after the hostile requests runs: {ok:?}"
    );

    shutdown(&socket);
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mcheck --watch --daemon-socket` is a thin client: it spawns the
/// daemon (via `MCHECKD_BIN`), sends a check request, and prints the
/// daemon's envelope.
#[test]
fn watch_through_daemon_socket_prints_daemon_reports() {
    let (dir, socket) = scratch("watch");
    let src = write_buggy_source(&dir);

    let out = Command::new(MCHECK)
        .env("MCHECKD_BIN", MCHECKD)
        .args(["--builtin", "--watch", "--watch-iterations", "1"])
        .arg("--daemon-socket")
        .arg(&socket)
        .arg(&src)
        .output()
        .unwrap();
    shutdown(&socket);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("[watch] daemon checked 1 file(s)"),
        "{text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("mcheck-reports"), "{text}");
    assert!(text.contains("wait_for_db"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Confirmation replay is cached per call-graph component: after a
/// one-function body edit in dyn_ptr, the daemon replays exactly the
/// distinct `sat` witnesses of the edited unit's component and answers
/// every other component's from cache; a fresh daemon over the same cache
/// directory replays nothing.
#[test]
fn dyn_ptr_edit_replays_only_its_component() {
    let (dir, socket) = scratch("replays");
    let protos: Vec<_> = mc_corpus::generate_fleet(mc_corpus::DEFAULT_SEED, 1)
        .into_iter()
        .filter(|p| p.name == "dyn_ptr" || p.name == "common")
        .collect();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, mc_json::to_string_pretty(&protos[0].spec)).unwrap();
    let mut files: Vec<PathBuf> = Vec::new();
    for f in protos.iter().flat_map(|p| &p.files) {
        let path = dir.join(&f.name);
        std::fs::write(&path, &f.source).unwrap();
        files.push(path.canonicalize().unwrap());
    }
    let cache = dir.join("cache");
    let serve = || {
        Command::new(MCHECKD)
            .args(["serve", "--socket"])
            .arg(&socket)
            .args(["--builtin", "--spec"])
            .arg(&spec)
            .arg("--cache-dir")
            .arg(&cache)
            .args(&files)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap()
    };
    let check = || -> Json {
        let conn = connect_with_retry(&socket);
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        writeln!(conn, r#"{{"id": 1, "method": "check"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        resp.get("result").cloned().expect("check succeeds")
    };
    let stat = |result: &Json, name: &str| -> i64 {
        result
            .get("stats")
            .and_then(|s| s.get(name))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("stats.{name} in {result:?}"))
    };

    // A body-only edit: one local declaration before the first statement
    // of the first dyn_ptr function that has one on a line of its own.
    let edited = files
        .iter()
        .position(|f| f.to_string_lossy().contains("dyn_ptr"))
        .unwrap();
    let text = std::fs::read_to_string(&files[edited]).unwrap();
    let tu = mc_ast::parse_translation_unit(&text, "e.c").unwrap();
    let line = tu
        .functions()
        .find_map(|f| {
            let first = f.body.first()?;
            (first.span.line > f.span.line).then_some(first.span.line as usize)
        })
        .unwrap();
    let mut new_text = String::new();
    for (i, l) in text.split_inclusive('\n').enumerate() {
        if i + 1 == line {
            new_text.push_str("    int mc_replay_edit = 1;\n");
        }
        new_text.push_str(l);
    }

    let mut daemon = serve();
    let cold = check();
    assert!(stat(&cold, "replays_run") > 0);
    std::fs::write(&files[edited], &new_text).unwrap();
    let after = check();
    shutdown(&socket);
    let _ = daemon.wait();

    // The distinct replays each component calls for, from the reports.
    let sources: Vec<_> = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).unwrap();
            mc_ast::parse_translation_unit(&text, &f.display().to_string()).unwrap()
        })
        .collect();
    let infos: Vec<_> = sources.iter().map(mc_driver::call_info).collect();
    let mut comp_of_file = std::collections::HashMap::new();
    let comps = mc_driver::call_components(&infos);
    for (c, comp) in comps.iter().enumerate() {
        for &i in comp {
            comp_of_file.insert(files[i].display().to_string(), c);
        }
    }
    let mut keys = std::collections::BTreeSet::new();
    for r in after
        .get("reports")
        .and_then(|e| e.get("reports"))
        .and_then(Json::as_array)
        .unwrap()
    {
        let field = |n: &str| r.get(n).and_then(Json::as_str).unwrap().to_string();
        let verdict = field("verdict");
        if (verdict == "sat" || verdict == "confirmed")
            && mc_sim::replayable_checker(&field("checker"))
        {
            let comp = comp_of_file[&field("file")];
            let model = r.get("model").unwrap().to_compact();
            keys.insert((comp, field("checker"), field("function"), model));
        }
    }
    let edited_comp = comp_of_file[&files[edited].display().to_string()];
    let own = keys.iter().filter(|k| k.0 == edited_comp).count() as i64;
    assert!(
        own > 0 && own < keys.len() as i64,
        "{own} of {}",
        keys.len()
    );
    assert_eq!(stat(&after, "replays_run"), own);
    assert_eq!(stat(&after, "replays_cached"), keys.len() as i64 - own);

    let mut daemon = serve();
    let warm = check();
    shutdown(&socket);
    let _ = daemon.wait();
    assert_eq!(stat(&warm, "replays_run"), 0, "warm from disk");
    assert_eq!(warm.get("reports"), after.get("reports"));
    let _ = std::fs::remove_dir_all(&dir);
}
