//! The `mcheckd` check daemon: a persistent server that keeps one
//! [`CheckEngine`] hot in memory so every editor save and CI query pays
//! only the function-granular red/green re-check, never process startup
//! or a cold cache.
//!
//! ## Protocol
//!
//! Newline-delimited JSON-RPC over a unix domain socket. Each request is
//! one line:
//!
//! ```json
//! {"id": 1, "method": "check", "params": {"files": ["/abs/path.c"]}}
//! ```
//!
//! and each response is one line, `{"id": 1, "result": ...}` on success
//! or `{"id": 1, "error": "message"}` on failure. A request line longer
//! than 4 MiB, not UTF-8, or nested deeper than [`mc_json::MAX_DEPTH`]
//! gets an error with a null id, and the connection stays usable.
//! Methods:
//!
//! * `check` — check the given files (absolute paths; defaults to the
//!   files the daemon was started with). An optional `"jobs"` hint sets
//!   the worker count for this request only (the daemon's configured
//!   count otherwise); the effective value is echoed back in the stats.
//!   Worker count never affects report bytes, only latency. The result
//!   carries the `mcheck-reports` envelope under `"reports"`, engine
//!   counters under `"stats"` (units, re-checked and replayed functions,
//!   confirmation replays run and answered from cache, jobs), and the
//!   batch exit code under `"exit"`.
//! * `invalidate` — drop the engine's in-memory memo tables (the disk
//!   cache, if any, is untouched); the next check revalidates everything.
//! * `subscribe` — register this connection for push diagnostics: after
//!   every completed check (from any client) the daemon writes one line
//!   `{"method": "diagnostics", "params": <envelope>}` to it.
//! * `shutdown` — unlink the socket and exit after responding.
//!
//! The reports in every envelope are byte-identical to a cold batch
//! `mcheck` run over the same files — the daemon is a transport, never a
//! second analysis pipeline.
//!
//! ## Socket lifecycle
//!
//! `serve` refuses to start when another daemon is alive on the socket
//! (connecting succeeds), and silently reaps a stale socket file whose
//! daemon died (connecting fails). Clients that find no listener fall
//! back to spawning `mcheckd serve` themselves (`connect_or_spawn`), so
//! the first `--watch` or `mcheckd check` of a session transparently
//! becomes the daemon's parent.

use crate::{build_driver, checked_reports, engine_for, json_envelope, CliError, Options};
use mc_driver::{CheckEngine, Driver};
use mc_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Usage text for the `mcheckd` binary.
pub const DAEMON_USAGE: &str = "\
usage: mcheckd <serve|check|invalidate|shutdown> --socket <path> [OPTIONS] [file.c...]

  serve       run the daemon: bind the socket, keep a hot CheckEngine,
              answer JSON-RPC requests until `shutdown`. Takes the same
              options as mcheck (--builtin, --checker, --cache-dir, ...);
              they fix the daemon's checker configuration.
  check       send a check request for the given files (spawns a daemon
              with the same options when none is listening). Prints the
              mcheck-reports JSON envelope; exits 0/1 like mcheck.
  invalidate  drop the daemon's in-memory memo tables
  shutdown    stop the daemon and remove the socket (exit 0 if none runs)

exit codes: 0 ran clean, 1 reports were emitted, 2 usage or I/O error";

/// Shared server state: one driver + engine pair (the analysis identity
/// of this daemon, fixed at `serve` time) and the subscriber list. The
/// driver sits behind a mutex only so per-request `jobs` hints can be
/// applied; nothing about its checker suite ever changes.
struct State {
    driver: Mutex<Driver>,
    engine: Mutex<CheckEngine>,
    opts: Options,
    socket: PathBuf,
    subscribers: Mutex<Vec<Arc<Mutex<UnixStream>>>>,
}

/// Binds `socket`, refusing when a live daemon already owns it and
/// reaping it when its owner died.
fn bind_socket(socket: &Path) -> Result<UnixListener, CliError> {
    match UnixListener::bind(socket) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(CliError(format!(
                    "{}: an mcheckd daemon is already listening here",
                    socket.display()
                )));
            }
            // The socket file outlived its daemon: reap and rebind.
            std::fs::remove_file(socket)
                .map_err(|e| CliError(format!("{}: {e}", socket.display())))?;
            UnixListener::bind(socket).map_err(|e| CliError(format!("{}: {e}", socket.display())))
        }
        Err(e) => Err(CliError(format!("{}: {e}", socket.display()))),
    }
}

/// Runs the daemon on `socket` until a client sends `shutdown`. The
/// options fix the checker suite and cache directory for every request
/// this daemon will serve.
///
/// # Errors
///
/// Returns [`CliError`] when the socket cannot be bound (including a live
/// daemon already owning it) or the options describe an unbuildable
/// driver.
pub fn serve(opts: &Options, socket: &Path) -> Result<(), CliError> {
    let listener = bind_socket(socket)?;
    let state = Arc::new(State {
        driver: Mutex::new(build_driver(opts)?),
        engine: Mutex::new(engine_for(opts)?),
        opts: opts.clone(),
        socket: socket.to_path_buf(),
        subscribers: Mutex::new(Vec::new()),
    });
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve_client(conn, &state));
    }
    Ok(())
}

/// One client connection: read request lines, write response lines. The
/// write half is shared (via `Arc<Mutex<_>>`) with the diagnostics
/// pusher once the client subscribes, so responses and pushes never
/// interleave mid-line.
fn serve_client(conn: UnixStream, state: &Arc<State>) {
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(conn));
    let mut reader = BufReader::new(read_half);
    loop {
        let (id, outcome, shutdown) = match read_request(&mut reader, MAX_REQUEST_BYTES) {
            Ok(Request::Line(line)) if line.trim().is_empty() => continue,
            Ok(Request::Line(line)) => dispatch(&line, state, &writer),
            Ok(Request::TooLong) => (
                Json::Null,
                Err(format!(
                    "bad request: longer than {MAX_REQUEST_BYTES} bytes"
                )),
                false,
            ),
            Ok(Request::NotUtf8) => (Json::Null, Err("bad request: not UTF-8".into()), false),
            Ok(Request::Closed) | Err(_) => break,
        };
        let response = match outcome {
            Ok(result) => Json::Object(vec![("id".into(), id), ("result".into(), result)]),
            Err(msg) => Json::Object(vec![("id".into(), id), ("error".into(), Json::Str(msg))]),
        };
        {
            let mut w = writer.lock().unwrap();
            if writeln!(w, "{}", response.to_compact()).is_err() {
                break;
            }
            let _ = w.flush();
        }
        if shutdown {
            let _ = std::fs::remove_file(&state.socket);
            std::process::exit(0);
        }
    }
}

/// The longest request line the daemon reads, in bytes. A `check`
/// request lists its files, so tens of thousands of paths still fit.
const MAX_REQUEST_BYTES: usize = 4 << 20;

/// One request line, as read off a connection.
#[derive(Debug, PartialEq, Eq)]
enum Request {
    /// The line, without its newline.
    Line(String),
    /// The line exceeded the cap; it was read through and dropped.
    TooLong,
    /// The line was not valid UTF-8.
    NotUtf8,
    /// The client closed the connection.
    Closed,
}

/// Reads one newline-terminated request of at most `cap` bytes (the
/// newline excluded; a `\r` before it is JSON whitespace). A longer line is consumed through its newline
/// without being kept, so the connection stays in step for the next
/// request.
fn read_request(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Request> {
    let mut line: Vec<u8> = Vec::new();
    let mut too_long = false;
    let mut seen = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !seen {
                return Ok(Request::Closed);
            }
            break;
        }
        seen = true;
        let (take, end) = match chunk.iter().position(|&b| b == b'\n') {
            Some(k) => (k + 1, true),
            None => (chunk.len(), false),
        };
        // The newline itself does not count against the cap.
        let body = take - usize::from(end);
        if !too_long && line.len() + body <= cap {
            line.extend_from_slice(&chunk[..body]);
        } else if !too_long {
            too_long = true;
            line = Vec::new();
        }
        reader.consume(take);
        if end {
            break;
        }
    }
    if too_long {
        return Ok(Request::TooLong);
    }
    Ok(String::from_utf8(line).map_or(Request::NotUtf8, Request::Line))
}

/// Parses and executes one request line. Returns the echoed id, the
/// result-or-error, and whether the daemon should exit after replying.
fn dispatch(
    line: &str,
    state: &Arc<State>,
    writer: &Arc<Mutex<UnixStream>>,
) -> (Json, Result<Json, String>, bool) {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (Json::Null, Err(format!("bad request: {e}")), false),
    };
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let method = req.get("method").and_then(Json::as_str).unwrap_or("");
    match method {
        "check" => (id, do_check(state, req.get("params")), false),
        "invalidate" => {
            let fresh = match engine_for(&state.opts) {
                Ok(e) => e,
                Err(e) => return (id, Err(e.to_string()), false),
            };
            *state.engine.lock().unwrap() = fresh;
            (id, Ok(ok_result()), false)
        }
        "subscribe" => {
            state.subscribers.lock().unwrap().push(Arc::clone(writer));
            (id, Ok(ok_result()), false)
        }
        "shutdown" => (id, Ok(ok_result()), true),
        other => (id, Err(format!("unknown method `{other}`")), false),
    }
}

fn ok_result() -> Json {
    Json::Object(vec![("ok".into(), Json::Bool(true))])
}

/// Executes a `check` request: read the sources, run the hot engine, and
/// package the envelope + stats. Pushes the envelope to every subscriber
/// before replying.
fn do_check(state: &Arc<State>, params: Option<&Json>) -> Result<Json, String> {
    let files: Vec<PathBuf> = match params.and_then(|p| p.get("files")).and_then(Json::as_array) {
        Some(items) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(PathBuf::from)
                    .ok_or_else(|| "params.files must be an array of strings".to_string())
            })
            .collect::<Result<_, _>>()?,
        None => state.opts.files.clone(),
    };
    if files.is_empty() {
        return Err("no files to check".into());
    }
    // An optional per-request worker-count hint; the daemon's configured
    // count (its serve-time --jobs, or the parallelism default) applies
    // when absent. Invalid hints are request errors, not silently ignored.
    let jobs_hint = match params.and_then(|p| p.get("jobs")) {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_i64() {
            Some(n) if n >= 1 => Some(n as usize),
            _ => return Err("params.jobs must be a positive integer".into()),
        },
    };
    let mut opts = state.opts.clone();
    opts.files = files;
    let (reports, suppressed, refuted, stats, effective_jobs) = {
        // Lock order: driver, then engine — both are held for the whole
        // check so a concurrent request cannot swap the jobs hint mid-run.
        let mut driver = state.driver.lock().unwrap();
        driver.set_jobs(jobs_hint.or(state.opts.jobs));
        let sources = crate::read_sources(&opts.files).map_err(|e| e.to_string())?;
        let mut engine = state.engine.lock().unwrap();
        let out =
            checked_reports(&driver, &mut engine, &opts, &sources).map_err(|e| e.to_string())?;
        (out.0, out.1, out.2, out.3, driver.effective_jobs())
    };
    let envelope = json_envelope(&reports, suppressed, refuted);
    push_diagnostics(state, &envelope);
    Ok(Json::Object(vec![
        ("reports".into(), envelope),
        (
            "stats".into(),
            mc_json::object(vec![
                ("units", Json::Int(stats.units as i64)),
                ("units_checked", Json::Int(stats.units_checked as i64)),
                (
                    "functions_rechecked",
                    Json::Int(stats.functions_rechecked as i64),
                ),
                (
                    "functions_replayed",
                    Json::Int(stats.functions_replayed as i64),
                ),
                ("replays_run", Json::Int(stats.replays_run as i64)),
                ("replays_cached", Json::Int(stats.replays_cached as i64)),
                ("jobs", Json::Int(effective_jobs as i64)),
            ]),
        ),
        ("exit".into(), Json::Int(i64::from(!reports.is_empty()))),
    ]))
}

/// Writes one `diagnostics` notification line to every subscriber,
/// dropping subscribers whose connection is gone.
fn push_diagnostics(state: &Arc<State>, envelope: &Json) {
    let note = Json::Object(vec![
        ("method".into(), Json::Str("diagnostics".into())),
        ("params".into(), envelope.clone()),
    ])
    .to_compact();
    state.subscribers.lock().unwrap().retain(|sub| {
        let mut w = sub.lock().unwrap();
        writeln!(w, "{note}").and_then(|()| w.flush()).is_ok()
    });
}

/// A connected client: line-oriented request/response over the socket.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: i64,
}

impl Client {
    /// Connects to a daemon already listening on `socket`.
    ///
    /// # Errors
    ///
    /// Propagates the connect error (no listener, permissions, ...).
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 1,
        })
    }

    /// Connects to `socket`, spawning `mcheckd serve` (configured from
    /// `opts`) first when nothing is listening — the fall-back that makes
    /// the daemon self-hosting: whoever asks first becomes its parent.
    ///
    /// The daemon binary is `$MCHECKD_BIN` when set, the current
    /// executable when it *is* mcheckd, or an `mcheckd` sibling of the
    /// current executable otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when spawning fails or the daemon does not
    /// come up within the grace period.
    pub fn connect_or_spawn(socket: &Path, opts: &Options) -> Result<Client, CliError> {
        if let Ok(client) = Client::connect(socket) {
            return Ok(client);
        }
        let bin = daemon_binary()?;
        let mut cmd = std::process::Command::new(&bin);
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(config_args(opts))
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd.spawn()
            .map_err(|e| CliError(format!("spawning {}: {e}", bin.display())))?;
        // The daemon builds its driver before binding; give it a moment.
        for _ in 0..100 {
            std::thread::sleep(std::time::Duration::from_millis(50));
            if let Ok(client) = Client::connect(socket) {
                return Ok(client);
            }
        }
        Err(CliError(format!(
            "{}: daemon did not come up after spawn",
            socket.display()
        )))
    }

    /// Sends one request and reads its response line. Returns the
    /// `result` value, or an error carrying the daemon's `error` string.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] on transport failure, an unparsable response,
    /// or a daemon-side error.
    pub fn request(&mut self, method: &str, params: Json) -> Result<Json, CliError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Json::Object(vec![
            ("id".into(), Json::Int(id)),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), params),
        ]);
        writeln!(self.writer, "{}", req.to_compact())
            .and_then(|()| self.writer.flush())
            .map_err(|e| CliError(format!("daemon request: {e}")))?;
        // Skip any interleaved push notifications (they carry no "id").
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| CliError(format!("daemon response: {e}")))?;
            if n == 0 {
                return Err(CliError("daemon closed the connection".into()));
            }
            let resp = Json::parse(line.trim())
                .map_err(|e| CliError(format!("bad daemon response: {e}")))?;
            if resp.get("id").and_then(Json::as_i64) != Some(id) {
                continue;
            }
            if let Some(msg) = resp.get("error").and_then(Json::as_str) {
                return Err(CliError(format!("daemon: {msg}")));
            }
            return resp
                .get("result")
                .cloned()
                .ok_or_else(|| CliError("daemon response has no result".into()));
        }
    }
}

/// Resolves the daemon binary for spawn fall-back: `$MCHECKD_BIN`, the
/// current executable when it is mcheckd itself, or its `mcheckd`
/// sibling (the cargo layout installs both binaries side by side).
fn daemon_binary() -> Result<PathBuf, CliError> {
    if let Some(bin) = std::env::var_os("MCHECKD_BIN") {
        return Ok(PathBuf::from(bin));
    }
    let exe = std::env::current_exe().map_err(|e| CliError(format!("locating mcheckd: {e}")))?;
    if exe.file_stem().is_some_and(|s| s == "mcheckd") {
        return Ok(exe);
    }
    let sibling = exe.with_file_name("mcheckd");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(CliError(format!(
        "mcheckd binary not found next to {} (set MCHECKD_BIN)",
        exe.display()
    )))
}

/// Reconstructs the configuration flags a spawned daemon needs so its
/// driver (suite key, config epoch, cache) matches the client's options —
/// the transport must never change what gets checked.
fn config_args(opts: &Options) -> Vec<std::ffi::OsString> {
    let mut args: Vec<std::ffi::OsString> = Vec::new();
    for checker in &opts.checkers {
        args.push("--checker".into());
        args.push(checker.into());
    }
    if opts.builtin {
        args.push("--builtin".into());
    }
    if let Some(spec) = &opts.spec {
        args.push("--spec".into());
        args.push(spec.into());
    }
    if opts.exhaustive {
        args.push("--mode".into());
        args.push("exhaustive".into());
    }
    if let Some(jobs) = opts.jobs {
        args.push("--jobs".into());
        args.push(jobs.to_string().into());
    }
    args.push(if opts.prune { "--prune" } else { "--no-prune" }.into());
    args.push(
        if opts.interproc {
            "--interproc"
        } else {
            "--no-interproc"
        }
        .into(),
    );
    args.push(
        if opts.refute {
            "--refute"
        } else {
            "--no-refute"
        }
        .into(),
    );
    if let Some(dir) = &opts.cache_dir {
        args.push("--cache-dir".into());
        args.push(dir.into());
    }
    if opts.no_cache {
        args.push("--no-cache".into());
    }
    if let Some(cap) = opts.cache_cap_bytes {
        args.push("--cache-cap-bytes".into());
        args.push(cap.to_string().into());
    }
    for file in &opts.files {
        args.push(file.into());
    }
    args
}

/// Builds a `check` request's params: the absolutized files plus the
/// client's `--jobs` as a per-request worker-count hint when set, so a
/// client's parallelism preference survives the hop into a daemon that
/// was started with different (or no) `--jobs`.
fn check_params(opts: &Options, files: Vec<Json>) -> Json {
    let mut fields = vec![("files".to_string(), Json::Array(files))];
    if let Some(jobs) = opts.jobs {
        fields.push(("jobs".to_string(), Json::Int(jobs as i64)));
    }
    Json::Object(fields)
}

/// Absolutizes the client's file paths so the daemon (whose working
/// directory is its own) reads the same files.
fn absolute_files(files: &[PathBuf]) -> Result<Vec<Json>, CliError> {
    files
        .iter()
        .map(|f| {
            let abs =
                std::fs::canonicalize(f).map_err(|e| CliError(format!("{}: {e}", f.display())))?;
            Ok(Json::Str(abs.display().to_string()))
        })
        .collect()
}

/// The `--watch --daemon-socket` loop: a thin client that connects to (or
/// spawns) the daemon and sends one `check` request per settled edit
/// burst, printing each response's envelope. The engine stays hot in the
/// daemon across this process's whole lifetime — and across *other*
/// clients' requests too.
///
/// # Errors
///
/// Returns [`CliError`] when the daemon cannot be reached or spawned;
/// in-flight request failures are printed and watched through, matching
/// the in-process watch loop's resilience.
pub fn run_watch_client(
    opts: &Options,
    socket: &Path,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut client = Client::connect_or_spawn(socket, opts)?;
    let interval = std::time::Duration::from_millis(opts.watch_interval_ms.max(1));
    let mut cycles = 0usize;
    let mut snaps: Vec<crate::FileSnap> = opts.files.iter().map(|f| crate::snap_of(f)).collect();
    loop {
        match absolute_files(&opts.files)
            .and_then(|files| client.request("check", check_params(opts, files)))
        {
            Ok(result) => {
                let stats = result.get("stats");
                let count = |k: &str| {
                    stats
                        .and_then(|s| s.get(k))
                        .and_then(Json::as_i64)
                        .unwrap_or(0)
                };
                let _ = writeln!(
                    out,
                    "[watch] daemon checked {} file(s) ({} functions re-checked, {} replayed)",
                    count("units"),
                    count("functions_rechecked"),
                    count("functions_replayed"),
                );
                if let Some(envelope) = result.get("reports") {
                    let _ = writeln!(out, "{}", envelope.to_pretty());
                }
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
            }
        }
        let _ = out.flush();
        cycles += 1;
        if opts.watch_iterations.is_some_and(|n| cycles >= n) {
            return Ok(());
        }
        crate::wait_for_settled_change(&opts.files, &mut snaps, interval);
    }
}

/// The `mcheckd` binary's entry point. Returns the process exit code.
pub fn cli_main<I: IntoIterator<Item = String>>(args: I) -> u8 {
    match cli_run(args) {
        Ok(code) => code,
        Err(CliError(msg)) => {
            eprintln!("mcheckd: {msg}");
            2
        }
    }
}

fn cli_run<I: IntoIterator<Item = String>>(args: I) -> Result<u8, CliError> {
    let mut rest: Vec<String> = Vec::new();
    let mut socket: Option<PathBuf> = None;
    let mut command: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                let v = it.next().ok_or(CliError("--socket needs a path".into()))?;
                socket = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(CliError(DAEMON_USAGE.into())),
            "serve" | "check" | "invalidate" | "shutdown" if command.is_none() => {
                command = Some(arg);
            }
            _ => rest.push(arg),
        }
    }
    let command = command.ok_or(CliError(DAEMON_USAGE.into()))?;
    let socket = socket.ok_or(CliError(format!("{command} needs --socket <path>")))?;
    match command.as_str() {
        "serve" => {
            let opts = crate::parse_args(rest)?;
            serve(&opts, &socket)?;
            Ok(0)
        }
        "check" => {
            let opts = crate::parse_args(rest)?;
            let mut client = Client::connect_or_spawn(&socket, &opts)?;
            let files = absolute_files(&opts.files)?;
            let result = client.request("check", check_params(&opts, files))?;
            if let Some(envelope) = result.get("reports") {
                println!("{}", envelope.to_pretty());
            }
            Ok(result.get("exit").and_then(Json::as_i64).unwrap_or(0) as u8)
        }
        "invalidate" => {
            let mut client = Client::connect(&socket)
                .map_err(|e| CliError(format!("{}: {e}", socket.display())))?;
            client.request("invalidate", Json::Null)?;
            println!("invalidated");
            Ok(0)
        }
        "shutdown" => match Client::connect(&socket) {
            Ok(mut client) => {
                client.request("shutdown", Json::Null)?;
                println!("daemon stopped");
                Ok(0)
            }
            // No listener: nothing to stop. Reap a stale socket file so
            // the next serve starts clean.
            Err(_) => {
                let _ = std::fs::remove_file(&socket);
                println!("no daemon running");
                Ok(0)
            }
        },
        _ => unreachable!("command is validated above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(input: &[u8], cap: usize) -> Vec<Request> {
        // A tiny buffer makes lines straddle refills.
        let mut reader = BufReader::with_capacity(3, input);
        let mut out = Vec::new();
        loop {
            let req = read_request(&mut reader, cap).unwrap();
            if req == Request::Closed {
                return out;
            }
            out.push(req);
        }
    }

    #[test]
    fn requests_split_on_newlines_and_keep_the_stream_in_step_past_the_cap() {
        let line = |s: &str| Request::Line(s.to_string());
        assert_eq!(
            read_all(b"ab\r\n\n12345678\n123456789\n1234\nlast", 8),
            [
                line("ab\r"),
                line(""),
                line("12345678"),
                Request::TooLong,
                line("1234"),
                line("last"),
            ]
        );
        assert_eq!(
            read_all(b"\xff\xfe\nok\n", 8),
            [Request::NotUtf8, line("ok")]
        );
        assert_eq!(read_all(b"", 8), []);
        assert_eq!(read_all(b"123456789", 8), [Request::TooLong]);
    }
}
