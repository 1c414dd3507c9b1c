//! A real `mcheckd` process and one client connection to it.
//!
//! The daemon is this executable re-run as `--serve-daemon serve ...`,
//! which calls [`mc_cli::daemon::cli_main`] exactly as the `mcheckd`
//! binary's `main` does, so requests cross the daemon's own unix-socket
//! transport and request handling.

use mc_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The argument that turns this executable into `mcheckd`.
pub const SERVE_FLAG: &str = "--serve-daemon";

/// A running daemon plus the benchmark's single connection to it.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: i64,
}

/// One answered request.
pub struct Response {
    /// The `result` member.
    pub result: Json,
    /// Request write to response read, in seconds.
    pub secs: f64,
    /// Bytes of the response line.
    pub bytes: usize,
    /// Time spent decoding the response line, in seconds.
    pub decode_secs: f64,
}

impl Daemon {
    /// Starts `mcheckd serve --socket <socket> <args>` and connects.
    pub fn start(socket: &Path, args: &[String]) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        let child = Command::new(exe)
            .arg(SERVE_FLAG)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning mcheckd: {e}"))?;
        let mut child = Some(child);
        let deadline = Instant::now() + Duration::from_secs(60);
        let stream = loop {
            if let Ok(s) = UnixStream::connect(socket) {
                break s;
            }
            let exited = child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
                .is_some();
            if exited || Instant::now() > deadline {
                if let Some(mut c) = child.take() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(format!("{}: mcheckd did not come up", socket.display()));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning socket: {e}"))?,
        );
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, method: &str, params: Json) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let line = Json::Object(vec![
            ("id".into(), Json::Int(id)),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), params),
        ])
        .to_compact();
        let start = Instant::now();
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("daemon request: {e}"))?;
        let mut resp = String::new();
        loop {
            resp.clear();
            let n = self
                .reader
                .read_line(&mut resp)
                .map_err(|e| format!("daemon response: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            // Push notifications carry no id; this client never subscribes,
            // but skip them anyway.
            if resp.contains("\"id\"") {
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let (parsed, decode_secs) = crate::measure::timed(|| Json::parse(resp.trim()));
        let parsed = parsed.map_err(|e| format!("bad daemon response: {e}"))?;
        if let Some(msg) = parsed.get("error").and_then(Json::as_str) {
            return Err(format!("daemon: {msg}"));
        }
        let result = parsed
            .get("result")
            .cloned()
            .ok_or("daemon response has no result")?;
        Ok(Response {
            result,
            secs,
            bytes: resp.len(),
            decode_secs,
        })
    }

    /// A `check` request over `files` (paths as the daemon should read
    /// them).
    pub fn check(&mut self, files: &[PathBuf]) -> Result<Response, String> {
        let files = files
            .iter()
            .map(|f| Json::Str(crate::verify::path_arg(f)))
            .collect();
        self.request(
            "check",
            Json::Object(vec![("files".into(), Json::Array(files))]),
        )
    }

    /// Asks the daemon to exit and waits until it has.
    pub fn stop(mut self) -> Result<(), String> {
        let outcome = self.request("shutdown", Json::Object(Vec::new()));
        let status = self
            .child
            .take()
            .map(|mut c| c.wait().map_err(|e| format!("waiting for mcheckd: {e}")));
        outcome?;
        match status {
            Some(Ok(s)) if s.success() => Ok(()),
            Some(Ok(s)) => Err(format!("mcheckd exited with {s}")),
            Some(Err(e)) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is killed and reaped, and its
    /// socket file removed.
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// Runs this process as `mcheckd` with `args` (everything after
/// [`SERVE_FLAG`]) and returns its exit code. A watchdog thread ends the
/// daemon if the benchmark that started it dies without stopping it, so
/// no daemon outlives its run.
pub fn serve_main(args: Vec<String>) -> u8 {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(3);
        }
    });
    mc_cli::daemon::cli_main(args)
}
