//! Deeply nested C source: a file at the parser's nesting limit is parsed
//! and checked by the whole pipeline (CFG, traversal, refutation, replay,
//! rendering) on the worker pool's threads without overflowing a stack,
//! and a file past the limit is a parse error, not an abort.
//!
//! The pool runs parsing on spawned worker threads when there are several
//! files and several jobs, and on the calling thread at `--jobs 1`; the
//! test harness's threads have the same 2 MiB stacks as the workers.

use flash_mc::ast::MAX_NESTING;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-deep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two handlers `depth` levels deep. In the first, half the levels are
/// statements and the innermost ones hold an expression using the rest,
/// around a buffer read before its wait (so a report's witness runs through
/// the nest). The second nests subscripts, the costliest level per frame.
fn deep_handler(depth: usize) -> String {
    let half = depth / 2;
    // `if`s take levels 1..=half-2, the block half-1 and its statements
    // half; `x = ` spends two more levels and each parenthesis one.
    let parens = depth - half - 2;
    // The statement, `x = ` and one level per subscript.
    let subscripts = depth - 3;
    format!(
        "int gA;\n\
         int a[4];\n\
         void NIDeepRace(void) {{\n\
         int x;\n\
         {}{{ MISCBUS_READ_DB(addr, buf); x = {}gA{}; WAIT_FOR_DB_FULL(addr); }}\n\
         }}\n\
         void NIDeepIndex(void) {{\n\
         int x;\n\
         x = {}0{};\n\
         }}\n",
        "if (gA) ".repeat(half - 2),
        "(".repeat(parens),
        ")".repeat(parens),
        "a[".repeat(subscripts),
        "]".repeat(subscripts),
    )
}

fn shallow_handler(i: usize) -> String {
    format!("void NIShallow{i}(void) {{ if (gB) {{ WAIT_FOR_DB_FULL(addr); }} }}\n")
}

/// Writes the deep file plus a few shallow ones and checks them all.
fn check(dir: &Path, deep: &str, jobs: usize) -> (u8, String, String) {
    let mut files = vec![dir.join("deep.c")];
    std::fs::write(&files[0], deep).unwrap();
    for i in 0..3 {
        let path = dir.join(format!("shallow{i}.c"));
        std::fs::write(&path, shallow_handler(i)).unwrap();
        files.push(path);
    }
    let mut args: Vec<String> = ["--builtin", "--no-cache", "--format", "json", "--jobs"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.push(jobs.to_string());
    args.extend(files.iter().map(|f| f.display().to_string()));
    let opts = mc_cli::parse_args(args).expect("args parse");
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = match mc_cli::run_full(&opts, &mut out, &mut err) {
        Ok(code) => code,
        Err(e) => {
            err.extend_from_slice(e.to_string().as_bytes());
            2
        }
    };
    (
        code,
        String::from_utf8(out).unwrap(),
        String::from_utf8(err).unwrap(),
    )
}

#[test]
fn a_file_at_the_limit_checks_identically_at_one_and_four_jobs() {
    let dir = scratch("limit");
    let deep = deep_handler(MAX_NESTING);
    let (code1, out1, err1) = check(&dir, &deep, 1);
    assert_eq!(code1, 1, "reports expected; stderr: {err1}");
    assert!(out1.contains("NIDeepRace"), "{out1}");
    let (code4, out4, _) = check(&dir, &deep, 4);
    assert_eq!((code4, out4), (code1, out1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_file_past_the_limit_is_a_parse_error_at_one_and_four_jobs() {
    let dir = scratch("past");
    for deep in [
        deep_handler(MAX_NESTING + 1),
        format!(
            "void f(void) {{ int x; x = {}1{}; }}",
            "(".repeat(5000),
            ")".repeat(5000)
        ),
        format!(
            "void f(void) {{ {}{} }}",
            "{".repeat(100_000),
            "}".repeat(100_000)
        ),
    ] {
        for jobs in [1, 4] {
            let (code, _, err) = check(&dir, &deep, jobs);
            assert_eq!(code, 2, "jobs {jobs}: {err}");
            assert!(err.contains("nested deeper than"), "jobs {jobs}: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
