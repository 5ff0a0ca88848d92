//! amlint CLI — the CI gate.
//!
//! ```sh
//! cargo run -p amlint                     # human-readable findings
//! cargo run -p amlint -- --format json    # machine-readable, for results/
//! cargo run -p amlint -- --format github  # ::error workflow commands
//! ```
//!
//! Exits 0 when every finding is suppressed (or there are none), 1 on
//! any live violation, 2 on usage/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

struct Args {
    root: PathBuf,
    format: Format,
    quiet: bool,
}

const USAGE: &str = "usage: amlint [--root PATH] [--format text|json|github] [--quiet]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::new(),
        format: Format::Text,
        quiet: false,
    };
    let mut root: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(v));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("text") => args.format = Format::Text,
                Some("github") => args.format = Format::Github,
                other => {
                    return Err(format!(
                        "--format must be text, json or github, got {other:?}"
                    ))
                }
            },
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    args.root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    Ok(args)
}

/// Walk up from the current directory to the workspace root (the
/// directory whose Cargo.toml declares `[workspace]`). `cargo run -p
/// amlint` already starts there; this makes the binary callable from
/// any subdirectory too.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".to_string());
        }
    }
}

/// GitHub Actions workflow commands: one `::error` per live violation
/// (annotated inline on the PR diff), `::notice` for suppressed sites.
fn print_github(report: &amlint::Report) {
    for d in &report.diagnostics {
        let level = if d.suppressed { "notice" } else { "error" };
        // Workflow-command data: escape %, CR, LF per the Actions spec.
        let esc = |s: &str| {
            s.replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A")
        };
        println!(
            "::{level} file={},line={},title=amlint {}::{}",
            esc(&d.file),
            d.line,
            d.rule,
            esc(&d.message)
        );
    }
    println!(
        "amlint: {} violation(s), {} suppressed, {} files scanned",
        report.violations(),
        report.suppressed(),
        report.files_scanned
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let report = match amlint::lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("amlint: failed to scan {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    match args.format {
        Format::Json => print!("{}", report.to_json()),
        Format::Github => print_github(&report),
        Format::Text => {
            if !args.quiet {
                for d in &report.diagnostics {
                    println!("{d}");
                }
            }
            println!(
                "amlint: {} violation(s), {} suppressed, {} files scanned",
                report.violations(),
                report.suppressed(),
                report.files_scanned
            );
        }
    }

    if report.violations() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
