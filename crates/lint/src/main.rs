//! Command line for the workspace linter.
//!
//! ```text
//! logparse-lint --workspace [--root PATH] [--deny warnings]
//!               [--stats] [PATH…]
//! logparse-lint --list
//! ```
//!
//! Positional paths filter the *reported* findings to files whose
//! workspace-relative path starts with one of them; analysis always
//! covers the whole workspace so cross-file lints stay sound.
//!
//! `--stats` prints phase timings and call-graph coverage to stderr.

#![forbid(unsafe_code)]

use logparse_lint::lints::CATALOG;
use logparse_lint::{is_fatal, report, run_workspace_stats};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    deny_warnings: bool,
    list: bool,
    stats: bool,
    only: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        deny_warnings: false,
        list: false,
        stats: false,
        only: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => {
                args.root =
                    PathBuf::from(it.next().ok_or_else(|| "--root needs a path".to_string())?);
            }
            "--deny" => {
                let what = it
                    .next()
                    .ok_or_else(|| "--deny needs a level".to_string())?;
                if what != "warnings" {
                    return Err(format!("unknown --deny level `{what}`"));
                }
                args.deny_warnings = true;
            }
            "--list" => args.list = true,
            "--stats" => args.stats = true,
            "--help" | "-h" => {
                return Err(String::new());
            }
            p if !p.starts_with('-') => args.only.push(p.replace('\\', "/")),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: logparse-lint [--workspace] [--root PATH] \
                     [--deny warnings] [--stats] [--list] [PATH…]";

/// The `--list` output: one line per catalog lint, names padded to the
/// longest so the severity column lines up.
fn catalog_listing() -> String {
    let width = CATALOG
        .iter()
        .map(|(name, _, _)| name.len())
        .max()
        .unwrap_or(0);
    CATALOG
        .iter()
        .map(|(name, severity, what)| format!("{name:<width$} {:<8} {what}\n", severity.label()))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", catalog_listing());
        return ExitCode::SUCCESS;
    }
    let (mut findings, stats) = match run_workspace_stats(&args.root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!(
                "lint: cannot walk workspace at {}: {e}",
                args.root.display()
            );
            return ExitCode::from(2);
        }
    };
    if !args.only.is_empty() {
        findings.retain(|f| args.only.iter().any(|p| f.rel.starts_with(p.as_str())));
    }
    print!("{}", report::human(&findings, args.deny_warnings));
    if args.stats {
        eprintln!(
            "lint --stats: {} files, {} fns, \
             calls {} resolved / {} unresolved, analyze {}ms + graph {}ms = {}ms",
            stats.files,
            stats.functions,
            stats.resolved_calls,
            stats.unresolved_calls,
            stats.analyze_ms,
            stats.graph_ms,
            stats.total_ms,
        );
    }
    if !findings.is_empty() && is_fatal(&findings, args.deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_aligns_the_severity_column() {
        let listing = catalog_listing();
        let lines: Vec<&str> = listing.lines().collect();
        assert_eq!(lines.len(), CATALOG.len());
        let width = CATALOG.iter().map(|(n, _, _)| n.len()).max().unwrap();
        for (line, (name, severity, _)) in lines.iter().zip(CATALOG) {
            assert_eq!(line[..width].trim_end(), *name, "{line}");
            let label = severity.label();
            assert_eq!(
                line[width..width + label.len() + 2],
                format!(" {label} "),
                "{line}"
            );
        }
    }
}
