//! `cae-lint`: the workspace safety/concurrency lint gate.
//!
//! Exit status: 0 when no rule fires, 1 on any finding, 2 on usage or
//! I/O errors. See the crate docs ([`cae_analysis`]) for the rule set.

use cae_analysis::{
    analyze_files, find_workspace_root, findings_to_json, finish, workspace_rs_files, Finding,
    SymbolGraph, RULES,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    workspace: bool,
    json: bool,
    list_rules: bool,
    graph_json: bool,
    rule_filter: Vec<String>,
    root: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: cae-lint [--workspace] [--json] [--rule ID]… [--list-rules]\n\
     \x20               [--graph-json] [--root DIR] [FILE…]\n\
     \n\
     --workspace   lint every .rs file of the enclosing cargo workspace\n\
     --json        machine-readable output (stable shape, see lib docs)\n\
     --rule ID     report only this rule (repeatable); exit 2 on an\n\
     \x20             unknown ID\n\
     --list-rules  print the rule catalog and exit\n\
     --graph-json  print the workspace symbol graph as JSON and exit 0\n\
     --root DIR    anchor workspace-relative paths at DIR (default: the\n\
     \x20             nearest ancestor Cargo.toml with a [workspace] table)\n\
     FILE…         lint specific files instead of the whole workspace"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        json: false,
        list_rules: false,
        graph_json: false,
        rule_filter: Vec::new(),
        root: None,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--graph-json" => opts.graph_json = true,
            "--rule" => {
                let id = args.next().ok_or("--rule requires a rule ID")?;
                if !RULES.iter().any(|r| r.id == id) {
                    return Err(format!(
                        "unknown rule `{id}` (run --list-rules for the catalog)"
                    ));
                }
                opts.rule_filter.push(id);
            }
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if !opts.list_rules && !opts.workspace && opts.files.is_empty() {
        return Err("nothing to lint: pass --workspace or file paths".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("cae-lint: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in RULES {
            println!("{:3}  {}", rule.id, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let cwd = std::env::current_dir().expect("cwd");
    let root = opts
        .root
        .clone()
        .or_else(|| find_workspace_root(&cwd))
        .unwrap_or(cwd);

    let files = if opts.workspace {
        match workspace_rs_files(&root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cae-lint: walking {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        opts.files.clone()
    };

    // Pass 1 over every file, then pass 2 once over the union so the
    // flow rules (A1, W1, F1, H1, E1, R1) see the whole symbol graph.
    let analyses = match analyze_files(&root, &files) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cae-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.graph_json {
        let graph = SymbolGraph::build(&analyses);
        println!("{}", graph.to_json(&analyses));
        return ExitCode::SUCCESS;
    }

    let mut findings: Vec<Finding> = finish(&analyses);
    if !opts.rule_filter.is_empty() {
        findings.retain(|f| opts.rule_filter.iter().any(|id| id == f.rule));
    }

    if opts.json {
        println!("{}", findings_to_json(&findings, files.len()));
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        println!(
            "cae-lint: {} finding(s) across {} file(s)",
            findings.len(),
            files.len()
        );
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
