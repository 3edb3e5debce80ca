//! Every repository path the documents name in backticks exists, and so
//! does every `Type::member` README.md and DESIGN.md name, so a file or a
//! method that moves or goes takes its mentions with it. EXPERIMENTS.md is a
//! log of what was measured when, and may name what has since gone.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// What a backticked token must start with to count as a repository path.
const ROOTS: [&str; 7] = [
    "crates/",
    "examples/",
    "tests/",
    "src/",
    "bench/",
    "benchmark/",
    "vendor/",
];

/// The code spans of one line of Markdown, trimmed: the text between a run
/// of backticks and the next run of the same length.
fn code_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let ticks = backtick_run(&rest[open..]);
        let body = &rest[open + ticks..];
        match find_run(body, ticks) {
            Some(close) => {
                spans.push(body[..close].trim());
                rest = &body[close + ticks..];
            }
            None => rest = body,
        }
    }
    spans
}

/// How many backticks `s` starts with.
fn backtick_run(s: &str) -> usize {
    s.len() - s.trim_start_matches('`').len()
}

/// Where in `s` the first run of exactly `ticks` backticks starts.
fn find_run(s: &str, ticks: usize) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = s[from..].find('`') {
        let start = from + i;
        let run = backtick_run(&s[start..]);
        if run == ticks {
            return Some(start);
        }
        from = start + run;
    }
    None
}

#[test]
fn code_spans_pair_backtick_runs_of_equal_length() {
    assert_eq!(code_spans("a `x` b ``y ` z`` c `open"), ["x", "y ` z"]);
}

#[test]
fn every_repo_path_the_documents_name_exists() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(repo.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            // Templates (`BENCH_{engine,faults}.json`), globs and
            // placeholders name families of paths, not one path.
            let paths = code_spans(line).into_iter().filter(|span| {
                ROOTS.iter().any(|root| span.starts_with(root)) && !span.contains(['{', '*', '<'])
            });
            for path in paths {
                checked += 1;
                if !repo.join(path).exists() {
                    missing.push(format!("{doc}:{}: `{path}`", n + 1));
                }
            }
        }
    }
    // The documents name dozens of paths; finding few means the scan broke.
    assert!(checked >= 50, "only {checked} backticked paths found");
    assert!(
        missing.is_empty(),
        "documents name paths that do not exist:\n{}",
        missing.join("\n")
    );
}

/// The documents that describe the code as it stands.
const DESCRIBING: [&str; 2] = ["README.md", "DESIGN.md"];

/// Where the code whose members the documents name lives.
const CODE: [&str; 3] = ["crates", "src", "examples"];

/// Mechanisms the documents describe as deleted: they may be named, and must
/// not exist.
const GONE: [&str; 10] = [
    "CampaignReport::rollup",
    "CampaignSpec::warm_start",
    "Ctx::rand_f64",
    "DagState::presumed_dead_count",
    "MetricsSnapshot::tx_bytes_total",
    "Observe::profile",
    "Observe::timeseries",
    "Probe::trace_event",
    "QueryCompleteness::missing_epochs",
    "SelectivityEstimator::observation_count",
];

/// Standard-library types the documents name members of; not checked.
const STD: [&str; 1] = ["Option"];

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `Type::member` names in `text`: a capitalised type, then a lower-case
/// method or field. Paths into modules (`std::mem::take`), variants
/// (`Strategy::TwoTier`) and constants (`Type::COUNT`) do not match.
fn member_names(text: &str) -> Vec<(&str, &str)> {
    let mut names = Vec::new();
    let mut from = 0;
    while let Some(i) = text[from..].find("::") {
        let at = from + i;
        from = at + 2;
        let ty_start = text[..at].rfind(|c| !is_ident(c)).map_or(0, |j| j + 1);
        let ty = &text[ty_start..at];
        let rest = &text[at + 2..];
        let member = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
        let preceded_by_path = text[..ty_start].ends_with("::");
        if ty.starts_with(|c: char| c.is_ascii_uppercase())
            && member.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
            && !preceded_by_path
        {
            names.push((ty, member));
        }
    }
    names
}

/// The type an `impl`, `trait` or `struct` header declares members of:
/// `impl<A: NodeApp> Simulator<A>` and `impl NodeApp for TinyDbApp` name
/// `Simulator` and `TinyDbApp`.
fn declared_type(header: &str) -> Option<String> {
    let mut plain = String::new();
    let mut depth = 0;
    for c in header.replace("->", "").chars() {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ if depth == 0 => plain.push(c),
            _ => {}
        }
    }
    let words: Vec<&str> = plain.split_whitespace().collect();
    let after = |w: &str| words.iter().position(|&x| x == w).map(|i| words.get(i + 1));
    let ty = after("for")
        .or_else(|| after("impl"))
        .or_else(|| after("trait"))
        .or_else(|| after("struct"))
        .flatten()?;
    let ty = ty.trim_start_matches('&').rsplit("::").next()?;
    Some(ty.chars().take_while(|&c| is_ident(c)).collect())
}

/// Methods of every `impl` and `trait` block, and fields of every struct,
/// in the Rust files under `dir`, by type name. Files are rustfmt-formatted,
/// so a block's members sit one indent in from its header and the block
/// closes at the header's own indent.
fn collect_members(dir: &Path, members: &mut BTreeMap<String, BTreeSet<String>>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_members(&path, members);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let trimmed = line.trim_start();
            let indent = line.len() - trimmed.len();
            let head = trimmed
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub ")
                .trim_start_matches("unsafe ");
            let is_struct = head.starts_with("struct ");
            if !(head.starts_with("impl") || head.starts_with("trait ") || is_struct) {
                continue;
            }
            let Some(open) = lines[i..].iter().position(|l| l.trim_end().ends_with('{')) else {
                continue;
            };
            if lines[i..i + open]
                .iter()
                .any(|l| l.trim_end().ends_with(';'))
            {
                continue; // a unit or tuple struct, or a one-line item
            }
            let header = lines[i..=i + open].join(" ");
            let Some(ty) = declared_type(&header) else {
                continue;
            };
            let close = format!("{}}}", " ".repeat(indent));
            let names = members.entry(ty).or_default();
            for body in lines[i + open + 1..].iter().take_while(|l| **l != close) {
                let inner = body.trim_start();
                if body.len() - inner.len() != indent + 4 {
                    continue;
                }
                let inner = inner
                    .trim_start_matches("pub(crate) ")
                    .trim_start_matches("pub ");
                let name = if is_struct {
                    inner.split_once(':').map(|(name, _)| name)
                } else {
                    inner
                        .trim_start_matches("const ")
                        .trim_start_matches("unsafe ")
                        .strip_prefix("fn ")
                        .map(|f| &f[..f.find(['(', '<']).unwrap_or(f.len())])
                };
                // Doc comments and attributes at the member indent are not
                // names.
                if let Some(name) = name.map(str::trim).filter(|n| n.chars().all(is_ident)) {
                    names.insert(name.to_string());
                }
            }
        }
    }
}

fn code_members() -> BTreeMap<String, BTreeSet<String>> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut members = BTreeMap::new();
    for dir in CODE {
        collect_members(&repo.join(dir), &mut members);
    }
    members
}

#[test]
fn member_names_are_a_type_then_a_method_or_field() {
    assert_eq!(
        member_names("`Simulator::run_until(t)`, `Strategy::TwoTier`, `std::mem::take`"),
        [("Simulator", "run_until")]
    );
    assert_eq!(
        member_names("`ttmqo_sim::Ctx::send` and `RunSession::new(..).finish()`"),
        [("RunSession", "new")]
    );
    for (header, ty) in [
        ("impl<A: NodeApp> Simulator<A> {", "Simulator"),
        ("impl<F: Fn() -> u8> fmt::Debug for Wrapper<F> {", "Wrapper"),
        ("pub trait NodeApp: Sized {", "NodeApp"),
    ] {
        assert_eq!(declared_type(header).as_deref(), Some(ty), "{header}");
    }
    let members = code_members();
    for (ty, member) in [
        ("Simulator", "run_until"),
        ("NodeApp", "on_message"),
        ("TinyDbApp", "on_message"),
        ("RadioParams", "distance_loss"),
    ] {
        assert!(members[ty].contains(member), "{ty}::{member} not found");
    }
}

#[test]
fn every_type_member_the_describing_documents_name_exists() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let members = code_members();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DESCRIBING {
        let text = fs::read_to_string(repo.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                continue;
            }
            if fenced {
                continue;
            }
            for span in code_spans(line) {
                for (ty, member) in member_names(span) {
                    let name = format!("{ty}::{member}");
                    if STD.contains(&ty) || GONE.contains(&name.as_str()) {
                        continue;
                    }
                    checked += 1;
                    if !members.get(ty).is_some_and(|m| m.contains(member)) {
                        missing.push(format!("{doc}:{}: `{name}`", n + 1));
                    }
                }
            }
        }
    }
    // The documents name dozens of members; finding few means the scan broke.
    assert!(checked >= 50, "only {checked} backticked members found");
    assert!(
        missing.is_empty(),
        "documents name methods or fields the code does not have:\n{}",
        missing.join("\n")
    );
}

#[test]
fn nothing_the_documents_call_gone_exists() {
    let members = code_members();
    for name in GONE {
        let (ty, member) = name.split_once("::").unwrap();
        assert!(
            members.contains_key(ty),
            "`{ty}` itself is gone: drop `{name}` from GONE and from the documents"
        );
        assert!(
            !members[ty].contains(member),
            "`{name}` is back in the code: take it off GONE"
        );
    }
}
