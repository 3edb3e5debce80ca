//! Every repository path the documents name in backticks exists, and so
//! does every `ttmqo::<crate>::<name>` they name and every `Type::member`
//! README.md and DESIGN.md name, so a file, a module or a method that moves
//! or goes takes its mentions with it. EXPERIMENTS.md is a log of what was
//! measured when, and may name members that have since gone. Every perf
//! ledger is named in EXPERIMENTS.md, every `DESIGN.md §N` names a section
//! that exists, and each document stays within its line budget.

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
            // Templates (`bench/results/{fig3,fig5}.jsonl`), globs and
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

/// The names a crate root declares public: its `pub` modules and items, and
/// what its `pub use` statements re-export (the alias, if any, else the
/// path's last segment).
fn public_names(lib_rs: &str) -> BTreeSet<String> {
    let code = lib_rs
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join(" ");
    let mut names = BTreeSet::new();
    let words: Vec<&str> = code.split_whitespace().collect();
    for w in words.windows(3) {
        let items = [
            "mod", "fn", "struct", "enum", "trait", "type", "const", "static",
        ];
        if w[0] == "pub" && items.contains(&w[1]) {
            names.insert(w[2].chars().take_while(|&c| is_ident(c)).collect());
        }
    }
    for statement in code.split(';') {
        let Some((_, tree)) = statement.split_once("pub use ") else {
            continue;
        };
        for item in tree.split(['{', '}', ',']) {
            let name = match item.rsplit_once(" as ") {
                Some((_, alias)) => alias,
                None => item.rsplit("::").next().unwrap_or(item),
            };
            if !name.trim().is_empty() {
                names.insert(name.trim().to_string());
            }
        }
    }
    names
}

/// `(crate, name)` for every `ttmqo::<crate>::<name>` in `text`, one pair
/// per name of a `{..}` group; the name is empty where the path stops at
/// the crate.
fn crate_paths(text: &str) -> Vec<(&str, &str)> {
    let leading_ident = |s: &str| s.find(|c| !is_ident(c)).unwrap_or(s.len());
    let mut paths = Vec::new();
    for (at, prefix) in text.match_indices("ttmqo::") {
        if text[..at].ends_with(is_ident) {
            continue;
        }
        let rest = &text[at + prefix.len()..];
        let krate = &rest[..leading_ident(rest)];
        let Some(after) = rest[krate.len()..].strip_prefix("::") else {
            paths.push((krate, ""));
            continue;
        };
        match after.strip_prefix('{') {
            Some(group) => {
                let group = &group[..group.find('}').unwrap_or(group.len())];
                let items = group.split(',').map(str::trim);
                paths.extend(
                    items
                        .filter(|i| !i.is_empty())
                        .map(|i| (krate, &i[..leading_ident(i)])),
                );
            }
            None => paths.push((krate, &after[..leading_ident(after)])),
        }
    }
    paths
}

#[test]
fn crate_paths_read_plain_and_grouped_names() {
    let text =
        "`ttmqo::sim::json` and\nuse ttmqo::core::{\n    run_campaign,\n    CellRecord,\n};\n\
                `ttmqo::query` but not `my_ttmqo::x::y`";
    assert_eq!(
        crate_paths(text),
        [
            ("sim", "json"),
            ("core", "run_campaign"),
            ("core", "CellRecord"),
            ("query", ""),
        ]
    );
    let lib =
        "//! `pub mod fake;`\npub mod json;\npub use a::{b::Gone as Kept, c};\npub fn gini() {}";
    let names = public_names(lib);
    assert_eq!(
        names.iter().map(String::as_str).collect::<Vec<_>>(),
        ["Kept", "c", "gini", "json"]
    );
}

/// Every `ttmqo::<crate>::<name>` the documents name, in prose or in code,
/// is a crate the umbrella re-exports and a public module, item or
/// re-export of that crate's root (`crates/<crate>/src/lib.rs`).
#[test]
fn every_crate_path_the_documents_name_exists() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let umbrella = fs::read_to_string(repo.join("src/lib.rs")).unwrap();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(repo.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (krate, name) in crate_paths(&text) {
            checked += 1;
            let lib = fs::read_to_string(repo.join("crates").join(krate).join("src/lib.rs"));
            let exported = umbrella.contains(&format!("pub use ttmqo_{krate} as {krate};"))
                && lib.is_ok_and(|lib| name.is_empty() || public_names(&lib).contains(name));
            if !exported {
                missing.push(format!("{doc}: `ttmqo::{krate}::{name}`"));
            }
        }
    }
    // README's examples alone name a dozen; finding few means the scan broke.
    assert!(checked >= 10, "only {checked} crate paths found");
    assert!(
        missing.is_empty(),
        "documents name crate paths that do not exist:\n{}",
        missing.join("\n")
    );
}

/// A bench section of EXPERIMENTS.md quotes the file its numbers come
/// from: every `## ` heading that names a `--bench` target also names a
/// `bench/results/` file (which the test above requires to exist).
#[test]
fn every_bench_heading_names_its_results_file() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(repo.join("EXPERIMENTS.md")).unwrap();
    let headings: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("## ") && l.contains("--bench "))
        .collect();
    // Six figure sections, the faults, the hotspots and the observatory at
    // least; finding fewer means the scan broke.
    assert!(
        headings.len() >= 9,
        "only {} bench headings",
        headings.len()
    );
    let bare: Vec<&&str> = headings
        .iter()
        .filter(|h| {
            !code_spans(h)
                .iter()
                .any(|s| s.starts_with("bench/results/"))
        })
        .collect();
    assert!(
        bare.is_empty(),
        "headings name a bench but no bench/results/ file:\n{bare:#?}"
    );
}

/// Every ledger under `bench/history/` is a row of EXPERIMENTS.md's
/// trajectory table, so a measurement kept as data is also findable.
#[test]
fn every_history_ledger_is_named_in_experiments() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(repo.join("EXPERIMENTS.md")).unwrap();
    let mut ledgers: Vec<String> = fs::read_dir(repo.join("bench/history"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    ledgers.sort();
    assert!(ledgers.len() >= 10, "only {} ledgers", ledgers.len());
    let unnamed: Vec<&String> = ledgers
        .iter()
        .filter(|name| !text.contains(&format!("`bench/history/{name}`")))
        .collect();
    assert!(
        unnamed.is_empty(),
        "EXPERIMENTS.md names no `bench/history/` path for:\n{unnamed:#?}"
    );
}

/// The section numbers of `DESIGN.md §N` references in `text`: the number
/// after the `§`, and after each `, §` or ` and §` that follows it. `None`
/// stands for a `§` followed by something other than a number.
fn design_sections(text: &str) -> Vec<Option<u32>> {
    let mut sections = Vec::new();
    for (at, prefix) in text.match_indices("DESIGN.md §") {
        let mut rest = &text[at + prefix.len()..];
        loop {
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            sections.push(rest[..digits].parse().ok());
            rest = &rest[digits..];
            let next = [", §", " and §"]
                .iter()
                .find_map(|sep| rest.strip_prefix(sep));
            match next {
                Some(next) if digits > 0 => rest = next,
                _ => break,
            }
        }
    }
    sections
}

/// Every file under `dir` whose extension is `rs` or `md`.
fn text_files(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            text_files(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
            files.push(path);
        }
    }
}

#[test]
fn design_sections_read_lists_and_flag_names() {
    assert_eq!(
        design_sections("(DESIGN.md §11, §16) and DESIGN.md §9 and §3; DESIGN.md §\"X\""),
        [Some(11), Some(16), Some(9), Some(3), None]
    );
}

/// A `DESIGN.md §N` in the code, the tests, README.md or EXPERIMENTS.md
/// names a `## N.` heading of DESIGN.md, so renumbering the sections takes
/// the references with it.
#[test]
fn every_design_section_reference_resolves() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(repo.join("DESIGN.md")).unwrap();
    let headings: BTreeSet<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once(". ").and_then(|(n, _)| n.parse().ok()))
        .collect();
    let mut files = vec![repo.join("README.md"), repo.join("EXPERIMENTS.md")];
    text_files(&repo.join("crates"), &mut files);
    text_files(&repo.join("tests"), &mut files);
    let mut checked = 0;
    let mut dangling = Vec::new();
    // This file's own examples of the pattern are not references.
    files.retain(|f| !f.ends_with(file!()));
    for file in files {
        let text = fs::read_to_string(&file).unwrap();
        for section in design_sections(&text) {
            checked += 1;
            if !section.is_some_and(|n| headings.contains(&n)) {
                let shown = section.map_or("a name".to_string(), |n| n.to_string());
                dangling.push(format!("{}: §{shown}", file.display()));
            }
        }
    }
    // The code alone cites five sections; finding few means the scan broke.
    assert!(checked >= 5, "only {checked} section references found");
    assert!(
        dangling.is_empty(),
        "references to DESIGN.md sections that have no `## N.` heading:\n{}",
        dangling.join("\n")
    );
}

/// What each document may grow to. A change that needs more room says
/// what it replaces.
const LINE_BUDGETS: [(&str, usize); 3] = [
    ("DESIGN.md", 600),
    ("EXPERIMENTS.md", 600),
    ("README.md", 390),
];

#[test]
fn documents_stay_within_their_line_budgets() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, budget) in LINE_BUDGETS {
        let lines = fs::read_to_string(repo.join(doc)).unwrap().lines().count();
        assert!(lines <= budget, "{doc} has {lines} lines, budget {budget}");
    }
}

/// The most bytes one CHANGES.md entry may take: its `- PR N` line and the
/// indented lines under it, newlines included. `FOUND:` and `MENDED:` lines
/// stand apart and are not counted. Measurement detail belongs in the
/// commit message and `bench/history/`.
const CHANGES_ENTRY_BUDGET: usize = 2_500;

#[test]
fn every_changes_entry_stays_within_its_byte_budget() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(repo.join("CHANGES.md")).unwrap();
    // (first line, bytes) per entry; `open` while lines still extend it.
    let mut entries: Vec<(usize, usize)> = Vec::new();
    let mut open = false;
    for (n, line) in text.lines().enumerate() {
        if line.starts_with("- PR ") {
            entries.push((n + 1, 0));
            open = true;
        } else if !line.starts_with(' ') {
            open = false;
        }
        if let Some(entry) = entries.last_mut().filter(|_| open) {
            entry.1 += line.len() + 1;
        }
    }
    // The log has one entry per PR; finding few means the scan broke.
    assert!(entries.len() >= 45, "only {} entries found", entries.len());
    let over: Vec<String> = entries
        .iter()
        .filter(|(_, bytes)| *bytes > CHANGES_ENTRY_BUDGET)
        .map(|(line, bytes)| format!("CHANGES.md:{line}: {bytes} B"))
        .collect();
    assert!(
        over.is_empty(),
        "entries over {CHANGES_ENTRY_BUDGET} B:\n{}",
        over.join("\n")
    );
}

/// The documents that describe the code as it stands.
const DESCRIBING: [&str; 2] = ["README.md", "DESIGN.md"];

/// Where the code whose members the documents name lives.
const CODE: [&str; 3] = ["crates", "src", "examples"];

/// Mechanisms the documents describe as deleted: they may be named, and must
/// not exist.
const GONE: [&str; 30] = [
    "CampaignReport::rollup",
    "CampaignSpec::warm_start",
    "CorrelatedField::with_strengths",
    "Ctx::forward",
    "Ctx::rand_f64",
    "DagState::presumed_dead_count",
    "EngineStats::csma_sorts_saved",
    "EngineStats::frame_slab_len",
    "Ledger::open",
    "LevelStats::avg_depth",
    "MetricsSnapshot::tx_bytes_total",
    "Obj::fixed",
    "Observe::profile",
    "Observe::timeseries",
    "OptimizerOptions::rank_by_rate",
    "Probe::trace_event",
    "Query::region",
    // Split so that a search of the code for the deleted names finds none.
    concat!("Query::with", "_region"),
    concat!("QueryBuilder::in", "_region"),
    "QueryCompleteness::missing_epochs",
    "RepairMonitor::audits",
    "RunSession::now",
    "RunSession::replace_fault_plan",
    "RunnerState::answers",
    "SelectivityEstimator::observation_count",
    "Simulator::replace_fault_plan",
    "Srt::forwards",
    "Topology::nodes_within",
    "TtmqoConfig::dead_parent_after",
    "TtmqoConfig::query_recovery",
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
                || line.trim_end().ends_with("{}")
            {
                continue; // a unit, tuple or empty struct, or a one-line item
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

/// A numbered ROADMAP entry moves whenever the roadmap is rewritten, so the
/// documents that describe the code and the code itself name the pinned
/// test or the EXPERIMENTS.md deviation instead. ROADMAP.md and CHANGES.md
/// may cite their own numbers; `benchmark/` and `vendor/` are not ours to
/// edit here.
#[test]
fn no_document_or_program_file_points_at_a_roadmap_item_by_number() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut code = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        text_files(&repo.join(dir), &mut code);
    }
    let rust = code
        .into_iter()
        .filter(|f| f.extension().is_some_and(|e| e == "rs"));
    let files: Vec<_> = DOCS.iter().map(|doc| repo.join(doc)).chain(rust).collect();
    let needle = concat!("ROADMAP", " item");
    let mut pointers = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap();
        for (n, line) in text.lines().enumerate() {
            if line.contains(needle) {
                pointers.push(format!("{}:{}", file.display(), n + 1));
            }
        }
    }
    // The scan reads the three documents and every Rust file of the crates.
    assert!(files.len() > 50, "only {} files scanned", files.len());
    assert!(
        pointers.is_empty(),
        "name the pinned test or the deviation instead:\n{}",
        pointers.join("\n")
    );
}
