//! Every dependency a manifest declares is named by that package's code, and
//! `vendor/` holds exactly the crates something uses — `grep`-level, in the
//! manner of `benchmark/tests/contract.rs`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Declared but unused, and staying so until a `benchmark`-archetype PR
/// refreshes `benchmark/Cargo.lock`: under `--locked` cargo ignores lock
/// entries for packages that are no longer reachable, but refuses a changed
/// edge between two packages that both remain — and no other PR may edit a
/// file under `benchmark/`. `(package, dependency)`.
const FROZEN_BY_BENCHMARK_LOCK: [(&str, &str); 5] = [
    ("ttmqo-core", "rand"),
    ("ttmqo-sim", "rand"),
    ("ttmqo-stats", "rand"),
    ("ttmqo-tinydb", "rand"),
    ("ttmqo-tinydb", "ttmqo-stats"),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn subdirs(dir: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// The text of every `.rs` file under `dir` (nothing if `dir` is absent).
fn rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push_str(&fs::read_to_string(&path).expect("source files are UTF-8"));
            out.push('\n');
        }
    }
}

/// The package name and the `[dependencies]` / `[dev-dependencies]` keys.
fn package_and_dependencies(manifest: &str) -> (String, Vec<String>) {
    let mut package = None;
    let mut dependencies = Vec::new();
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some((key, value)) = line.split_once('=') {
            // `rand.workspace = true` and `rand = { path = ".." }` alike.
            let key = key.trim().split('.').next().expect("split yields one");
            match section {
                "[package]" if key == "name" => package = Some(value.trim().trim_matches('"')),
                "[dependencies]" | "[dev-dependencies]" => dependencies.push(key.to_string()),
                _ => {}
            }
        }
    }
    (package.expect("a [package] name").to_string(), dependencies)
}

/// Whether `source` names the crate as a path segment: `name::` or `use name`.
fn names_crate(source: &str, dependency: &str) -> bool {
    let ident = dependency.replace('-', "_");
    source.match_indices(&ident).any(|(at, _)| {
        let before = &source[..at];
        let after = &source[at + ident.len()..];
        let word = |c: char| c.is_alphanumeric() || c == '_';
        !before.ends_with(word)
            && !after.starts_with(word)
            && (after.starts_with("::") || before.ends_with("use "))
    })
}

#[test]
fn every_declared_dependency_is_used_and_vendor_holds_nothing_else() {
    let vendor = subdirs(&repo().join("vendor"));
    let vendored: Vec<_> = vendor.iter().filter_map(|dir| dir.file_name()).collect();
    assert_eq!(vendored, ["proptest", "rand"], "crates under vendor/");

    // The root workspace: the umbrella package and `members = ["crates/*", "vendor/*"]`.
    let mut packages = vec![repo().to_path_buf()];
    packages.extend(subdirs(&repo().join("crates")));
    packages.extend(vendor.iter().cloned());

    let mut unused = BTreeSet::new();
    for dir in packages {
        let manifest = fs::read_to_string(dir.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("{}/Cargo.toml: {e}", dir.display()));
        let (package, dependencies) = package_and_dependencies(&manifest);
        let mut source = String::new();
        for code in ["src", "tests", "benches", "examples"] {
            rust_sources(&dir.join(code), &mut source);
        }
        for dependency in dependencies {
            if !names_crate(&source, &dependency) {
                unused.insert((package.clone(), dependency));
            }
        }
    }

    let frozen: BTreeSet<(String, String)> = FROZEN_BY_BENCHMARK_LOCK
        .iter()
        .map(|&(package, dependency)| (package.to_string(), dependency.to_string()))
        .collect();
    assert_eq!(
        unused, frozen,
        "left: dependencies declared but never named by their package's code; \
         right: the edges benchmark/Cargo.lock freezes (delete a listed edge \
         from the list once it is gone or used)"
    );
}
