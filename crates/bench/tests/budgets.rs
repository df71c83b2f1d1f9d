//! Size budgets: one ceiling per size number of the workspace, each equal
//! to the number the tree measures.
//!
//! The rule: a change that lowers a number lowers its ceiling in the same
//! diff; a change that raises one raises its ceiling only with a line in
//! CHANGES that says which ceiling, by how much and why. The test fails
//! both ways and prints the measured number, so a budget never drifts from
//! the tree.
//!
//! What is counted, in `crates/` found from this crate's manifest
//! directory (`.rs` files only, comments included, this file excepted):
//! - thread-locals: occurrences of the `thread_local` macro in `crates/`;
//! - `as_any` sites: occurrences of `as_any` in `crates/`;
//! - non-test lines, per crate: lines of each file of `crates/<crate>/src`
//!   before its first line that contains `#[cfg(test)]`, so test-only
//!   items go at the end of their file;
//! - `pub` items: lines of `crates/*/src` that, after their indentation,
//!   start with `pub ` and then `fn`, `struct`, `enum`, `trait`, `type`,
//!   `const`, `static`, `mod`, `use` or `union` (`pub(crate)` and fields
//!   are not counted);
//! - `unwrap`/`expect` calls, per library crate: lines of
//!   `crates/<crate>/src`, tests included, that contain `.unwrap(` or
//!   `.expect(`;
//! - the lines of `ARCHITECTURE.md`.
//!
//! One more number has a ceiling and no floor: the bytes of the newest
//! entry of `CHANGES.md` (its last line that starts with `- PR `, newline
//! included), which may not pass the largest entry the rule was set at.

use std::fs;
use std::path::{Path, PathBuf};

const THREAD_LOCALS: usize = 3;
const ARCHITECTURE_LINES: usize = 1776;
const NEWEST_CHANGES_ENTRY_BYTES: usize = 5152;
const AS_ANY_SITES: usize = 204;
const PUB_ITEMS: usize = 981;
const NON_TEST_LINES: [(&str, usize); 7] = [
    ("bench", 5494),
    ("core", 1406),
    ("mptcp", 5386),
    ("netlink", 1214),
    ("pm", 1087),
    ("sim", 6031),
    ("tcp", 1980),
];
const UNWRAP_EXPECT: [(&str, usize); 6] = [
    ("core", 6),
    ("mptcp", 101),
    ("netlink", 33),
    ("pm", 15),
    ("sim", 107),
    ("tcp", 40),
];

/// Every `.rs` file under `dir` but this one, in a stable order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("a readable source directory") {
            let path = entry.expect("a readable directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The lines of every `.rs` file under `dir`, one list per file.
fn sources(dir: &Path) -> Vec<Vec<String>> {
    let read = |f: &PathBuf| fs::read_to_string(f).expect("a readable source file");
    let lines = |text: String| text.lines().map(str::to_owned).collect();
    rust_files(dir).iter().map(read).map(lines).collect()
}

fn is_pub_item(line: &str) -> bool {
    const KINDS: [&str; 10] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "union",
    ];
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    let word = rest
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .next();
    word.is_some_and(|w| KINDS.contains(&w))
}

#[test]
fn size_numbers_stay_at_their_budgets() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the bench crate sits in crates/")
        .to_path_buf();
    let doc = |name: &str| {
        let root = crates.parent().expect("crates/ sits in the repository");
        fs::read_to_string(root.join(name)).expect("a readable document")
    };
    let src = |name: &str| sources(&crates.join(name).join("src"));
    let all = sources(&crates);
    let occurrences = |needle: &str| -> usize {
        let lines = all.iter().flatten();
        lines.map(|l| l.matches(needle).count()).sum()
    };

    let mut measured: Vec<(String, usize, usize)> = vec![
        (
            "thread-locals".into(),
            occurrences(concat!("thread", "_local!")),
            THREAD_LOCALS,
        ),
        (
            "as_any sites".into(),
            occurrences(concat!("as", "_any")),
            AS_ANY_SITES,
        ),
    ];
    let pub_items = NON_TEST_LINES.iter().map(|(name, _)| {
        let lines = src(name).into_iter().flatten();
        lines.filter(|l| is_pub_item(l)).count()
    });
    measured.push(("pub items".into(), pub_items.sum(), PUB_ITEMS));
    for (name, ceiling) in NON_TEST_LINES {
        let files = src(name).into_iter();
        let before_tests =
            files.map(|f| f.iter().take_while(|l| !l.contains("#[cfg(test)]")).count());
        measured.push((
            format!("non-test lines of {name}"),
            before_tests.sum(),
            ceiling,
        ));
    }
    for (name, ceiling) in UNWRAP_EXPECT {
        let lines = src(name).into_iter().flatten();
        let calls = lines.filter(|l| l.contains(".unwrap(") || l.contains(".expect("));
        measured.push((
            format!("unwrap/expect lines of {name}"),
            calls.count(),
            ceiling,
        ));
    }

    let architecture = doc("ARCHITECTURE.md").lines().count();
    measured.push((
        "ARCHITECTURE.md lines".into(),
        architecture,
        ARCHITECTURE_LINES,
    ));

    let mut off: Vec<String> = measured
        .iter()
        .filter(|(_, got, ceiling)| got != ceiling)
        .map(|(what, got, ceiling)| format!("{what}: measured {got}, budget {ceiling}"))
        .collect();
    let changes = doc("CHANGES.md");
    let newest = changes.lines().rfind(|l| l.starts_with("- PR "));
    let entry = newest.map_or(0, |l| l.len() + 1);
    if entry > NEWEST_CHANGES_ENTRY_BYTES {
        off.push(format!(
            "newest CHANGES entry: measured {entry} bytes, ceiling {NEWEST_CHANGES_ENTRY_BYTES}"
        ));
    }
    assert!(
        off.is_empty(),
        "size numbers off their budgets:\n  {}\nA number that fell: lower its budget to the \
         measured value in the same diff. A number that rose: raise its budget only with a \
         line in CHANGES that says which, by how much and why.",
        off.join("\n  ")
    );
}
