//! Every `DESIGN.md` section the code cites has a heading.
//!
//! Comments, docs and pinned artifact output (`table1`'s stdout) cite
//! the design notes as `DESIGN.md` followed by `§N` or `§N/§M`. This
//! scans `crates/`, `src/`, `examples/` and `tests/fixtures/` for them
//! and checks each `N` against the `## §N` headings.

use std::path::Path;

/// The section numbers a line starts with: `§4/§5 …` gives 4 and 5.
fn sections(line: &str) -> Vec<u32> {
    line.split('/')
        .map_while(|part| {
            let digits = part.strip_prefix('§')?;
            let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
            digits[..end].parse().ok()
        })
        .collect()
}

/// Appends `(file, section)` for every citation under `dir`.
fn collect_citations(dir: &Path, cited: &mut Vec<(String, u32)>) {
    for path in std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()) {
        if path.is_dir() {
            collect_citations(&path, cited);
        } else if let Ok(text) = std::fs::read_to_string(&path) {
            for (at, name) in text.match_indices("DESIGN.md") {
                let rest = text[at + name.len()..].trim_start_matches('`').trim_start();
                let line = rest.lines().next().unwrap_or_default();
                cited.extend(sections(line).into_iter().map(|n| (path.display().to_string(), n)));
            }
        }
    }
}

#[test]
fn every_cited_design_section_has_a_heading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md"))
        .expect("DESIGN.md exists at the repository root");
    let headings: Vec<u32> =
        design.lines().filter_map(|line| line.strip_prefix("## ")).flat_map(sections).collect();
    let mut cited = Vec::new();
    for dir in ["crates", "src", "examples", "tests/fixtures"] {
        collect_citations(&root.join(dir), &mut cited);
    }
    assert!(!cited.is_empty(), "no DESIGN.md citation found: the scan looks in the wrong place");
    for (file, section) in cited {
        assert!(headings.contains(&section), "{file} cites DESIGN.md §{section}: no such heading");
    }
}
