//! The golden-file contract shared by the snapshot suites.
//!
//! A pinned artifact is compared byte for byte against its committed
//! file. When behaviour changes on purpose, `ECOHMEM_BLESS=1` rewrites the
//! file instead, and the diff is reviewed like any other code change:
//!
//! ```text
//! ECOHMEM_BLESS=1 cargo test --test <suite>
//! git diff
//! ```

use std::path::PathBuf;

/// Compares `actual` against the file at `rel_path` (relative to the
/// repository root), or rewrites the file when `ECOHMEM_BLESS=1`. A
/// mismatch panics with a line diff, not two blobs.
pub fn assert_matches_golden(rel_path: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel_path);
    if std::env::var("ECOHMEM_BLESS").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); generate it with ECOHMEM_BLESS=1", path.display())
    });
    if expected == actual {
        return;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut diff = String::new();
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let (e, a) = (exp.get(i).copied(), act.get(i).copied());
        if e == a {
            continue;
        }
        diff.push_str(&format!("@@ line {}\n", i + 1));
        if let Some(e) = e {
            diff.push_str(&format!("- {e}\n"));
        }
        if let Some(a) = a {
            diff.push_str(&format!("+ {a}\n"));
        }
        shown += 1;
        if shown >= 20 {
            diff.push_str("... (further differences elided)\n");
            break;
        }
    }
    panic!(
        "{rel_path} drifted from its golden ({} expected lines, {} actual); \
         re-bless with ECOHMEM_BLESS=1 if intentional:\n{diff}",
        exp.len(),
        act.len(),
    );
}
