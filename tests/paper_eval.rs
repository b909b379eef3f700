//! The paper's evaluation, pinned byte for byte: every experiment of the
//! `bench::repro` registry runs once, in registry order, in this process,
//! and its text must equal `tests/golden/paper_eval.txt` — exactly what
//! `ecohmem-repro` prints with no arguments. Every committed
//! `figures/*.svg` must equal the SVG an experiment draws, and every SVG
//! an experiment draws must be committed, so the figures cannot go stale.
//!
//! Re-bless intentional changes with `ECOHMEM_BLESS=1 cargo test --test
//! paper_eval` and review the diff of `tests/golden/` and `figures/`.

use bench::repro::EXPERIMENTS;
use bench::Runner;

mod support;

#[test]
fn registry_reproduces_the_pinned_evaluation_and_figures() {
    let runner = Runner::with_jobs("paper_eval", memsim::jobs_from_env());
    let mut text = String::new();
    let mut svgs = Vec::new();
    for experiment in EXPERIMENTS {
        let report = (experiment.run)(&runner);
        text += &format!("== {} ==\n{}", experiment.name, report.text);
        svgs.extend(report.svgs);
    }
    support::assert_matches_golden("tests/golden/paper_eval.txt", &text);

    for (file, svg) in &svgs {
        support::assert_matches_golden(&format!("figures/{file}"), svg);
    }
    let figures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("figures");
    let mut committed: Vec<String> = std::fs::read_dir(figures)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".svg"))
        .collect();
    committed.sort();
    let mut drawn: Vec<String> = svgs.iter().map(|(file, _)| file.to_string()).collect();
    drawn.sort();
    assert_eq!(committed, drawn, "every committed figure is drawn by exactly one experiment");
}
