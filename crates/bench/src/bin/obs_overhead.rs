//! Microbenchmark for the observability layer's cost model.
//!
//! The `ecohmem-obs` contract is that instrumentation can stay compiled
//! into hot loops because the *disabled* path is a branch on one relaxed
//! atomic load — under 5 ns per call on current hardware. This bin
//! measures that directly (the `criterion` crate is not available in this
//! environment, so the harness is hand-rolled): each probe runs the call
//! in a tight loop, `std::hint::black_box` keeps the optimizer from
//! deleting it, and the median of several repetitions is reported.
//!
//! ```text
//! cargo run --release -p bench --bin obs_overhead
//! ```
//!
//! It takes no arguments; any argument exits with status 2.
//!
//! Output is a table of ns/call for `count`, `incr`, `gauge_raise`,
//! `observe` and `span` in both the disabled and the enabled state. The
//! disabled numbers are the budget quoted in DESIGN.md §11.

use bench::Table;
use std::hint::black_box;
use std::time::Instant;

const CALLS: u64 = 10_000_000;
const REPS: usize = 5;

/// Median ns/call of `f` run `CALLS` times, over `REPS` repetitions.
fn measure(f: impl Fn(u64)) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..CALLS {
                f(black_box(i));
            }
            t0.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

fn probe_all() -> Vec<(&'static str, f64)> {
    vec![
        ("count", measure(|i| ecohmem_obs::count("obs_overhead.counter", i & 1))),
        ("incr", measure(|_| ecohmem_obs::incr("obs_overhead.counter"))),
        ("gauge_raise", measure(|i| ecohmem_obs::gauge_raise("obs_overhead.gauge", i as f64))),
        ("observe", measure(|i| ecohmem_obs::observe("obs_overhead.hist", i & 0xff))),
        ("span", measure(|_| drop(ecohmem_obs::span("obs_overhead.span")))),
    ]
}

fn main() {
    // The probe takes no arguments: refuse any rather than run a
    // measurement the caller did not ask for.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("obs_overhead: unexpected argument `{arg}`");
        eprintln!("usage: obs_overhead");
        std::process::exit(2);
    }

    // Loop calibration overhead: the same loop around a pure black_box.
    let baseline = measure(|i| {
        black_box(i);
    });

    ecohmem_obs::set_enabled(false);
    let disabled = probe_all();
    ecohmem_obs::set_enabled(true);
    let enabled = probe_all();
    ecohmem_obs::reset();

    let mut t = Table::new(&["call", "disabled_ns", "enabled_ns"]);
    for ((name, off), (_, on)) in disabled.iter().zip(&enabled) {
        t.row(vec![(*name).into(), format!("{off:.2}"), format!("{on:.2}")]);
    }
    println!("empty-loop baseline: {baseline:.2} ns/iter ({CALLS} calls, median of {REPS} reps)");
    println!("{}", t.render());

    let worst = disabled.iter().map(|&(_, ns)| ns).fold(0.0, f64::max);
    let budget = 5.0;
    println!(
        "disabled-path worst case: {worst:.2} ns/call (budget {budget:.1} ns) — {}",
        if worst < budget { "PASS" } else { "FAIL" }
    );
    if worst >= budget {
        std::process::exit(1);
    }
}
