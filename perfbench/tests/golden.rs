//! Golden tie-in: the gmean over the 38 apps of each app's cWSP/Baseline
//! cycle ratio, taken from the `sim-cwsp` and `sim-baseline` items, must
//! reproduce the `All gmean` row of the committed `results/fig13_overhead.txt`
//! (read, never written). The paper reports 1.06.

use cwsp_perfbench::sim::SimBench;
use cwsp_perfbench::trace::Tracer;
use cwsp_perfbench::Workload;

/// One pass of a `sim-*` workload: simulated cycles per program, in figure
/// order.
fn cycles(cwsp: bool) -> Vec<u64> {
    let mut t = Tracer::new(false);
    let bench = SimBench::setup(cwsp, &mut t).expect("set-up");
    (0..bench.len())
        .map(|i| {
            let item = bench.run(i, &mut t);
            assert_eq!(item.error, None);
            item.exact
        })
        .collect()
}

#[test]
fn sim_workloads_reproduce_the_fig13_gmean() {
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/fig13_overhead.txt"),
    )
    .expect("committed golden");
    let row = golden
        .lines()
        .find(|l| l.trim_start().starts_with("All gmean"))
        .expect("All gmean row");
    let want = row
        .split_whitespace()
        .nth(2)
        .expect("gmean value")
        .to_string();

    let (cwsp, base) = (cycles(true), cycles(false));
    assert_eq!(cwsp.len(), 38);
    let logs: f64 = cwsp
        .iter()
        .zip(&base)
        .map(|(&c, &b)| (c as f64 / b as f64).ln())
        .sum();
    let gmean = (logs / cwsp.len() as f64).exp();
    println!("cWSP/Baseline gmean over 38 apps: {gmean:.3} (golden {want}, paper 1.06)");
    assert_eq!(format!("{gmean:.3}"), want);
}
