//! The modeled figures come from a virtual-clock replay, so one seed must give the
//! same bits on every run; and the result line must carry exactly the metrics
//! `BENCHMARK.json` declares.

use std::path::PathBuf;

use serve_budget::report::{END_TO_END, PER_LAYER};
use serve_budget::workload::{Fixture, Reference, Served, Workload};
use serve_budget::Modeled;

/// A short trace keeps the test quick; the replay is the same code at any length.
const QUERIES: usize = 256;

fn modeled_once(workload: Workload, seed: u64, tag: usize) -> Modeled {
    let fixture = Fixture::new(workload, seed, QUERIES).expect("valid fixture");
    let reference = Reference::compute(&fixture).expect("reference replay");
    let sockets = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let mut served = Served::build(&fixture, &sockets, tag).expect("engine builds");
    let modeled = Modeled::replay(&mut served.engine, &fixture, &reference).expect("replay");
    served.shutdown().expect("clean shutdown");
    modeled
}

fn bits(modeled: &Modeled) -> [u64; 6] {
    [
        modeled.queries,
        modeled.pj_per_query.to_bits(),
        modeled.cma_read_pj.to_bits(),
        modeled.cma_add_pj.to_bits(),
        modeled.cma_search_pj.to_bits(),
        modeled.rsc_pj.to_bits(),
    ]
}

#[test]
fn modeled_energy_is_bit_identical_across_runs_with_one_seed() {
    for (index, workload) in Workload::ALL.into_iter().enumerate() {
        let first = modeled_once(workload, 7, 10 + 2 * index);
        let second = modeled_once(workload, 7, 11 + 2 * index);
        assert_eq!(first.wrong, 0, "{}: replay answers", workload.name());
        assert!(first.pj_per_query > 0.0, "{}", workload.name());
        assert_eq!(bits(&first), bits(&second), "{}", workload.name());
        assert_eq!(
            first.rsc_pj > 0.0,
            workload.clustered(),
            "{}: the RSC term is charged on the clusters only",
            workload.name()
        );
    }
}

#[test]
fn another_seed_gives_another_trace() {
    let one = modeled_once(Workload::HotFilter, 7, 20);
    let other = modeled_once(Workload::HotFilter, 8, 21);
    assert_ne!(bits(&one), bits(&other));
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let declared: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let expected: Vec<&str> = workloads
        .iter()
        .chain(END_TO_END.iter())
        .chain(PER_LAYER.iter())
        .copied()
        .collect();
    assert_eq!(declared, expected);
}
