//! Workspace-sanity smoke test: workload generation determinism.

use dlrv_trace::{generate_workload, WorkloadConfig};

#[test]
fn generation_is_deterministic() {
    let cfg = WorkloadConfig::paper_default(3, 1234);
    let w1 = generate_workload(&cfg);
    let w2 = generate_workload(&cfg);
    assert_eq!(w1, w2, "same seed must reproduce the same workload");
    assert_ne!(
        w1,
        generate_workload(&WorkloadConfig::paper_default(3, 1235)),
        "different seeds must differ"
    );
}
