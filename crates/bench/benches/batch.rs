//! Benches the pipeline's batch path: the 21-app sweep through
//! `run_batch` (rayon fan-out) against the serial reference. On a
//! multi-core host the parallel path should win by roughly the worker
//! count; on a single-core host the two are equivalent.

use criterion::{criterion_group, criterion_main, Criterion};
use gpa_pipeline::Session;

fn warmed(session: Session) -> Session {
    // Warm the artifact cache so every path measures run time, not
    // module building.
    let jobs = session.jobs_for_all_apps();
    for job in &jobs {
        session.artifacts(job).expect("registry app builds");
    }
    session
}

fn bench_batch_paths(c: &mut Criterion) {
    let session = warmed(Session::test());
    let jobs = session.jobs_for_all_apps();
    println!("pipeline batch: {} jobs, {} workers", jobs.len(), session.workers());
    c.bench_function("pipeline/serial_21_apps", |b| b.iter(|| session.run_batch_serial(&jobs)));
    c.bench_function("pipeline/parallel_21_apps", |b| b.iter(|| session.run_batch(&jobs)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batch_paths
}
criterion_main!(benches);
