//! Workloads are a function of the seed, and at seed 42 the streamed
//! files are the committed corpus.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use tlbbench::workloads::{self, Prepared, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn digests(workload: Workload, seed: u64, dir: &std::path::Path) -> Vec<(u64, u64)> {
    let (prepared, _) = workloads::prepare(workload, seed, dir).unwrap();
    match prepared {
        Prepared::Traces(traces) => traces
            .iter()
            .map(|t| (t.event_digest, t.reference_digest))
            .collect(),
        Prepared::Smp(_) => unreachable!("{workload:?} replays traces"),
    }
}

#[test]
fn stream_ingest_at_seed_42_regenerates_the_corpus() {
    let dir = scratch("seed42");
    let (prepared, _) = workloads::prepare(Workload::StreamIngest, 42, &dir).unwrap();
    let Prepared::Traces(traces) = prepared else {
        unreachable!("stream-ingest replays traces")
    };
    assert!(
        workloads::corpus_traces(&traces).count() > 0,
        "stream-ingest streams a corpus trace"
    );
    assert_eq!(workloads::corpus_mismatches(&traces), Vec::<String>::new());
}

#[test]
fn the_seed_alone_determines_the_inputs() {
    let dir = scratch("determinism");
    let a = digests(Workload::FragWalk, 7, &dir);
    assert_eq!(a, digests(Workload::FragWalk, 7, &dir));
    let b = digests(Workload::FragWalk, 8, &dir);
    assert!(
        a.iter().zip(&b).all(|(x, y)| x.0 != y.0),
        "another seed gives other events"
    );
}
