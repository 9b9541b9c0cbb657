//! perfgate — replay the pinned corpus through every design and gate
//! throughput regressions against the previously committed report.
//!
//! Each design × workload cell records, beyond the original `scalar` /
//! `batched` / `ws-batched` triple: the work-stealing scaling curve
//! `ws-batched@{2,4,8}`, the end-to-end decode+translate pair
//! `seq-batched` (buffer the whole corpus, then one `translate_batch`)
//! vs `stream-batched` (block-streamed pipeline, constant memory), and
//! the streaming work-stealing curve `stream-ws@{2,4,8}`.
//!
//! ```text
//! perfgate gen-corpus [--dir DIR]
//! perfgate measure --out FILE [--corpus DIR]
//!                  [--reps N] [--warmup N] [--quick]
//! perfgate gate --prev FILE --curr FILE [--tolerance FRAC]
//! perfgate self-test
//! ```
//!
//! A report written to `BENCH_<n>.json` records `n` as its PR number;
//! any other file name records 0.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use mixtlb_perf::{
    config_fingerprint, corpus_catalog, corpus_path, default_corpus_dir, file_fingerprint, gate,
    gate_aggregate, load_events, path_at_cores, prepare_scenario, replay_batched,
    replay_decode_then_batched, replay_scalar, replay_stream_batched, replay_stream_ws, replay_ws,
    time_reps, write_corpus_file, BenchRecord, BenchReport, CorpusFileInfo, CorpusWorkload,
    PATH_BATCHED, PATH_SCALAR, PATH_SEQ_BATCHED, PATH_STREAM_BATCHED, PATH_STREAM_WS,
    PATH_WS_BATCHED,
};
use mixtlb_sim::designs::all_cpu_designs;
use mixtlb_smp::StreamConfig;

/// Worker threads of the legacy `ws-batched` point. Pinned (not
/// host-derived) so the recorded triple means the same thing on every
/// runner; chunk size matches the bench binary's corpus replay.
const WS_CORES: usize = 4;
/// Events per stealable chunk of the ws-batched measurement.
const WS_CHUNK_EVENTS: usize = 1024;
/// Core counts of the committed scaling curves (`ws-batched@N`,
/// `stream-ws@N`).
const SCALING_CORES: [usize; 3] = [2, 4, 8];
/// Streaming shape of the `stream-batched` point: the synchronous
/// single-thread pipeline. On the pinned 1-CPU runner decode threads
/// only add hand-off and scheduling cost; the streaming win there is the
/// cache-resident per-block working set, which the synchronous shape
/// keeps while staying as deterministic as the batched loop.
fn stream_cfg() -> StreamConfig {
    StreamConfig::synchronous()
}
/// Streaming shape of the `stream-ws@N` points: `decoders` decode
/// threads over an 8-buffer pool. The default (1) is the committed
/// baseline shape — the corpus decodes faster than it translates, so
/// one decoder saturates the workers — but `measure --stream-decoders N`
/// overrides it for decode-bound experiments. The `stream-batched`
/// point always keeps the synchronous shape for comparability.
fn stream_ws_cfg(decoders: usize) -> StreamConfig {
    StreamConfig::threaded(decoders.max(1), 8)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfgate <gen-corpus [--dir DIR]\n\
         \x20               | measure --out FILE [--corpus DIR] [--reps N] [--warmup N]\n\
         \x20                         [--stream-decoders N] [--quick]\n\
         \x20               | gate --prev FILE --curr FILE [--tolerance FRAC] [--aggregate]\n\
         \x20               | self-test>"
    );
    ExitCode::from(2)
}

/// Pulls the value following `flag` out of `args`, if present.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The PR number a report written to `out` records: `n` for a file named
/// `BENCH_<n>.json` (in any directory), 0 for any other name.
fn pr_of_out(out: &str) -> u32 {
    std::path::Path::new(out)
        .file_name()
        .and_then(|name| name.to_str())
        .and_then(|name| name.strip_prefix("BENCH_"))
        .and_then(|name| name.strip_suffix(".json"))
        .filter(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen-corpus") => gen_corpus(&args[1..]),
        Some("measure") => measure(&args[1..]),
        Some("gate") => gate_cmd(&args[1..]),
        Some("self-test") => self_test(),
        _ => usage(),
    }
}

fn gen_corpus(args: &[String]) -> ExitCode {
    let dir = flag_value(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(default_corpus_dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfgate: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!("regenerating pinned corpus into {}", dir.display());
    println!("config: {}", config_fingerprint());
    for w in corpus_catalog() {
        match write_corpus_file(&dir, &w) {
            Ok(n) => {
                let path = corpus_path(&dir, w.name);
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                let fp = file_fingerprint(&path).unwrap_or_else(|_| "?".into());
                println!("  {:<14} {n:>7} events {bytes:>8} bytes fnv1a={fp}", w.name);
            }
            Err(e) => {
                eprintln!("perfgate: generating {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The workload subset and rep counts a measurement sweep uses.
struct MeasurePlan {
    workloads: Vec<CorpusWorkload>,
    warmup: usize,
    reps: usize,
    /// Decode threads of the `stream-ws@N` points (see [`stream_ws_cfg`]).
    stream_decoders: usize,
}

fn measure_plan(args: &[String]) -> MeasurePlan {
    let quick = has_flag(args, "--quick");
    let workloads: Vec<CorpusWorkload> = corpus_catalog()
        .into_iter()
        .filter(|w| !quick || w.name == "streamcluster" || w.name == "gups")
        .collect();
    let parse = |flag: &str, default: usize| {
        flag_value(args, flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    MeasurePlan {
        workloads,
        warmup: parse("--warmup", if quick { 1 } else { 2 }),
        reps: parse("--reps", if quick { 3 } else { 5 }),
        stream_decoders: parse("--stream-decoders", 1).max(1),
    }
}

fn measure(args: &[String]) -> ExitCode {
    let dir = flag_value(args, "--corpus")
        .map(PathBuf::from)
        .unwrap_or_else(default_corpus_dir);
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("perfgate: measure needs --out FILE");
        return usage();
    };
    let pr = pr_of_out(&out);
    let plan = measure_plan(args);

    let mut report = BenchReport {
        pr,
        config: config_fingerprint(),
        corpus: Vec::new(),
        records: Vec::new(),
    };

    let mut best_speedup: Option<(f64, String, String)> = None;
    for w in &plan.workloads {
        let path = corpus_path(&dir, w.name);
        let events = match load_events(&path) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!(
                    "perfgate: cannot load {} (run `perfgate gen-corpus` first?): {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let fp = match file_fingerprint(&path) {
            Ok(fp) => fp,
            Err(e) => {
                eprintln!("perfgate: fingerprinting {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        report.corpus.push(CorpusFileInfo {
            workload: w.name.to_owned(),
            fingerprint: fp,
            events: events.len() as u64,
        });
        let Some(scenario) = prepare_scenario(w.name) else {
            eprintln!("perfgate: {} is not in the workload catalog", w.name);
            return ExitCode::FAILURE;
        };
        println!("{} ({} events):", w.name, events.len());
        for (design, factory) in all_cpu_designs() {
            let run_path = |path_name: &str| -> Option<BenchRecord> {
                let timing = time_reps(plan.warmup, plan.reps, || {
                    let mut pt = scenario.clone_page_table();
                    if path_name == PATH_SCALAR {
                        replay_scalar(factory(), &mut pt, &events)
                    } else {
                        replay_batched(factory(), &mut pt, &events)
                    }
                })?;
                Some(BenchRecord::new(
                    design,
                    w.name,
                    path_name,
                    events.len() as u64,
                    timing,
                ))
            };
            let Some(scalar) = run_path(PATH_SCALAR) else {
                eprintln!("perfgate: zero reps requested");
                return ExitCode::FAILURE;
            };
            let Some(batched) = run_path(PATH_BATCHED) else {
                eprintln!("perfgate: zero reps requested");
                return ExitCode::FAILURE;
            };
            // The multi-core scaling curve: the same trace chunked over
            // work-stealing workers at each pinned core count, each worker
            // on its own engine's batched path. The 4-core point is also
            // recorded under the legacy bare name so it stays comparable
            // to reports that predate the curve.
            let ws_pt = scenario.clone_page_table();
            let mut ws_medians = Vec::new();
            for cores in SCALING_CORES {
                let Some(t) = time_reps(plan.warmup, plan.reps, || {
                    replay_ws(factory, &ws_pt, &events, cores, WS_CHUNK_EVENTS)
                }) else {
                    eprintln!("perfgate: zero reps requested");
                    return ExitCode::FAILURE;
                };
                ws_medians.push(t.median_ns);
                let accesses = events.len() as u64;
                report.records.push(BenchRecord::new(
                    design,
                    w.name,
                    &path_at_cores(PATH_WS_BATCHED, cores),
                    accesses,
                    t,
                ));
                if cores == WS_CORES {
                    report.records.push(BenchRecord::new(
                        design,
                        w.name,
                        PATH_WS_BATCHED,
                        accesses,
                        t,
                    ));
                }
            }
            // End-to-end decode+translate: the sequential buffer-the-whole-
            // corpus baseline vs the streaming pipeline, then the streaming
            // work-stealing scaling curve.
            let bail = |e: &std::io::Error| -> ExitCode {
                eprintln!("perfgate: streaming replay of {}: {e}", path.display());
                ExitCode::FAILURE
            };
            let mut stream_err: Option<std::io::Error> = None;
            let seq_timing = time_reps(plan.warmup, plan.reps, || {
                let mut pt = scenario.clone_page_table();
                replay_decode_then_batched(factory(), &mut pt, &path).unwrap_or_else(|e| {
                    stream_err = Some(e);
                    f64::NAN
                })
            });
            if let Some(e) = &stream_err {
                return bail(e);
            }
            let stream_timing = time_reps(plan.warmup, plan.reps, || {
                let mut pt = scenario.clone_page_table();
                replay_stream_batched(factory(), &mut pt, &path, &stream_cfg()).unwrap_or_else(
                    |e| {
                        stream_err = Some(e);
                        f64::NAN
                    },
                )
            });
            if let Some(e) = &stream_err {
                return bail(e);
            }
            let (Some(seq_t), Some(stream_t)) = (seq_timing, stream_timing) else {
                eprintln!("perfgate: zero reps requested");
                return ExitCode::FAILURE;
            };
            let accesses = events.len() as u64;
            report.records.push(BenchRecord::new(
                design,
                w.name,
                PATH_SEQ_BATCHED,
                accesses,
                seq_t,
            ));
            report.records.push(BenchRecord::new(
                design,
                w.name,
                PATH_STREAM_BATCHED,
                accesses,
                stream_t,
            ));
            let mut sws_medians = Vec::new();
            for cores in SCALING_CORES {
                let t = time_reps(plan.warmup, plan.reps, || {
                    replay_stream_ws(factory, &ws_pt, &path, cores, &stream_ws_cfg(plan.stream_decoders))
                        .unwrap_or_else(|e| {
                            stream_err = Some(e);
                            f64::NAN
                        })
                });
                if let Some(e) = &stream_err {
                    return bail(e);
                }
                let Some(t) = t else {
                    eprintln!("perfgate: zero reps requested");
                    return ExitCode::FAILURE;
                };
                sws_medians.push(t.median_ns);
                report.records.push(BenchRecord::new(
                    design,
                    w.name,
                    &path_at_cores(PATH_STREAM_WS, cores),
                    accesses,
                    t,
                ));
            }
            let speedup = scalar.median_ns / batched.median_ns.max(1e-9);
            let overlap = seq_t.median_ns / stream_t.median_ns.max(1e-9);
            println!(
                "  {design:<12} scalar {:>8.2}  batched {:>8.2} ({speedup:.1}x)  \
                 ws@2/4/8 {:>6.2}/{:>6.2}/{:>6.2}",
                scalar.median_ns, batched.median_ns, ws_medians[0], ws_medians[1], ws_medians[2]
            );
            println!(
                "  {:<12} seq {:>8.2}  stream {:>8.2} ({overlap:.2}x)  \
                 stream-ws@2/4/8 {:>6.2}/{:>6.2}/{:>6.2}",
                "", seq_t.median_ns, stream_t.median_ns, sws_medians[0], sws_medians[1],
                sws_medians[2]
            );
            if best_speedup.as_ref().is_none_or(|(s, _, _)| speedup > *s) {
                best_speedup = Some((speedup, design.to_owned(), w.name.to_owned()));
            }
            report.records.push(scalar);
            report.records.push(batched);
        }
    }

    if let Some((s, design, wl)) = &best_speedup {
        println!("best batched/scalar speedup: {s:.1}x ({design} on {wl})");
    }
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("perfgate: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out} ({} records)", report.records.len());
    ExitCode::SUCCESS
}

fn load_report(path: &str) -> Option<BenchReport> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfgate: reading {path}: {e}");
            return None;
        }
    };
    let parsed = BenchReport::parse_json(&text);
    if parsed.is_none() {
        eprintln!("perfgate: {path} contains no benchmark records");
    }
    parsed
}

fn gate_cmd(args: &[String]) -> ExitCode {
    let (Some(prev_path), Some(curr_path)) =
        (flag_value(args, "--prev"), flag_value(args, "--curr"))
    else {
        return usage();
    };
    let tolerance: f64 = flag_value(args, "--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let (Some(prev), Some(curr)) = (load_report(&prev_path), load_report(&curr_path)) else {
        return ExitCode::FAILURE;
    };
    // --aggregate gates per-path geomeans instead of individual triples:
    // robust to the per-process layout noise of shared runners, still
    // trips when a whole path (a lost optimization, a broken probe loop)
    // regresses. CI uses this mode.
    let aggregate = has_flag(args, "--aggregate");
    let outcome = if aggregate {
        gate_aggregate(&prev, &curr, tolerance)
    } else {
        gate(&prev, &curr, tolerance)
    };
    println!(
        "gate: {} triples compared against {} (tolerance {:.0}%{})",
        outcome.compared,
        prev_path,
        tolerance * 100.0,
        if aggregate { ", per-path geomean" } else { "" }
    );
    if outcome.passed() {
        println!("gate: PASS");
        ExitCode::SUCCESS
    } else {
        if outcome.compared == 0 {
            eprintln!("gate: FAIL — no comparable triples between the two reports");
        }
        for f in &outcome.failures {
            eprintln!("gate: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}

/// Exercises the gate logic on synthetic reports — no measurement, so it
/// is deterministic and fast enough for every CI run: a report gated
/// against itself must pass, and a single design's 20% batched
/// degradation must trip the 10% gate.
fn self_test() -> ExitCode {
    let mk = |mix_batched_ns: f64| {
        let mut report = BenchReport {
            pr: 0,
            config: config_fingerprint(),
            corpus: Vec::new(),
            records: Vec::new(),
        };
        for wl in ["streamcluster", "gups"] {
            report
                .records
                .push(synthetic_record("split", wl, PATH_SCALAR, 100.0));
            report
                .records
                .push(synthetic_record("split", wl, PATH_BATCHED, 12.0));
            report
                .records
                .push(synthetic_record("mix", wl, PATH_SCALAR, 110.0));
            report
                .records
                .push(synthetic_record("mix", wl, PATH_BATCHED, mix_batched_ns));
        }
        report
    };

    let baseline = mk(10.0);

    let roundtrip = BenchReport::parse_json(&baseline.to_json());
    if roundtrip.as_ref() != Some(&baseline) {
        eprintln!("self-test: FAIL — JSON round-trip altered the report");
        return ExitCode::FAILURE;
    }

    let same = gate(&baseline, &baseline, 0.10);
    if !same.passed() {
        eprintln!(
            "self-test: FAIL — identical reports did not pass: {:?}",
            same.failures
        );
        return ExitCode::FAILURE;
    }

    // Degrade only mix/batched by 20% (10 ns -> 12.5 ns); must trip.
    let degraded = mk(12.5);
    let tripped = gate(&baseline, &degraded, 0.10);
    if tripped.passed() || tripped.failures.len() != 2 {
        eprintln!(
            "self-test: FAIL — 20% single-design regression not caught ({:?})",
            tripped.failures
        );
        return ExitCode::FAILURE;
    }

    // A uniformly 2x slower machine must NOT trip the normalized gate.
    let mut slower = baseline.clone();
    for r in &mut slower.records {
        r.median_ns *= 2.0;
        r.min_ns *= 2.0;
    }
    let scaled = gate(&baseline, &slower, 0.10);
    if !scaled.passed() {
        eprintln!(
            "self-test: FAIL — uniform machine slowdown tripped the gate: {:?}",
            scaled.failures
        );
        return ExitCode::FAILURE;
    }

    // The aggregate gate must absorb offsetting per-triple swings (layout
    // luck) yet trip when one whole path degrades across the board.
    let mut swung = baseline.clone();
    swung.records[1].median_ns *= 2.0; // split/streamcluster/batched slower
    swung.records[7].median_ns /= 2.0; // mix/gups/batched faster
    if !gate_aggregate(&baseline, &swung, 0.10).passed() {
        eprintln!("self-test: FAIL — offsetting swings tripped the aggregate gate");
        return ExitCode::FAILURE;
    }
    let mut path_broken = baseline.clone();
    for r in &mut path_broken.records {
        if r.path == PATH_BATCHED {
            r.median_ns *= 2.0;
        }
    }
    let agg = gate_aggregate(&baseline, &path_broken, 0.40);
    if agg.passed() || agg.failures.len() != 1 {
        eprintln!(
            "self-test: FAIL — whole-path regression not caught by the aggregate gate ({:?})",
            agg.failures
        );
        return ExitCode::FAILURE;
    }

    println!(
        "self-test: PASS (round-trip, self-gate, {}-triple regression catch, machine-speed \
         invariance, aggregate swing absorption + path-regression catch)",
        tripped.failures.len()
    );
    ExitCode::SUCCESS
}

fn synthetic_record(design: &str, workload: &str, path: &str, median_ns: f64) -> BenchRecord {
    BenchRecord {
        design: design.to_owned(),
        workload: workload.to_owned(),
        path: path.to_owned(),
        accesses: 150_000,
        median_ns,
        // A dyadic offset (exact in binary and at the 3 decimals the JSON
        // keeps), so the synthetic report survives a round-trip bit-exactly.
        min_ns: median_ns - 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::pr_of_out;

    #[test]
    fn the_pr_number_comes_from_the_out_name() {
        assert_eq!(pr_of_out("BENCH_13.json"), 13);
        assert_eq!(pr_of_out("some/dir/BENCH_7.json"), 7);
        let others = ["target/BENCH_ci.json", "BENCH_.json", "BENCH_+7.json", "BENCH_7.txt"];
        for other in others {
            assert_eq!(pr_of_out(other), 0, "{other}");
        }
    }
}
