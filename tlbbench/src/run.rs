//! The end-to-end run: set the workload up several times, replay it in
//! rounds for the measured time, check every output, and report.

use std::path::Path;
use std::time::{Duration, Instant};

use mixtlb_sim::designs::DesignFactory;
use mixtlb_smp::MultiProgrammedScenario;

use crate::metrics::{self, Metrics, Outcome};
use crate::workloads::{self, Prepared, SetupTimes, SmpFingerprint, Workload};

/// Set-ups per run at least; `setup_s` is the fastest.
pub const SETUP_MIN_REPS: usize = 5;

/// The end-to-end run sets the workload up again between timed rounds
/// whenever its set-ups have taken less than this share of the timed
/// phase, so set-up is sampled across the whole run like the replays.
pub const SETUP_SHARE: f64 = 0.15;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Attempted work, failures, and the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Translations (or SMP accesses) attempted.
    pub attempted: u64,
    /// Failed translations plus failed checks.
    pub failed: u64,
    /// Why, for the first failures.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one unit's attempts and failures.
    pub fn add(&mut self, context: &str, attempted: u64, failed: u64, why: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for reason in why {
            if self.reasons.len() < 16 {
                self.reasons.push(format!("{context}: {reason}"));
            }
        }
    }

    /// Records a failed check that is not tied to translations.
    pub fn fail(&mut self, reason: String) {
        self.add("check", 0, 1, vec![reason]);
    }
}

/// The timings of a run's set-ups.
#[derive(Debug, Default)]
pub struct Setups(Vec<SetupTimes>);

impl Setups {
    /// Sets the workload up once more and times it. At seed 42 the first
    /// set-up's streamed files are checked against the committed corpus.
    pub fn prepare(
        &mut self,
        args: &Args,
        dir: &Path,
        tally: &mut Tally,
    ) -> Result<Prepared, String> {
        let (prepared, times) = workloads::prepare(args.workload, args.seed, dir)?;
        if let Prepared::Traces(traces) = &prepared {
            if self.0.is_empty() && args.workload == Workload::StreamIngest && args.seed == 42 {
                for bad in workloads::corpus_mismatches(traces) {
                    tally.fail(bad);
                }
            }
        }
        self.0.push(times);
        Ok(prepared)
    }

    /// Set-ups made.
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Whether the end-to-end run should set up again now, `elapsed` into
    /// its timed phase.
    pub fn due(&self, elapsed: Duration) -> bool {
        let spent: f64 = self.0.iter().map(|t| t.total_s).sum();
        self.count() < SETUP_MIN_REPS || spent < SETUP_SHARE * elapsed.as_secs_f64()
    }

    /// Each set-up step timed by its fastest set-up. Like a replay, a
    /// set-up only ever runs slower for other tenants of the host.
    pub fn fastest(&self) -> SetupTimes {
        let min = |f: fn(&SetupTimes) -> f64| self.0.iter().map(f).fold(f64::INFINITY, f64::min);
        SetupTimes {
            prepare_s: min(|t| t.prepare_s),
            generate_s: min(|t| t.generate_s),
            record_s: min(|t| t.record_s),
            total_s: min(|t| t.total_s),
        }
    }
}

/// One timed unit of a round.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The design replayed.
    pub design: &'static str,
    /// Translations (SMP: accesses) completed.
    pub translations: u64,
    /// Host nanoseconds of the timed phase.
    pub ns: u64,
}

/// Replays every unit of the workload once — each design over each trace,
/// or each design's SMP machine — checking every output. A `warm_up`
/// round also digests the streamed events and checks every SMP physical
/// address through [`workloads::check_smp_pas`].
pub fn round(
    workload: Workload,
    prepared: &Prepared,
    designs: &[(&'static str, DesignFactory)],
    smp_first: &mut [Option<SmpFingerprint>],
    warm_up: bool,
    tally: &mut Tally,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    match prepared {
        Prepared::Traces(traces) => {
            for trace in traces {
                for &(design, factory) in designs {
                    let run = if workload == Workload::StreamIngest {
                        workloads::replay_stream(trace, factory(), warm_up)
                            .map_err(|e| format!("streaming {}: {e}", trace.name))?
                    } else {
                        workloads::replay_batch(trace, factory())
                    };
                    let (failed, why) = run.failures(trace);
                    let n = trace.reference.len() as u64;
                    tally.add(&format!("{design}/{}", trace.name), n, failed, why);
                    samples.push(Sample {
                        design,
                        translations: n,
                        ns: run.ns,
                    });
                }
            }
        }
        Prepared::Smp(scenario) => {
            for (&(design, factory), first) in designs.iter().zip(smp_first.iter_mut()) {
                let report = workloads::replay_smp(scenario, factory);
                let why = workloads::smp_checks(&report, first);
                let n: u64 = report.cores.iter().map(|c| c.stats.accesses).sum();
                tally.add(design, n, why.len() as u64, why);
                samples.push(Sample {
                    design,
                    translations: n,
                    ns: u64::try_from(report.elapsed.as_nanos()).unwrap_or(u64::MAX),
                });
                if warm_up {
                    check_smp(scenario, design, factory, tally)?;
                }
            }
        }
    }
    Ok(samples)
}

/// Tallies [`workloads::check_smp_pas`] for one design.
pub fn check_smp(
    scenario: &MultiProgrammedScenario,
    design: &str,
    factory: DesignFactory,
    tally: &mut Tally,
) -> Result<(), String> {
    let (accesses, wrong) = workloads::check_smp_pas(scenario, factory)?;
    let why = if wrong > 0 {
        vec![format!(
            "{wrong} of {accesses} PAs differ from the page table"
        )]
    } else {
        Vec::new()
    };
    tally.add(&format!("{design} checked"), accesses, wrong, why);
    Ok(())
}

/// Per-unit timings across rounds.
#[derive(Debug, Default)]
pub struct UnitTimes(Vec<(Sample, Vec<u64>)>);

impl UnitTimes {
    /// Records one round's samples, unit by unit.
    pub fn record(&mut self, samples: &[Sample]) {
        if self.0.is_empty() {
            self.0 = samples.iter().map(|s| (*s, Vec::new())).collect();
        }
        for ((_, times), s) in self.0.iter_mut().zip(samples) {
            times.push(s.ns);
        }
    }

    /// Rounds recorded.
    pub fn rounds(&self) -> usize {
        self.0.first().map_or(0, |(_, t)| t.len())
    }

    /// Translations per host second over the units that `keep` selects,
    /// each unit timed by its fastest round. Other tenants of a shared
    /// host only ever add time, in phases of seconds to minutes
    /// that can halve the replay speed.
    pub fn rate(&self, keep: impl Fn(&Sample) -> bool) -> f64 {
        let (n, ns) =
            self.0
                .iter()
                .filter(|(s, _)| keep(s))
                .fold((0u64, 0u64), |(n, ns), (s, times)| {
                    (
                        n + s.translations,
                        ns + times.iter().copied().min().unwrap_or(0),
                    )
                });
        metrics::ratio(n as f64 * 1e9, ns as f64)
    }
}

/// The end-to-end run: every `end_to_end` metric of `BENCHMARK.json`.
pub fn end_to_end(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Setups::default();
    let mut prepared = setups.prepare(args, dir, &mut tally)?;
    let designs = args.workload.designs();
    let mut smp_first = vec![None; designs.len()];
    // Warm-up round: untimed, with every check on.
    round(
        args.workload,
        &prepared,
        &designs,
        &mut smp_first,
        true,
        &mut tally,
    )?;
    let mut units = UnitTimes::default();
    let start = Instant::now();
    let period = Duration::from_secs_f64(args.seconds);
    while units.rounds() == 0 || start.elapsed() < period || setups.count() < SETUP_MIN_REPS {
        if setups.due(start.elapsed()) {
            // Drop the previous set-up first, so peak memory holds one.
            drop(prepared);
            prepared = setups.prepare(args, dir, &mut tally)?;
        }
        let samples = round(
            args.workload,
            &prepared,
            &designs,
            &mut smp_first,
            false,
            &mut tally,
        )?;
        units.record(&samples);
    }
    let setup_s = setups.fastest().total_s;
    let all = units.rate(|_| true);
    let mix = units.rate(|s| s.design == "mix");
    let rss = metrics::peak_rss_mb();
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("translations_per_s", all, "1/s");
    m.push("mix_translations_per_s", mix, "1/s");
    m.push("peak_rss_mb", rss, "MB");
    eprintln!(
        "{}: seed {} set-ups {} rounds {} | setup_s {setup_s:.4} s | translations_per_s {all:.0} 1/s | \
         mix_translations_per_s {mix:.0} 1/s | peak_rss_mb {rss:.1} MB | \
         failed_fraction {} ({} of {})",
        args.workload.name(),
        args.seed,
        setups.count(),
        units.rounds(),
        metrics::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted,
    );
    for reason in &tally.reasons {
        eprintln!("FAILED {reason}");
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}
