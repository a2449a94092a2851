//! The closed-loop triage workloads: `triage-shallow` (back-to-back
//! default `run_pipeline` jobs) and `triage-deep` (one chained-round deep
//! test per job, through the layered pipeline).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trx_core::apply_sequence;
use trx_harness::campaign::{classify, try_generate_test, Tool};
use trx_harness::corpus::{donor_modules, REFERENCE_COUNT};
use trx_harness::pipeline::{
    run_pipeline, signature_key, Journal, KnownSignatures, PipelineConfig, PipelineReport,
    WalRecord,
};
use trx_reducer::{ProbeFault, Reducer, ReductionLog};
use trx_targets::catalog;

use crate::layered::{run_layered, Counts, Harness, JobOutput, Replay, Source, WalDigest};
use crate::measure::{cpu_time, interpolated_median, peak_rss_mb, reset_peak_rss};
use crate::trace::Trace;

/// One job's inputs and what it produced.
pub struct JobResult {
    /// Wall time of the job, in seconds.
    pub seconds: f64,
    /// The pipeline report.
    pub report: PipelineReport,
    /// The journal it wrote.
    pub wal: WalDigest,
    /// Layer work counts (layered-pipeline jobs only; zero for
    /// `run_pipeline` jobs).
    pub counts: Counts,
    /// Probe faults that were not the oracle's "it hangs" answer.
    pub unanswered: u64,
}

/// One timed pass over a workload's fixed job list.
pub struct Pass {
    /// Per-job results in job order.
    pub jobs: Vec<JobResult>,
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    /// Process CPU time of the pass, in seconds.
    pub cpu_s: f64,
    /// Peak resident memory of each block of [`REFERENCE_COUNT`] jobs, MiB.
    pub block_peaks_mb: Vec<f64>,
}

/// Which triage path a pass runs its jobs through.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// `trx_harness::pipeline::run_pipeline`, the users' entry point.
    Pipeline,
    /// The layered pipeline, generating tests from this source.
    Layered(Source),
}

/// The default configuration of job `seed_base` with `tests` tests.
pub fn job_config(seed_base: u64, tests: usize) -> PipelineConfig {
    PipelineConfig {
        tool: Tool::SpirvFuzz,
        tests,
        seed_base,
        ..PipelineConfig::default()
    }
}

/// Builds the per-pass state: the target catalog and donor corpus, then
/// one untimed-by-the-pass warm-up job. Returns it with its wall time.
pub fn setup() -> (Harness, f64) {
    let started = Instant::now();
    let harness = Harness {
        targets: Arc::new(catalog::all_targets()),
    };
    std::hint::black_box(donor_modules());
    run_job(
        &harness,
        &warmup_config(),
        Path::Pipeline,
        &KnownSignatures::new(),
        &Trace::off(),
        None,
    )
    .expect("the warm-up job runs");
    (harness, started.elapsed().as_secs_f64())
}

/// The warm-up job: a small fixed default job, independent of the
/// workload seed so set-up time does not depend on it.
pub fn warmup_config() -> PipelineConfig {
    job_config(4_000_000_000, PipelineConfig::default().tests)
}

/// Runs one job through `path`.
///
/// # Errors
///
/// The pipeline's error, rendered.
pub fn run_job(
    harness: &Harness,
    config: &PipelineConfig,
    path: Path,
    known: &KnownSignatures,
    trace: &Trace,
    job: Option<usize>,
) -> Result<JobOutput, String> {
    match path {
        Path::Pipeline => {
            debug_assert!(
                known.is_empty(),
                "run_pipeline jobs start with no known signatures"
            );
            let mut wal = WalDigest::default();
            let mut logs: BTreeMap<usize, ReductionLog> = BTreeMap::new();
            let report = run_pipeline(config, &harness.targets, &Journal::new(), |record| {
                wal.append(record);
                if let WalRecord::Probe { bug, record } = record {
                    logs.entry(*bug).or_default().records.push(*record);
                }
            })
            .map_err(|e| e.to_string())?;
            Ok(JobOutput {
                report,
                wal,
                replays: Vec::new(),
                counts: Counts::default(),
                logs,
            })
        }
        Path::Layered(source) => {
            run_layered(harness, config, source, known, trace, job).map_err(|e| e.to_string())
        }
    }
}

/// Runs every job of `configs` back to back (closed loop, one client).
/// After each job's clock stops, its output checks run (replays when
/// `check_replays`; failures are appended to `problems`); their wall and
/// CPU time are kept out of the pass's. With `carry_known` (layered path
/// only), each job sees the signatures earlier jobs reduced as already
/// known, as the daemon's durable store answers them.
pub fn run_pass(
    harness: &Harness,
    configs: &[PipelineConfig],
    path: Path,
    trace: &Trace,
    check_replays: bool,
    carry_known: bool,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let cpu_before = cpu_time();
    let started = Instant::now();
    let mut jobs = Vec::with_capacity(configs.len());
    let mut checking = Duration::ZERO;
    let mut checking_cpu = Duration::ZERO;
    let mut block_peaks_mb = Vec::new();
    let mut known = KnownSignatures::new();
    for (j, config) in configs.iter().enumerate() {
        if j % REFERENCE_COUNT == 0 {
            if j > 0 {
                block_peaks_mb.push(peak_rss_mb());
            }
            reset_peak_rss();
        }
        let job_started = Instant::now();
        let root = trace.enter("job", None);
        let output = run_job(harness, config, path, &known, trace, root.id())?;
        drop(root);
        let seconds = job_started.elapsed().as_secs_f64();
        let check_started = Instant::now();
        let check_cpu = cpu_time();
        if check_replays {
            match path {
                Path::Pipeline => match replays_from_journal(harness, config, &output) {
                    Ok(replays) => check_replay(harness, &replays, config.seed_base, problems),
                    Err(e) => problems.push(format!("job {}: {e}", config.seed_base)),
                },
                Path::Layered(_) => {
                    check_replay(harness, &output.replays, config.seed_base, problems);
                }
            }
        }
        let unanswered = match path {
            Path::Pipeline => unanswered_faults(harness, &output.report)?,
            Path::Layered(_) => unanswered(&output.report, &output),
        };
        if carry_known {
            for bug in &output.report.bugs {
                known.insert(
                    signature_key(&bug.target, &bug.signature),
                    bug.kinds.clone(),
                );
            }
        }
        checking += check_started.elapsed();
        checking_cpu += cpu_time().saturating_sub(check_cpu);
        jobs.push(JobResult {
            seconds,
            report: output.report,
            wal: output.wal,
            counts: output.counts,
            unanswered,
        });
    }
    block_peaks_mb.push(peak_rss_mb());
    let wall_s = (started.elapsed().saturating_sub(checking)).as_secs_f64();
    let cpu_s = (cpu_time().saturating_sub(cpu_before + checking_cpu)).as_secs_f64();
    Ok(Pass {
        jobs,
        wall_s,
        cpu_s,
        block_peaks_mb,
    })
}

/// Rebuilds a `run_pipeline` job's reduced sequences from its journal, as
/// a resumed pipeline would: each bug's test is regenerated and its
/// reduction replayed from the journaled probe verdicts, with a probe
/// that fails if the journal runs out.
fn replays_from_journal(
    harness: &Harness,
    config: &PipelineConfig,
    output: &JobOutput,
) -> Result<Vec<Replay>, String> {
    let donors = donor_modules();
    // A fresh job has no known signatures, so its bug indices are the
    // report's bug order.
    output
        .report
        .bugs
        .iter()
        .enumerate()
        .map(|(index, bug)| {
            let test =
                try_generate_test(config.tool, bug.seed, &donors).map_err(|e| e.to_string())?;
            let log = output.logs.get(&index).cloned().unwrap_or_default();
            let mut unjournaled = 0usize;
            let reduction = Reducer::new(config.reducer)
                .reduce_journaled_seeded(
                    &test.original,
                    &test.transformations,
                    &test.variant,
                    &log,
                    |_| {
                        unjournaled += 1;
                        Err(ProbeFault("verdict missing from the journal".to_owned()))
                    },
                    |_, _| {},
                )
                .reduction;
            if unjournaled > 0 || reduction.sequence.len() != bug.reduced_length {
                return Err(format!(
                    "bug {index}: the journal replays to {} transformations with {unjournaled} \
                     verdicts missing, the report says {}",
                    reduction.sequence.len(),
                    bug.reduced_length
                ));
            }
            let target = harness
                .targets
                .iter()
                .position(|t| t.name() == bug.target)
                .ok_or_else(|| format!("bug {index}: unknown target {}", bug.target))?;
            Ok(Replay {
                target,
                signature: bug.signature.clone(),
                original: test.original,
                sequence: reduction.sequence,
                hang_verdicts: 0,
            })
        })
        .collect()
}

/// Probe faults of `report` that a layered run of the same job (the same
/// reductions, bug by bug) does not explain as "it hangs" answers.
pub fn unanswered(report: &PipelineReport, layered: &JobOutput) -> u64 {
    report
        .bugs
        .iter()
        .map(|bug| {
            let hangs = layered
                .report
                .bugs
                .iter()
                .zip(&layered.replays)
                .find(|(b, _)| b.target == bug.target && b.signature == bug.signature)
                .map_or(0, |(_, replay)| replay.hang_verdicts);
            (bug.stats.probe_faults as u64).saturating_sub(hangs)
        })
        .sum()
}

/// `run_pipeline` journals every probe fault alike. A report with faults
/// is re-run (untimed) through the layered pipeline, whose probes tell a
/// fuel-exhausted candidate ("it hangs", an answer) from a panic or a
/// watchdog timeout; reductions are deterministic, so each bug's faults
/// match bug by bug.
///
/// # Errors
///
/// The layered pipeline's error, rendered.
pub fn unanswered_faults(harness: &Harness, report: &PipelineReport) -> Result<u64, String> {
    if report.bugs.iter().all(|b| b.stats.probe_faults == 0) {
        return Ok(0);
    }
    let config = job_config(report.seed_base, report.tests);
    let none = KnownSignatures::new();
    let rerun = run_layered(
        harness,
        &config,
        Source::Shallow,
        &none,
        &Trace::off(),
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok(unanswered(report, &rerun))
}

/// Every reduced sequence, applied to its original, must still trigger
/// its bug's signature on its target (public `classify`).
pub fn check_replay(
    harness: &Harness,
    replays: &[Replay],
    seed_base: u64,
    problems: &mut Vec<String>,
) {
    for replay in replays {
        let mut context = replay.original.clone();
        apply_sequence(&mut context, &replay.sequence);
        let target = &harness.targets[replay.target];
        let found = classify(
            Tool::SpirvFuzz,
            target,
            &replay.original,
            &context.module,
            &replay.original.inputs,
        );
        if found.as_ref() != Some(&replay.signature) {
            problems.push(format!(
                "job {seed_base}: reduced sequence for {} no longer triggers it (got {:?})",
                signature_key(target.name(), &replay.signature),
                found.map(|s| s.to_string()),
            ));
        }
    }
}

/// Two passes over the same inputs must agree exactly, job by job: same
/// report, same journal bytes.
pub fn check_repeat(label: &str, first: &Pass, again: &Pass, problems: &mut Vec<String>) {
    for (a, b) in first.jobs.iter().zip(&again.jobs) {
        if a.report != b.report {
            problems.push(format!(
                "{label}: job {} report drifted",
                a.report.seed_base
            ));
        }
        if a.wal != b.wal {
            problems.push(format!(
                "{label}: job {} journal drifted ({:?} vs {:?})",
                a.report.seed_base, a.wal, b.wal
            ));
        }
    }
}

/// Quality metrics of a pass: probes per bug, mean reduced length and the
/// median instruction delta over every reduced bug.
pub fn quality(pass: &Pass) -> (f64, f64, f64) {
    let bugs: Vec<_> = pass.jobs.iter().flat_map(|j| &j.report.bugs).collect();
    let n = bugs.len().max(1) as f64;
    let probes: usize = bugs.iter().map(|b| b.stats.tests_run).sum();
    let length: usize = bugs.iter().map(|b| b.reduced_length).sum();
    let deltas: Vec<f64> = bugs.iter().map(|b| b.delta_instructions as f64).collect();
    (
        probes as f64 / n,
        length as f64 / n,
        interpolated_median(&deltas),
    )
}

/// Share of reported bug signatures that an earlier job of the pass had
/// already reported — what a cross-job signature store would answer.
pub fn repeat_share(pass: &Pass) -> f64 {
    let mut seen = std::collections::BTreeSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for job in &pass.jobs {
        let keys: std::collections::BTreeSet<String> = job
            .report
            .bugs
            .iter()
            .map(|b| signature_key(&b.target, &b.signature))
            .collect();
        for key in &keys {
            total += 1;
            if seen.contains(key) {
                repeats += 1;
            }
        }
        seen.extend(keys);
    }
    repeats as f64 / total.max(1) as f64
}
