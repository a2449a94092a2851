//! The open-loop `daemon-resubmit` workload: one client submits a fixed
//! job list to an in-process [`Daemon`] on a fixed schedule, with seeds
//! cycling through a small pool so most jobs resubmit signatures the
//! durable store already holds.
//!
//! A run is several sessions, each a fresh daemon with an empty store and
//! its own pool. A session first submits its pool once and waits for it
//! (the *priming* round: novel campaigns, reductions, store commits), then
//! runs the timed open loop: the pool resubmitted round robin, with every
//! [`FRESH_EVERY`]-th job a campaign the store has not seen. Latencies are
//! those of the timed loop — store reads with a few novel commits — so
//! the rare reductions cannot sit on a tail percentile's edge; the priming
//! round's reductions count towards the quality metrics.

use std::time::{Duration, Instant};

use trx_harness::pipeline::{signature_key, PipelineConfig};
use trx_harness::{ExecutorConfig, WatchdogConfig};
use trx_observe::SinkHandle;
use trx_server::{Daemon, DaemonConfig, JobPhase, JobSpec, MergedReport, Response};
use trx_targets::catalog;

use crate::layered::Harness;
use crate::measure::{cpu_time, interpolated_median, peak_rss_mb, reset_peak_rss};
use crate::trace::Trace;
use crate::triage::{unanswered_faults, warmup_config};

/// Offered load, jobs per second: about a quarter of the daemon's
/// capacity on this job mix on a 2-vCPU machine (about 400 jobs/s at
/// 4.5 ms of CPU per job). At half capacity a host stall of a few hundred
/// milliseconds filled the default 64-job admission queue and shed jobs,
/// which fails the run.
pub const RATE_PER_S: f64 = 100.0;
/// Distinct seed ranges each session's job list cycles through: 42 ranges
/// of [`TESTS`] consecutive seeds cover each of the 21 reference shaders
/// equally often.
pub const POOL: usize = 42;
/// Every this-many timed jobs, one is a campaign the store has not seen.
pub const FRESH_EVERY: usize = 50;
/// Campaign tests per job.
pub const TESTS: usize = 6;

/// One job of the fixed list.
pub fn job_spec(seed_base: u64) -> JobSpec {
    JobSpec {
        tests: TESTS,
        target_count: 0,
        consult_store: true,
        ..JobSpec::small(seed_base)
    }
}

/// The pipeline configuration the daemon runs a [`job_spec`] job with:
/// the campaign stays serial (the shards are the parallelism) and probes
/// run inline.
pub fn job_config(seed_base: u64) -> PipelineConfig {
    PipelineConfig {
        executor: ExecutorConfig {
            threads: 1,
            ..ExecutorConfig::default()
        },
        watchdog: WatchdogConfig { deadline_ms: 0 },
        ..crate::triage::job_config(seed_base, TESTS)
    }
}

/// Starts a daemon (default configuration: 2 shards, in-memory store) and
/// runs one warm-up job on it that does not touch the store. Returns it
/// with the set-up wall time.
pub fn setup() -> (Daemon, f64) {
    let started = Instant::now();
    std::hint::black_box(catalog::all_targets());
    std::hint::black_box(trx_harness::corpus::donor_modules());
    let daemon = Daemon::start(DaemonConfig::default(), SinkHandle::noop());
    let warm = warmup_config();
    let spec = JobSpec {
        tests: warm.tests,
        target_count: 0,
        ..JobSpec::small(warm.seed_base)
    };
    let Response::Accepted { job } = daemon.submit(spec) else {
        panic!("an idle daemon admits the warm-up job");
    };
    wait_terminal(&daemon, job);
    (daemon, started.elapsed().as_secs_f64())
}

/// Polls until `job` reaches a terminal phase.
fn wait_terminal(daemon: &Daemon, job: u64) {
    let terminal = |phase| {
        matches!(
            phase,
            JobPhase::Done | JobPhase::Quarantined | JobPhase::DeadlineExceeded
        )
    };
    while !matches!(daemon.status(job), Response::Status(s) if terminal(s.phase)) {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One session's fixed job list.
pub struct Session {
    /// The pool, submitted once (untimed) to prime the store.
    pub pool: Vec<u64>,
    /// The timed open-loop job list.
    pub timed: Vec<u64>,
}

/// One open-loop pass.
pub struct DaemonPass {
    /// Per-job latency from its due time to its terminal phase, seconds.
    pub latency_s: Vec<f64>,
    /// Per-job lateness of the submission against its due time, seconds.
    pub late_s: Vec<f64>,
    /// Per-job admission→terminal latency reported by the daemon, seconds.
    pub server_s: Vec<f64>,
    /// First due time to last terminal job, seconds.
    pub wall_s: f64,
    /// Process CPU over the pass, seconds.
    pub cpu_s: f64,
    /// Peak resident memory over the session, MiB.
    pub peak_rss_mb: f64,
    /// Largest admission-queue depth seen at a submission (traced only).
    pub queue_depth_max: usize,
    /// Journal bytes (record lines and their newlines) of the timed jobs.
    pub wal_bytes: usize,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Jobs that committed novel signatures to the store.
    pub store_commits: u64,
    /// Bugs of the priming and timed jobs the daemon reduced, as
    /// `(probes, reduced length, instruction delta)`.
    pub reduced: Vec<(usize, usize, usize)>,
    /// Bug signatures the store answered as duplicates.
    pub duplicates: usize,
    /// Operations attempted: submissions plus probes.
    pub attempted: u64,
    /// Operations failed: sheds, jobs not `Done`, and probe faults that
    /// were not "it hangs" answers.
    pub failed: u64,
}

/// Primes the store with the session's pool, then submits the timed jobs
/// (one each) open loop at [`RATE_PER_S`], drains, and checks the drained
/// report. The merged report is summarised here and dropped, so memory
/// use does not grow with the number of sessions.
pub fn run_pass(
    daemon: &Daemon,
    session: &Session,
    harness: &Harness,
    trace: &Trace,
) -> DaemonPass {
    let mut problems = Vec::new();
    let mut first_job = None;
    reset_peak_rss();
    for &seed in &session.pool {
        match daemon.submit(job_spec(seed)) {
            Response::Accepted { job } => {
                first_job.get_or_insert(job);
                wait_terminal(daemon, job);
            }
            other => problems.push(format!("priming job refused: {other:?}")),
        }
    }
    let seeds = &session.timed;
    let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let cpu_before = cpu_time();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut due = Vec::with_capacity(seeds.len());
    let mut submitted = Vec::with_capacity(seeds.len());
    let mut ids = Vec::with_capacity(seeds.len());
    let mut shed = 0u64;
    let mut queue_depth_max = 0usize;
    for (i, &seed) in seeds.iter().enumerate() {
        let at = t0 + period * u32::try_from(i).expect("job lists fit in u32");
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        if trace.enabled() {
            queue_depth_max = queue_depth_max.max(daemon.stats().queued);
        }
        let sent = Instant::now();
        match daemon.submit(job_spec(seed)) {
            Response::Accepted { job } => ids.push(Some(job)),
            _ => {
                shed += 1;
                ids.push(None);
            }
        }
        due.push(at);
        submitted.push(sent);
    }
    let (merged, journal) = daemon.drain();
    let latencies = daemon.latencies();
    let cpu_s = (cpu_time() - cpu_before).as_secs_f64();
    let peak_rss_mb = peak_rss_mb();

    let mut latency_s = Vec::with_capacity(seeds.len());
    let mut late_s = Vec::with_capacity(seeds.len());
    let mut server_s = Vec::with_capacity(seeds.len());
    let mut last_done = t0;
    for (i, id) in ids.iter().enumerate() {
        let Some(job) = id else { continue };
        let served = Duration::from_nanos(latencies[*job as usize].unwrap_or(0));
        let done = submitted[i] + served;
        last_done = last_done.max(done);
        latency_s.push((done - due[i]).as_secs_f64());
        late_s.push(submitted[i].saturating_duration_since(due[i]).as_secs_f64());
        server_s.push(served.as_secs_f64());
        let root = trace.record("job", None, due[i], done);
        trace.record("loadgen", root, due[i], submitted[i]);
        trace.record("server", root, submitted[i], done);
    }
    let timed_from = ids.iter().flatten().next().copied().unwrap_or(u64::MAX);
    let mut wal_bytes = 0;
    let mut in_timed = false;
    for line in journal.lines() {
        match line.strip_prefix("# job ") {
            Some(id) => in_timed = id.parse::<u64>().is_ok_and(|id| id >= timed_from),
            None if in_timed => wal_bytes += line.len() + 1,
            None => {}
        }
    }
    problems.extend(check_drained(daemon, &merged, &ids));
    let store_commits = daemon.stats().store_jobs_committed;
    let first_job = first_job.unwrap_or(0);
    let mut reduced = Vec::new();
    let mut duplicates = 0;
    let (mut attempted, mut failed) = (shed, shed);
    for job in merged.jobs.iter().filter(|j| j.job >= first_job) {
        attempted += 1;
        let report = match &job.report {
            Some(report) if !job.quarantined && !job.deadline_exceeded => report,
            _ => {
                failed += 1;
                continue;
            }
        };
        attempted += report.metrics.reduction.tests_run as u64;
        match unanswered_faults(harness, report) {
            Ok(unanswered) => failed += unanswered,
            Err(e) => problems.push(format!("job {}: {e}", job.job)),
        }
        duplicates += report.duplicates.len();
        reduced.extend(
            report
                .bugs
                .iter()
                .map(|b| (b.stats.tests_run, b.reduced_length, b.delta_instructions)),
        );
    }
    DaemonPass {
        latency_s,
        late_s,
        server_s,
        wall_s: (last_done - t0).as_secs_f64(),
        cpu_s,
        peak_rss_mb,
        queue_depth_max,
        wal_bytes,
        problems,
        store_commits,
        reduced,
        duplicates,
        attempted,
        failed,
    }
}

/// Every job must be `Done` with a report, and every store-answered
/// duplicate must name a signature an earlier job reduced and committed.
fn check_drained(daemon: &Daemon, merged: &MergedReport, ids: &[Option<u64>]) -> Vec<String> {
    let mut problems = Vec::new();
    if ids.iter().any(Option::is_none) {
        problems.push("admission control shed part of the job list".to_owned());
    }
    for job in &merged.jobs {
        let Some(report) = &job.report else {
            problems.push(format!("job {} ended without a report", job.job));
            continue;
        };
        if job.quarantined || job.deadline_exceeded {
            problems.push(format!("job {} did not finish Done", job.job));
        }
        for duplicate in &report.duplicates {
            let committed_by = match daemon.signature(&duplicate.target, &duplicate.signature) {
                Response::Duplicate { first_job, .. } => Some(first_job),
                _ => None,
            };
            let reduced_there = committed_by
                .filter(|&first| first < job.job)
                .and_then(|first| merged.jobs.get(first as usize))
                .and_then(|first| first.report.as_ref())
                .is_some_and(|first| {
                    first
                        .bugs
                        .iter()
                        .any(|b| signature_key(&b.target, &b.signature) == duplicate.key)
                });
            if !reduced_there {
                problems.push(format!(
                    "job {}: duplicate {} was not committed by an earlier job (store says {:?})",
                    job.job, duplicate.key, committed_by
                ));
            }
        }
    }
    problems
}

/// Quality metrics over every priming and timed job of the passes:
/// probes per reduced bug, mean reduced length, median instruction delta,
/// and the share of bug signatures answered from the store.
pub fn quality(passes: &[DaemonPass]) -> (f64, f64, f64, f64) {
    let bugs: Vec<_> = passes.iter().flat_map(|p| &p.reduced).collect();
    let duplicates: usize = passes.iter().map(|p| p.duplicates).sum();
    let n = bugs.len().max(1) as f64;
    let probes: usize = bugs.iter().map(|b| b.0).sum();
    let length: usize = bugs.iter().map(|b| b.1).sum();
    let deltas: Vec<f64> = bugs.iter().map(|b| b.2 as f64).collect();
    let dup_rate = duplicates as f64 / (duplicates + bugs.len()).max(1) as f64;
    (
        probes as f64 / n,
        length as f64 / n,
        interpolated_median(&deltas),
        dup_rate,
    )
}
