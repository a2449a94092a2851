//! `triagebench`: a fixed-work benchmark of the default triage
//! configuration, end to end and layer by layer.
//!
//! ```text
//! triagebench --workload <triage-shallow|triage-deep|daemon-resubmit>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run of a workload processes exactly the job list the seed and the
//! run length define, never "as many jobs as fit", so counts and quality
//! metrics repeat exactly and only timings carry noise. The last line of
//! standard output is one JSON object with the metrics; `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones from a separate
//! traced pass. Exit status: 0 on success, 1 when an output check fails
//! (the JSON line then reads `"correct": false`), 2 on a malformed command
//! line. See `README.md` beside this file for the metric glossary.

mod daemon;
mod layered;
mod measure;
mod trace;
mod triage;

use layered::Source;
use measure::{median, metric, result_line, steal_ticks, tail, Metric};
use trace::{Attribution, Trace, LAYERS};
use triage::{job_config, Pass, Path};
use trx_harness::corpus::REFERENCE_COUNT;

/// Set-ups per triage run; `setup_s` is their median.
const SETUPS: usize = 9;
/// `triage-shallow` jobs per second of requested run length (calibrated
/// on a 2-vCPU machine; fixes the job count, not the run's duration). Job
/// counts are rounded up to whole cycles of the [`REFERENCE_COUNT`]
/// reference shaders that consecutive seeds walk through, so every
/// reference weighs the same in every run whatever the seed.
const SHALLOW_JOBS_PER_S: f64 = 11.0;
/// Fuzzer rounds chained into each `triage-deep` test.
const DEEP_ROUNDS: usize = 8;
/// `triage-deep` jobs per second of requested run length: 189 jobs at 20 s,
/// about 25 s of work on a 2-vCPU machine. More jobs steady the p90 tail,
/// which rests on the few heaviest reductions; 200 or more would move the
/// tail to p95.
const DEEP_JOBS_PER_S: f64 = 9.0;
/// `daemon-resubmit` sessions per run, each a fresh daemon with an empty
/// store and its own seed pool; latencies and quality metrics pool all
/// sessions' jobs, so each run's quality metrics rest on every session's
/// priming reductions.
const DAEMON_SESSIONS: usize = 12;
/// Sessions a traced `daemon-resubmit` run runs untraced, traced, and
/// replays through the layered pipeline.
const TRACED_SESSIONS: usize = 3;
/// Shallow jobs the equivalence sample runs through both paths, and jobs
/// a single-pass workload re-runs to check that its results repeat.
const SAMPLE: usize = 2;
/// The ROADMAP's attribution floor for a traced run.
const COVERAGE_FLOOR: f64 = 0.90;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Shallow,
    Deep,
    Daemon,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: triagebench --workload <triage-shallow|triage-deep|daemon-resubmit> \
                     --seed <0..=4294967295> --seconds <1..=600> --trace <0|1>";

/// Parses the command line strictly: every flag once, every value
/// well-formed, nothing unknown, nothing defaulted.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot_taken = |taken: bool| {
            if taken {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                workload = Some(match value.as_str() {
                    "triage-shallow" => Workload::Shallow,
                    "triage-deep" => Workload::Deep,
                    "daemon-resubmit" => Workload::Daemon,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                let parsed: u32 = value
                    .parse()
                    .map_err(|_| format!("--seed `{value}` is not a u32"))?;
                seed = Some(u64::from(parsed));
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let parsed: u64 = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds `{value}` is not in 1..=600"))?;
                seconds = Some(parsed);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace `{other}` is not 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `seconds × jobs_per_s` jobs split over `passes`, rounded up to a
/// multiple of `unit` (at least one unit).
fn job_count(seconds: u64, jobs_per_s: f64, passes: usize, unit: usize) -> usize {
    let jobs = seconds as f64 * jobs_per_s / passes as f64;
    (jobs / unit as f64).ceil().max(1.0) as usize * unit
}

/// Job `j`'s first seed: each workload seed owns a disjoint block of a
/// million seeds, and each workload a disjoint range inside it.
fn seed_base(seed: u64, offset: u64, j: usize) -> u64 {
    seed * 1_000_000 + offset + j as u64
}

/// What a run produced, before it is printed.
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("triagebench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload {
        Workload::Shallow | Workload::Deep => run_triage(&args),
        Workload::Daemon => run_daemon(&args),
    };
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The fixed job list of a triage workload.
fn triage_jobs(args: &Args) -> (Vec<trx_harness::PipelineConfig>, Path) {
    match args.workload {
        Workload::Shallow => {
            let n = job_count(args.seconds, SHALLOW_JOBS_PER_S, 1, REFERENCE_COUNT);
            let tests = trx_harness::PipelineConfig::default().tests;
            let configs = (0..n)
                .map(|j| job_config(seed_base(args.seed, 0, j * tests), tests))
                .collect();
            (configs, Path::Pipeline)
        }
        _ => {
            let n = job_count(args.seconds, DEEP_JOBS_PER_S, 1, REFERENCE_COUNT);
            let configs = (0..n)
                .map(|j| job_config(seed_base(args.seed, 500_000, j), 1))
                .collect();
            (
                configs,
                Path::Layered(Source::Deep {
                    rounds: DEEP_ROUNDS,
                }),
            )
        }
    }
}

/// The equivalence sample: a few `triage-shallow` jobs through both
/// `run_pipeline` and the layered pipeline must agree byte for byte, and
/// the layered pipeline's reduced sequences must replay.
fn equivalence_sample(harness: &layered::Harness, seed: u64, problems: &mut Vec<String>) {
    let configs: Vec<_> = (0..SAMPLE)
        .map(|j| job_config(seed_base(seed, 900_000, j * 16), 16))
        .collect();
    let off = Trace::off();
    let reference = triage::run_pass(
        harness,
        &configs,
        Path::Pipeline,
        &off,
        false,
        false,
        problems,
    );
    let layered = triage::run_pass(
        harness,
        &configs,
        Path::Layered(Source::Shallow),
        &off,
        true,
        false,
        problems,
    );
    match (reference, layered) {
        (Ok(reference), Ok(layered)) => {
            triage::check_repeat(
                "layered pipeline vs run_pipeline",
                &reference,
                &layered,
                problems,
            );
        }
        (Err(e), _) | (_, Err(e)) => problems.push(format!("equivalence sample: {e}")),
    }
}

/// Says on standard error how much CPU the hypervisor took from the
/// machine during the timed phase: on a shared host, the first thing to
/// look at when a run's timings stand out.
fn report_steal(ticks: u64, wall_s: f64) {
    eprintln!(
        "host steal during the timed phase: {:.1}% of the machine's CPU time",
        100.0 * measure::steal_share(ticks, wall_s)
    );
}

/// Operations attempted and failed over a pass: jobs plus probes, failing
/// on probe faults. A probe whose candidate exhausted the interpreter's
/// fuel budget got the oracle's answer ("it hangs") and does not count as
/// failed (see [`triage::unanswered_faults`]).
fn pass_operations(pass: &Pass) -> (u64, u64) {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for job in &pass.jobs {
        attempted += 1 + job.report.metrics.reduction.tests_run as u64;
        failed += job.unanswered;
    }
    (attempted, failed)
}

fn run_triage(args: &Args) -> Outcome {
    let (configs, path) = triage_jobs(args);
    let mut problems = Vec::new();
    if args.trace {
        return traced_triage(args, &configs, path, problems);
    }
    let mut setups = Vec::new();
    let mut harness = None;
    for _ in 0..SETUPS {
        let (built, setup_s) = triage::setup();
        setups.push(setup_s);
        harness = Some(built);
    }
    let harness = harness.expect("at least one set-up");
    let (started, steal_before) = (std::time::Instant::now(), steal_ticks());
    let pass = match triage::run_pass(
        &harness,
        &configs,
        path,
        &Trace::off(),
        true,
        false,
        &mut problems,
    ) {
        Ok(pass) => pass,
        Err(e) => {
            problems.push(e);
            return Outcome {
                problems,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
        }
    };
    report_steal(
        steal_ticks() - steal_before,
        started.elapsed().as_secs_f64(),
    );
    // Results must repeat exactly: an untimed re-run of the first jobs
    // must reproduce their reports and journals byte for byte.
    let sample = &configs[..SAMPLE.min(configs.len())];
    match triage::run_pass(
        &harness,
        sample,
        path,
        &Trace::off(),
        false,
        false,
        &mut problems,
    ) {
        Ok(again) => triage::check_repeat("re-run vs timed pass", &pass, &again, &mut problems),
        Err(e) => problems.push(format!("re-run: {e}")),
    }
    if matches!(path, Path::Pipeline) {
        equivalence_sample(&harness, args.seed, &mut problems);
    }
    let n = configs.len();
    let latencies: Vec<f64> = pass.jobs.iter().map(|j| j.seconds).collect();
    let (tail_s, percentile, samples) = tail(&latencies);
    eprintln!("job_ms_tail is p{percentile} of {samples} jobs");
    let (probes_per_bug, reduced_len, delta_median) = triage::quality(&pass);
    let wal_bytes: usize = pass.jobs.iter().map(|j| j.wal.bytes).sum();
    let (attempted, failed) = pass_operations(&pass);
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("jobs_per_s", n as f64 / pass.wall_s, "1/s"),
        metric("job_ms_p50", median(&latencies) * 1e3, "ms"),
        metric("job_ms_tail", tail_s * 1e3, "ms"),
        metric("cpu_ms_per_job", pass.cpu_s * 1e3 / n as f64, "ms"),
        metric("probes_per_bug", probes_per_bug, "count"),
        metric("reduced_len_mean", reduced_len, "count"),
        metric("delta_instrs_median", delta_median, "count"),
        metric("dup_rate", triage::repeat_share(&pass), "ratio"),
        metric(
            "ok_rate",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", median(&pass.block_peaks_mb), "MB"),
        metric("wal_kb_per_job", wal_bytes as f64 / 1024.0 / n as f64, "KB"),
    ];
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

/// The traced triage run: one untraced pass on the workload's own path,
/// then one traced pass through the layered pipeline over the same jobs.
/// The two must agree exactly (for `triage-shallow` that is the
/// equivalence check against `run_pipeline`), and the trace must attribute at least
/// [`COVERAGE_FLOOR`] of job wall time to named layers.
fn traced_triage(
    args: &Args,
    configs: &[trx_harness::PipelineConfig],
    path: Path,
    mut problems: Vec<String>,
) -> Outcome {
    let (harness, _) = triage::setup();
    let source = match path {
        Path::Layered(source) => source,
        Path::Pipeline => Source::Shallow,
    };
    if matches!(path, Path::Layered(_)) {
        equivalence_sample(&harness, args.seed, &mut problems);
    }
    // Trace half the job list, so the untraced and traced passes together
    // take about as long as an untraced run.
    let configs = &configs[..configs.len().div_ceil(2)];
    let untraced = triage::run_pass(
        &harness,
        configs,
        path,
        &Trace::off(),
        false,
        false,
        &mut problems,
    );
    let trace = Trace::on();
    let traced = triage::run_pass(
        &harness,
        configs,
        Path::Layered(source),
        &trace,
        true,
        false,
        &mut problems,
    );
    let (untraced, traced) = match (untraced, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (Err(e), _) | (_, Err(e)) => {
            problems.push(e);
            return Outcome {
                problems,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
        }
    };
    triage::check_repeat("traced vs untraced pass", &untraced, &traced, &mut problems);
    let attribution = trace.attribution();
    gate_coverage(&attribution, &mut problems);

    let mut metrics = pipeline_layers(&attribution, &traced);
    metrics.extend(daemon_layers_absent());
    metrics.push(metric("trace.coverage", attribution.coverage(), "ratio"));
    metrics.push(metric(
        "trace.overhead",
        traced.wall_s / untraced.wall_s - 1.0,
        "ratio",
    ));
    let (attempted, failed) = pass_operations(&traced);
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

/// The pipeline layers' metrics of a traced layered-pipeline pass.
fn pipeline_layers(attribution: &Attribution, pass: &Pass) -> Vec<Metric> {
    let n = pass.jobs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&triage::JobResult) -> u64| pass.jobs.iter().map(f).sum::<u64>() as f64;
    let bugs = sum(&|j| j.report.bugs.len() as u64).max(1.0);
    let probes = sum(&|j| j.counts.probes);
    let records = sum(&|j| j.wal.records as u64);
    let oracle_calls = sum(&|j| j.counts.oracle_calls);
    let lookups = sum(&|j| j.counts.cache_lookups);
    let ms = |layer: &str| attribution.self_ns(layer) / 1e6;
    let us = |layer: &str| attribution.self_ns(layer) / 1e3;
    vec![
        metric("fuzzer.ms_per_job", ms("fuzzer") / n, "ms"),
        metric(
            "fuzzer.transformations_per_job",
            sum(&|j| j.counts.transformations) / n,
            "count",
        ),
        metric("corpus.ms_per_job", ms("corpus") / n, "ms"),
        metric("executor.ms_per_job", ms("executor") / n, "ms"),
        metric(
            "executor.cells_per_job",
            sum(&|j| j.counts.cells) / n,
            "count",
        ),
        metric(
            "executor.retries",
            sum(&|j| j.report.metrics.campaign.retries),
            "count",
        ),
        metric(
            "watchdog.wait_us_per_probe",
            us("watchdog") / probes.max(1.0),
            "us",
        ),
        metric("watchdog.calls", probes, "count"),
        metric(
            "oracle.us_per_probe",
            us("oracle") / oracle_calls.max(1.0),
            "us",
        ),
        metric(
            "oracle.module_instrs_per_probe",
            sum(&|j| j.counts.probe_instrs) / probes.max(1.0),
            "count",
        ),
        metric("reducer.self_ms_per_bug", ms("reducer") / bugs, "ms"),
        metric(
            "reducer.applications_per_bug",
            sum(&|j| j.counts.applications) / bugs,
            "count",
        ),
        metric(
            "reducer.cache_hit_rate",
            sum(&|j| j.counts.cache_hits) / lookups.max(1.0),
            "ratio",
        ),
        metric("dedup.us_per_bug", us("dedup") / bugs, "us"),
        metric("wal.us_per_record", us("wal") / records.max(1.0), "us"),
        metric("wal.records_per_job", records / n, "count"),
    ]
}

/// The server-side layers a triage workload never enters.
fn daemon_layers_absent() -> Vec<Metric> {
    vec![
        metric("server.latency_ms_p50", 0.0, "ms"),
        metric("server.queue_depth_max", 0.0, "count"),
        metric("store.hits", 0.0, "count"),
        metric("store.commits", 0.0, "count"),
        metric("loadgen.late_ms_max", 0.0, "ms"),
    ]
}

/// Prints the per-layer self-time table sorted by share and fails the run
/// when named layers cover less than [`COVERAGE_FLOOR`] of job wall time.
fn gate_coverage(attribution: &Attribution, problems: &mut Vec<String>) {
    let wall = attribution.job_wall_ns.max(1.0);
    let mut rows: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&layer| (layer, attribution.self_ns(layer)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!(
        "{:<10} {:>12} {:>8} {:>10}",
        "layer", "self ms", "share", "spans"
    );
    for (layer, ns) in rows {
        let label = if layer == trace::ROOT {
            "(glue)"
        } else {
            layer
        };
        eprintln!(
            "{label:<10} {:>12.1} {:>7.1}% {:>10}",
            ns / 1e6,
            100.0 * ns / wall,
            attribution.count(layer)
        );
    }
    let coverage = attribution.coverage();
    eprintln!(
        "trace.coverage = {:.2}% of {:.1} ms job wall",
        100.0 * coverage,
        wall / 1e6
    );
    if coverage < COVERAGE_FLOOR {
        problems.push(format!(
            "trace.coverage {coverage:.3} is below the {COVERAGE_FLOOR} attribution floor"
        ));
    }
}

/// The daemon workload's fixed job lists, one [`daemon::Session`] per
/// session: `seconds × rate` priming and timed jobs per run split over the
/// sessions.
/// Each session has its own pool of [`daemon::POOL`] seed ranges; its
/// timed loop resubmits the pool round robin, with every
/// [`daemon::FRESH_EVERY`]-th job a seed range of its own.
fn daemon_sessions(args: &Args) -> Vec<daemon::Session> {
    // The priming round counts towards the `seconds × rate` budget.
    let n = job_count(
        args.seconds,
        daemon::RATE_PER_S,
        DAEMON_SESSIONS,
        daemon::POOL,
    )
    .saturating_sub(daemon::POOL)
    .max(daemon::POOL);
    (0..DAEMON_SESSIONS)
        .map(|session| {
            let entry = |k: usize| {
                seed_base(
                    args.seed,
                    600_000 + 10_000 * session as u64,
                    k * daemon::TESTS,
                )
            };
            let pool: Vec<u64> = (0..daemon::POOL).map(entry).collect();
            let mut fresh = daemon::POOL;
            let timed = (0..n)
                .map(|i| {
                    if i % daemon::FRESH_EVERY == daemon::FRESH_EVERY - 1 {
                        fresh += 1;
                        entry(fresh - 1)
                    } else {
                        pool[i % daemon::POOL]
                    }
                })
                .collect();
            daemon::Session { pool, timed }
        })
        .collect()
}

fn run_daemon(args: &Args) -> Outcome {
    let sessions = daemon_sessions(args);
    let mut problems = Vec::new();
    if args.trace {
        return traced_daemon(args, &sessions, problems);
    }
    // Each session gets a fresh daemon and an empty store; starting it is
    // the session's set-up.
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let harness = layered::Harness {
        targets: std::sync::Arc::new(trx_targets::catalog::all_targets()),
    };
    let (started, steal_before) = (std::time::Instant::now(), steal_ticks());
    for session in &sessions {
        let (daemon, setup_s) = daemon::setup();
        setups.push(setup_s);
        passes.push(daemon::run_pass(&daemon, session, &harness, &Trace::off()));
    }
    report_steal(
        steal_ticks() - steal_before,
        started.elapsed().as_secs_f64(),
    );
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_s.iter().copied())
        .collect();
    // The tail is taken per session (each a daemon lifetime) and the
    // median across sessions reported, so a host stall moves one
    // session's tail, not the run's.
    let tails: Vec<(f64, f64, usize)> = passes.iter().map(|p| tail(&p.latency_s)).collect();
    let tail_s = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let (_, percentile, samples) = tails[0];
    eprintln!(
        "job_ms_tail is the median over {} sessions of each session's p{percentile} of {samples} timed jobs",
        tails.len()
    );
    let jobs = latencies.len().max(1) as f64;
    let total = |f: &dyn Fn(&daemon::DaemonPass) -> f64| passes.iter().map(f).sum::<f64>();
    let (probes_per_bug, reduced_len, delta_median, dup_rate) = daemon::quality(&passes);
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    problems.extend(passes.iter().flat_map(|p| p.problems.iter().cloned()));
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("jobs_per_s", jobs / total(&|p| p.wall_s), "1/s"),
        metric("job_ms_p50", median(&latencies) * 1e3, "ms"),
        metric("job_ms_tail", tail_s * 1e3, "ms"),
        metric("cpu_ms_per_job", total(&|p| p.cpu_s) * 1e3 / jobs, "ms"),
        metric("probes_per_bug", probes_per_bug, "count"),
        metric("reduced_len_mean", reduced_len, "count"),
        metric("delta_instrs_median", delta_median, "count"),
        metric("dup_rate", dup_rate, "ratio"),
        metric(
            "ok_rate",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        // Later sessions start from the memory earlier daemons left with
        // the allocator, so only the first shows one daemon's own peak.
        metric("peak_rss_mb", passes[0].peak_rss_mb, "MB"),
        metric(
            "wal_kb_per_job",
            total(&|p| p.wal_bytes as f64) / 1024.0 / jobs,
            "KB",
        ),
    ];
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

/// The traced daemon run, over the first [`TRACED_SESSIONS`] sessions: each
/// runs untraced, then traced on a fresh daemon, then its jobs are replayed
/// one by one through the layered pipeline with the daemon's job
/// configuration.
///
/// The daemon is opaque to the benchmark, so the session trace has two
/// layers per job: `loadgen` (due time to submission) and `server`
/// (admission to terminal phase, from the daemon's own latency clock). The
/// replay answers what happens inside those jobs: each job sees the
/// signatures earlier jobs of its session reduced as known, as the store
/// answers them (serially, so slightly more of them than two racing
/// shards would).
fn traced_daemon(args: &Args, sessions: &[daemon::Session], mut problems: Vec<String>) -> Outcome {
    let (harness, _) = triage::setup();
    equivalence_sample(&harness, args.seed, &mut problems);
    let session_trace = Trace::on();
    let replay_trace = Trace::on();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut traced = Vec::new();
    let mut replays = Vec::new();
    for session in sessions.iter().take(TRACED_SESSIONS) {
        let (daemon, _) = daemon::setup();
        let untraced = daemon::run_pass(&daemon, session, &harness, &Trace::off());
        untraced_s += untraced.wall_s;
        problems.extend(untraced.problems);
        let (daemon, _) = daemon::setup();
        let pass = daemon::run_pass(&daemon, session, &harness, &session_trace);
        traced_s += pass.wall_s;
        problems.extend(pass.problems.iter().cloned());
        traced.push(pass);
        let configs: Vec<_> = session
            .pool
            .iter()
            .chain(&session.timed)
            .map(|&seed| daemon::job_config(seed))
            .collect();
        let path = Path::Layered(Source::Shallow);
        match triage::run_pass(
            &harness,
            &configs,
            path,
            &replay_trace,
            true,
            true,
            &mut problems,
        ) {
            Ok(replay) => replays.extend(replay.jobs),
            Err(e) => problems.push(format!("replay: {e}")),
        }
    }
    eprintln!("daemon sessions:");
    let session = session_trace.attribution();
    gate_coverage(&session, &mut problems);
    eprintln!("layered replay of the sessions' jobs:");
    let inside = replay_trace.attribution();
    gate_coverage(&inside, &mut problems);

    let replay = Pass {
        jobs: replays,
        wall_s: 0.0,
        cpu_s: 0.0,
        block_peaks_mb: Vec::new(),
    };
    let mut metrics = pipeline_layers(&inside, &replay);
    let server_s: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.server_s.iter().copied())
        .collect();
    let late_s = traced.iter().flat_map(|p| p.late_s.iter().copied());
    metrics.extend([
        metric("server.latency_ms_p50", median(&server_s) * 1e3, "ms"),
        metric(
            "server.queue_depth_max",
            traced.iter().map(|p| p.queue_depth_max).max().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "store.hits",
            traced.iter().map(|p| p.duplicates).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "store.commits",
            traced.iter().map(|p| p.store_commits).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "loadgen.late_ms_max",
            late_s.fold(0.0, f64::max) * 1e3,
            "ms",
        ),
        metric(
            "trace.coverage",
            session.coverage().min(inside.coverage()),
            "ratio",
        ),
        metric("trace.overhead", traced_s / untraced_s - 1.0, "ratio"),
    ]);
    let attempted: u64 = traced.iter().map(|p| p.attempted).sum();
    let failed: u64 = traced.iter().map(|p| p.failed).sum();
    Outcome {
        problems,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn strict_cli_accepts_the_full_form_only() {
        let ok = args(&[
            "--workload",
            "triage-deep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("well-formed");
        assert_eq!(ok.workload, Workload::Deep);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3, true));
        for bad in [
            &["--workload", "triage-deep", "--seed", "7", "--seconds", "3"][..],
            &[
                "--workload",
                "nope",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "triage-deep",
                "--seed",
                "x",
                "--seconds",
                "3",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "triage-deep",
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "triage-deep",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "triage-deep",
                "--seed",
                "7",
                "--seed",
                "8",
                "--seconds",
                "3",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "triage-deep",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "0",
                "--extra",
                "1",
            ],
            &[
                "--workload",
                "triage-deep",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
            ],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
