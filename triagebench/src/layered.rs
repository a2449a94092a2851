//! The layered pipeline: `run_pipeline`'s fresh-start path rebuilt from
//! the harness's public pieces, so every layer call can be wrapped in a
//! span.
//!
//! It mirrors the default configuration exactly — resilient campaign on
//! the executor's worker pool, per-bug reduction with
//! `Reducer::reduce_journaled_seeded` under the wall-clock watchdog,
//! incremental type-set dedup and a JSON-lines journal — and the traced
//! runs check that its report and journal bytes equal `run_pipeline`'s on
//! the same inputs. The one
//! deliberate difference is where a job's tests come from ([`Source`]):
//! deep tests are built by chaining fuzzer rounds, which `run_pipeline`
//! cannot do.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use trx_core::{Context, Transformation};
use trx_dedup::IncrementalDedup;
use trx_fuzzer::{Fuzzer, FuzzerOptions};
use trx_harness::campaign::{module_for_target, try_generate_test, BugSignature, GeneratedTest};
use trx_harness::corpus::donor_modules;
use trx_harness::pipeline::{
    signature_key, CampaignMetrics, DedupMetrics, DuplicateBug, Journal, KnownSignatures,
    PipelineConfig, PipelineMetrics, PipelineReport, ReductionMetrics, TriagedBug, WalMetrics,
    WalRecord,
};
use trx_harness::{
    attempt_classify_cached, supervise_observed, Attempt, CampaignCheckpoint, ErrorLedger,
    ExecutorConfig, FailureKind, HarnessError, LedgerEntry, ReferenceOracle, WatchdogOutcome,
};
use trx_ir::Module;
use trx_observe::{Scope, SinkHandle};
use trx_reducer::{ProbeFault, Reducer, ReductionLog};
use trx_targets::Target;

use crate::trace::Trace;

/// How a job's campaign tests are generated.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `try_generate_test`: one default fuzzer run per test, exactly what
    /// `run_pipeline` does (and regenerated per bug, as it does).
    Shallow,
    /// `rounds` default fuzzer runs chained end to end: each round fuzzes
    /// the previous round's variant and appends its transformations.
    Deep {
        /// Fuzzer rounds per test (1 = shallow).
        rounds: usize,
    },
}

impl Source {
    /// Generates the test for `seed`.
    pub fn generate(
        self,
        config: &PipelineConfig,
        seed: u64,
        donors: &[Module],
    ) -> Result<GeneratedTest, HarnessError> {
        let mut test = try_generate_test(config.tool, seed, donors)?;
        if let Source::Deep { rounds } = self {
            for round in 1..rounds {
                let round_seed = seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let result = Fuzzer::new(FuzzerOptions::default()).run(
                    test.variant.clone(),
                    donors,
                    round_seed,
                );
                test.variant = result.context;
                test.transformations.extend(result.transformations);
            }
        }
        Ok(test)
    }
}

/// The journal as a byte stream: every record is encoded with
/// `Journal::encode_line` (one line plus newline), counted and hashed, so
/// two journals compare by `(records, bytes, hash)` without being kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalDigest {
    /// Records appended.
    pub records: usize,
    /// Probe-granularity records among them.
    pub probe_records: usize,
    /// Bytes written, newlines included.
    pub bytes: usize,
    /// FNV-1a over every written byte.
    pub hash: u64,
}

impl Default for WalDigest {
    fn default() -> Self {
        WalDigest {
            records: 0,
            probe_records: 0,
            bytes: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl WalDigest {
    /// Encodes and appends one record.
    ///
    /// # Panics
    ///
    /// If the record cannot be serialised — the journal types serialise
    /// infallibly, so this is a broken invariant.
    pub fn append(&mut self, record: &WalRecord) {
        let line = Journal::encode_line(record).expect("journal records always serialise");
        if matches!(record, WalRecord::Probe { .. }) {
            self.probe_records += 1;
        }
        self.records += 1;
        self.bytes += line.len() + 1;
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A reduced bug's replay material: the reduced sequence must still
/// trigger `signature` on `target` when applied to `original`.
pub struct Replay {
    /// Index into the target list.
    pub target: usize,
    /// The bug's signature.
    pub signature: BugSignature,
    /// The unreduced original.
    pub original: Context,
    /// The reduced transformation sequence.
    pub sequence: Vec<Transformation>,
    /// Probes of this reduction that got the oracle's "it hangs" answer.
    pub hang_verdicts: u64,
}

/// Work counts of one layered job, measured at the layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Transformations the fuzzer produced for the campaign's tests.
    pub transformations: u64,
    /// `(test, target)` cells the executor resolved.
    pub cells: u64,
    /// Oracle calls (campaign attempts plus reduction probes).
    pub oracle_calls: u64,
    /// Instructions of the variant modules probed during reduction.
    pub probe_instrs: u64,
    /// Reduction probes, each one supervised by the watchdog.
    pub probes: u64,
    /// Probes whose candidate exhausted the interpreter's fuel budget: the
    /// oracle's deterministic "this candidate hangs" answer, which the
    /// reducer journals as a fault and quarantines after its retries.
    pub hang_verdicts: u64,
    /// Transformation applications the reducer performed.
    pub applications: u64,
    /// Prefix-cache lookups and hits during reduction.
    pub cache_lookups: u64,
    /// Lookups that reused a cached transition.
    pub cache_hits: u64,
}

/// Everything one layered job produced.
pub struct JobOutput {
    /// The pipeline report, byte-identical to `run_pipeline`'s.
    pub report: PipelineReport,
    /// The journal digest.
    pub wal: WalDigest,
    /// One entry per reduced bug.
    pub replays: Vec<Replay>,
    /// Layer work counts.
    pub counts: Counts,
    /// Each reduced bug's journaled probe verdicts, by bug index
    /// (`run_pipeline` jobs only; layered jobs carry their replays).
    pub logs: BTreeMap<usize, ReductionLog>,
}

/// Per-run fixed inputs the layered pipeline shares across jobs.
pub struct Harness {
    /// The target catalog, in campaign order.
    pub targets: Arc<Vec<Target>>,
}

/// How one `(test, target)` cell resolved: `executor::resolve_cell`'s
/// shape, rebuilt because the executor keeps it private.
enum Cell {
    Skipped,
    Resolved {
        cell: Option<BugSignature>,
        retries: u32,
        unstable: Option<String>,
        confirm_runs: u32,
    },
    Failed {
        kind: FailureKind,
        attempts: u32,
        backoff_ms: u64,
        message: String,
    },
}

struct Row {
    generation_error: Option<String>,
    cells: Vec<Cell>,
    test: Option<GeneratedTest>,
    transformations: u64,
    oracle_calls: u64,
}

#[allow(clippy::too_many_arguments)]
fn resolve_cell(
    config: &PipelineConfig,
    target: &Target,
    test: &GeneratedTest,
    executor: &ExecutorConfig,
    trace: &Trace,
    parent: Option<usize>,
    oracle_calls: &mut u64,
) -> Cell {
    let oracle = ReferenceOracle::new(config.tool, &test.original);
    let noop = SinkHandle::noop();
    let mut attempt = || {
        *oracle_calls += 1;
        trace.time("oracle", parent, || {
            attempt_classify_cached(
                config.tool,
                target,
                &oracle,
                &test.variant.module,
                &noop,
                Scope::Campaign,
            )
        })
    };
    let max_attempts = 1 + executor.max_retries;
    let mut backoff_ms = 0u64;
    let mut last_failure: Option<(FailureKind, String)> = None;
    for attempt_no in 1..=max_attempts {
        match attempt() {
            Attempt::Signature(first) => {
                let mut cell = first.clone();
                let mut unstable = None;
                let mut confirm_runs = 0u32;
                if matches!(first, Some(BugSignature::Crash(_))) {
                    for run in 1..=executor.crash_confirm_runs {
                        confirm_runs += 1;
                        match attempt() {
                            Attempt::Signature(again) if again == cell => {}
                            Attempt::Signature(again) => {
                                unstable = Some(format!(
                                    "confirmation run {run} observed {:?}, first \
                                     attempt observed {:?}",
                                    again.as_ref().map(ToString::to_string),
                                    cell.as_ref().map(ToString::to_string),
                                ));
                                cell = again;
                            }
                            Attempt::Hang => {
                                unstable = Some(format!(
                                    "confirmation run {run} hit the fuel budget \
                                     instead of reproducing the crash"
                                ));
                            }
                            Attempt::Panicked(message) => {
                                unstable =
                                    Some(format!("confirmation run {run} panicked: {message}"));
                            }
                        }
                    }
                }
                return Cell::Resolved {
                    cell,
                    retries: attempt_no - 1,
                    unstable,
                    confirm_runs,
                };
            }
            Attempt::Hang => {
                last_failure = Some((
                    FailureKind::Hang,
                    "interpreter fuel budget exhausted".into(),
                ));
            }
            Attempt::Panicked(message) => last_failure = Some((FailureKind::Panic, message)),
        }
        if attempt_no < max_attempts {
            backoff_ms += executor.backoff_base_ms << (attempt_no - 1);
        }
    }
    let (kind, message) =
        last_failure.unwrap_or((FailureKind::Panic, "no attempt recorded".to_owned()));
    Cell::Failed {
        kind,
        attempts: max_attempts,
        backoff_ms,
        message,
    }
}

/// Folds one batch row into the checkpoint: `resume_campaign`'s serial
/// fold, ledger order and breaker transitions included.
fn fold_row(state: &mut CampaignCheckpoint, index: usize, row: Row, threshold: u32) {
    let targets = state.target_names.len();
    if let Some(message) = row.generation_error {
        state.ledger.entries.push(LedgerEntry {
            test_index: index,
            target: None,
            kind: FailureKind::GenerationFailed,
            attempts: 1,
            backoff_ms: 0,
            message,
        });
        state.per_test.push(vec![None; targets]);
        state.completed_tests += 1;
        return;
    }
    let mut folded = Vec::with_capacity(targets);
    for (t, cell) in row.cells.into_iter().enumerate() {
        match cell {
            Cell::Skipped => {
                state.skipped_by_quarantine += 1;
                folded.push(None);
            }
            Cell::Resolved {
                cell,
                retries,
                unstable,
                confirm_runs,
            } => {
                state.retries_spent += u64::from(retries);
                state.consecutive_failures[t] = 0;
                if let Some(message) = unstable {
                    state.ledger.entries.push(LedgerEntry {
                        test_index: index,
                        target: Some(state.target_names[t].clone()),
                        kind: FailureKind::UnstableOutcome,
                        attempts: 1 + retries + confirm_runs,
                        backoff_ms: 0,
                        message,
                    });
                }
                folded.push(cell);
            }
            Cell::Failed {
                kind,
                attempts,
                backoff_ms,
                message,
            } => {
                state.retries_spent += u64::from(attempts - 1);
                state.ledger.entries.push(LedgerEntry {
                    test_index: index,
                    target: Some(state.target_names[t].clone()),
                    kind,
                    attempts,
                    backoff_ms,
                    message,
                });
                folded.push(None);
                state.consecutive_failures[t] += 1;
                if state.consecutive_failures[t] >= threshold && state.quarantined_at[t].is_none() {
                    state.quarantined_at[t] = Some(index);
                    state.ledger.entries.push(LedgerEntry {
                        test_index: index,
                        target: Some(state.target_names[t].clone()),
                        kind: FailureKind::Quarantined,
                        attempts: 0,
                        backoff_ms: 0,
                        message: format!(
                            "circuit breaker opened after {} consecutive hard failures",
                            state.consecutive_failures[t]
                        ),
                    });
                }
            }
        }
    }
    state.per_test.push(folded);
    state.completed_tests += 1;
}

/// A bug awaiting reduction: per target in campaign order, the first test
/// index triggering each distinct signature (`pipeline::select_bugs`).
struct PendingBug {
    target_index: usize,
    test_index: usize,
    seed: u64,
    signature: BugSignature,
}

/// Runs one fresh triage job under `job` (the job's root span id). Bugs
/// whose signature `known` already holds are journaled as duplicates and
/// not reduced, as `run_pipeline_with_known` does; an empty map is
/// `run_pipeline`.
///
/// # Errors
///
/// Test-generation errors in the reduction stage, as `run_pipeline`.
pub fn run_layered(
    harness: &Harness,
    config: &PipelineConfig,
    source: Source,
    known: &KnownSignatures,
    trace: &Trace,
    job: Option<usize>,
) -> Result<JobOutput, HarnessError> {
    let tool = config.tool;
    let targets = &harness.targets;
    let mut wal = WalDigest::default();
    let mut counts = Counts::default();
    let append = |wal: &mut WalDigest, record: &WalRecord, parent: Option<usize>| {
        trace.time("wal", parent, || wal.append(record));
    };
    append(
        &mut wal,
        &WalRecord::Start {
            tool: tool.name().to_owned(),
            tests: config.tests,
            seed_base: config.seed_base,
            backend: config.dedup_backend,
        },
        job,
    );

    // Stage 1: the resilient campaign, batch by batch on one worker pool.
    let donors = trace.time("corpus", job, donor_modules);
    let executor = config.executor;
    let threads = if executor.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        executor.threads
    };
    let interval = executor.checkpoint_interval.max(1);
    let mut state = CampaignCheckpoint {
        tool: tool.name().to_owned(),
        seed_base: config.seed_base,
        total_tests: config.tests,
        target_names: targets.iter().map(|t| t.name().to_owned()).collect(),
        completed_tests: 0,
        per_test: Vec::new(),
        ledger: ErrorLedger::default(),
        consecutive_failures: vec![0; targets.len()],
        quarantined_at: vec![None; targets.len()],
        retries_spent: 0,
        skipped_by_quarantine: 0,
    };
    let keep_tests = matches!(source, Source::Deep { .. });
    let mut kept_tests: Vec<Option<GeneratedTest>> = Vec::new();
    // The campaign span covers the pool's spawn and join too: the executor
    // starts one pool per campaign.
    let campaign_span = trace.enter("executor", job);
    let campaign_id = campaign_span.id();
    trx_pool::with_pool(threads, |pool| {
        while state.completed_tests < config.tests {
            let batch_span = trace.enter("executor", campaign_id);
            let batch_id = batch_span.id();
            let start = state.completed_tests;
            let batch = interval.min(config.tests - start);
            let quarantined: Arc<Vec<bool>> =
                Arc::new(state.quarantined_at.iter().map(Option::is_some).collect());
            let rows: Vec<Row> = {
                let donors = &donors;
                pool.map(batch, move |offset| {
                    let row_span = trace.enter("executor", batch_id);
                    let row_id = row_span.id();
                    let seed = config.seed_base + (start + offset) as u64;
                    let generated =
                        trace.time("fuzzer", row_id, || source.generate(config, seed, donors));
                    let test = match generated {
                        Ok(test) => test,
                        Err(e) => {
                            return Row {
                                generation_error: Some(e.to_string()),
                                cells: Vec::new(),
                                test: None,
                                transformations: 0,
                                oracle_calls: 0,
                            };
                        }
                    };
                    let mut oracle_calls = 0;
                    let cells = targets
                        .iter()
                        .zip(quarantined.iter())
                        .map(|(target, &skip)| {
                            if skip {
                                Cell::Skipped
                            } else {
                                resolve_cell(
                                    config,
                                    target,
                                    &test,
                                    &executor,
                                    trace,
                                    row_id,
                                    &mut oracle_calls,
                                )
                            }
                        })
                        .collect();
                    let transformations = test.transformations.len() as u64;
                    Row {
                        generation_error: None,
                        cells,
                        test: keep_tests.then_some(test),
                        transformations,
                        oracle_calls,
                    }
                })
            };
            for (offset, mut row) in rows.into_iter().enumerate() {
                counts.transformations += row.transformations;
                counts.cells += row.cells.len() as u64;
                counts.oracle_calls += row.oracle_calls;
                kept_tests.push(row.test.take());
                fold_row(
                    &mut state,
                    start + offset,
                    row,
                    executor.quarantine_threshold,
                );
            }
            append(&mut wal, &WalRecord::Campaign(state.clone()), batch_id);
        }
    });
    drop(campaign_span);

    // Stage 2: the deterministic bug list.
    let mut bugs = Vec::new();
    for t in 0..targets.len() {
        let mut seen: BTreeSet<&BugSignature> = BTreeSet::new();
        for (i, row) in state.per_test.iter().enumerate() {
            if let Some(signature) = &row[t] {
                if seen.insert(signature) {
                    bugs.push(PendingBug {
                        target_index: t,
                        test_index: i,
                        seed: config.seed_base + i as u64,
                        signature: signature.clone(),
                    });
                }
            }
        }
    }

    // Stages 3 and 4: reduce each bug, fold it into the incremental dedup.
    let donors = trace.time("corpus", job, donor_modules);
    let noop = SinkHandle::noop();
    let mut dedup = IncrementalDedup::new();
    let mut summaries = Vec::with_capacity(bugs.len());
    let mut replays = Vec::with_capacity(bugs.len());
    let mut duplicates = Vec::new();
    for (bug_index, bug) in bugs.iter().enumerate() {
        let target = targets[bug.target_index].name();
        let key = signature_key(target, &bug.signature);
        if trace.time("dedup", job, || known.contains_key(&key)) {
            append(
                &mut wal,
                &WalRecord::Duplicate {
                    bug: bug_index,
                    key: key.clone(),
                },
                job,
            );
            duplicates.push(DuplicateBug {
                target: target.to_owned(),
                test_index: bug.test_index,
                seed: bug.seed,
                signature: bug.signature.clone(),
                key,
            });
            continue;
        }
        let test = match kept_tests.get(bug.test_index).and_then(Option::as_ref) {
            Some(test) => test.clone(),
            None => trace.time("fuzzer", job, || source.generate(config, bug.seed, &donors))?,
        };
        let reducer_span = trace.enter("reducer", job);
        let reducer_id = reducer_span.id();
        let original = test.original.clone();
        let original_count = module_for_target(tool, &original.module).instruction_count();
        let scope = Scope::Reduction(bug_index);
        let reference = Arc::new(ReferenceOracle::new(tool, &original));
        let watchdog = config.watchdog;
        let signature = bug.signature.clone();
        let mut probes = 0u64;
        let mut hang_verdicts = 0u64;
        let mut probe_instrs = 0u64;
        let probe = |variant: &Context| -> Result<bool, ProbeFault> {
            probes += 1;
            probe_instrs += variant.module.instruction_count() as u64;
            let probe_span = trace.enter("watchdog", reducer_id);
            let probe_id = probe_span.id();
            let targets = Arc::clone(targets);
            let reference = Arc::clone(&reference);
            let variant_module = variant.module.clone();
            let body_trace = trace.clone();
            let target_index = bug.target_index;
            let outcome = supervise_observed(watchdog, &noop, scope, move || {
                body_trace.time("oracle", probe_id, || {
                    attempt_classify_cached(
                        tool,
                        &targets[target_index],
                        &reference,
                        &variant_module,
                        &SinkHandle::noop(),
                        scope,
                    )
                })
            });
            drop(probe_span);
            match outcome {
                WatchdogOutcome::Completed(Attempt::Signature(found)) => {
                    Ok(found.as_ref() == Some(&signature))
                }
                WatchdogOutcome::Completed(Attempt::Hang) => {
                    hang_verdicts += 1;
                    Err(ProbeFault("interpreter fuel budget exhausted".to_owned()))
                }
                WatchdogOutcome::Completed(Attempt::Panicked(message))
                | WatchdogOutcome::Panicked(message) => Err(ProbeFault(message)),
                WatchdogOutcome::TimedOut { deadline_ms } => Err(ProbeFault(format!(
                    "watchdog deadline of {deadline_ms} ms exceeded"
                ))),
            }
        };
        let journaled = Reducer::new(config.reducer)
            .with_sink(noop.clone(), scope)
            .reduce_journaled_seeded(
                &original,
                &test.transformations,
                &test.variant,
                &ReductionLog::new(),
                probe,
                |_, record| {
                    append(
                        &mut wal,
                        &WalRecord::Probe {
                            bug: bug_index,
                            record,
                        },
                        reducer_id,
                    )
                },
            );
        let reduction = journaled.reduction;
        let reduced_count = module_for_target(tool, &reduction.context.module).instruction_count();
        drop(reducer_span);
        counts.probes += probes;
        counts.hang_verdicts += hang_verdicts;
        counts.oracle_calls += probes;
        counts.probe_instrs += probe_instrs;
        counts.applications += reduction.engine.cache.transformations_applied;
        counts.cache_lookups += reduction.engine.cache.lookups;
        counts.cache_hits += reduction.engine.cache.hits;
        let kinds = trace.time("dedup", job, || {
            trx_dedup::interesting_types_observed(&reduction.sequence, &noop, Scope::Dedup)
        });
        let summary = TriagedBug {
            target: targets[bug.target_index].name().to_owned(),
            test_index: bug.test_index,
            seed: bug.seed,
            signature: bug.signature.clone(),
            reduced_length: reduction.sequence.len(),
            delta_instructions: reduced_count.abs_diff(original_count),
            kinds,
            stats: reduction.stats,
            dedup_key: None,
        };
        append(
            &mut wal,
            &WalRecord::ReductionDone {
                bug: bug_index,
                summary: summary.clone(),
            },
            job,
        );
        let arrival = trace.time("dedup", job, || {
            dedup.observe_with_sink(summary.kinds.clone(), &noop, Scope::Dedup)
        });
        append(
            &mut wal,
            &WalRecord::DedupObserved {
                bug: bug_index,
                arrival,
            },
            job,
        );
        replays.push(Replay {
            target: bug.target_index,
            signature: bug.signature.clone(),
            original,
            sequence: reduction.sequence,
            hang_verdicts,
        });
        summaries.push(summary);
    }
    let kept = trace.time("dedup", job, || {
        dedup.recommend_with_sink(&noop, Scope::Dedup)
    });
    append(&mut wal, &WalRecord::Verdict { kept: kept.clone() }, job);

    let quarantined: Vec<(String, usize)> = state
        .quarantined_at
        .iter()
        .enumerate()
        .filter_map(|(t, at)| at.map(|index| (state.target_names[t].clone(), index)))
        .collect();
    let metrics = PipelineMetrics {
        campaign: CampaignMetrics {
            incidents: state.ledger.len(),
            retries: state.retries_spent,
            quarantined_targets: quarantined.len(),
            tests_completed: state.completed_tests,
            skipped_by_quarantine: state.skipped_by_quarantine,
        },
        reduction: ReductionMetrics {
            bugs_triaged: summaries.len(),
            tests_run: summaries.iter().map(|b| b.stats.tests_run).sum(),
            chunks_removed: summaries.iter().map(|b| b.stats.chunks_removed).sum(),
            payload_instructions_removed: summaries
                .iter()
                .map(|b| b.stats.payload_instructions_removed)
                .sum(),
            probe_faults: summaries.iter().map(|b| b.stats.probe_faults).sum(),
            poisoned_queries: summaries.iter().map(|b| b.stats.poisoned_queries).sum(),
        },
        dedup: DedupMetrics {
            sets_observed: summaries.len(),
            empty_sets: summaries.iter().filter(|b| b.kinds.is_empty()).count(),
            kept: kept.len(),
            cross_job_duplicates: duplicates.len(),
        },
        wal: WalMetrics {
            records: wal.records,
            probe_records: wal.probe_records,
        },
    };
    let report = PipelineReport {
        tool: tool.name().to_owned(),
        tests: config.tests,
        seed_base: config.seed_base,
        tests_completed: state.completed_tests,
        incidents: state.ledger.len(),
        quarantined,
        bugs: summaries,
        duplicates,
        kept,
        metrics,
    };
    Ok(JobOutput {
        report,
        wal,
        replays,
        counts,
        logs: BTreeMap::new(),
    })
}
