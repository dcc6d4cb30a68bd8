//! Soft-error fault tolerance of the MEMO-TABLE (robustness study).
//!
//! The paper assumes the memo SRAM is perfect: a hit is served verbatim.
//! A particle strike that flips a stored result bit breaks exactly the
//! property the whole design rests on — bit-exact transparency — and does
//! so *silently*, because the conventional unit never recomputes a hit.
//!
//! This module quantifies that exposure and the cost of closing it:
//!
//! * [`sweep`] — fault rate × [`Protection`] policy over the MM and
//!   scientific suites, reporting end-to-end silent-data-corruption (SDC)
//!   rates, hit ratios, and the injector/detector counters;
//! * [`protection_speedups`] — how much of the memoization speedup each
//!   policy retains once its per-hit cycle charge is accounted;
//! * [`breaker_demo`] — the circuit breaker taking a faulty table slot
//!   offline after repeated detections (graceful degradation to the
//!   conventional unit);
//! * [`check_transparency`] — the differential checker: every MM kernel
//!   re-run with table-served arithmetic must produce a bit-identical
//!   image, and every scientific kernel's served values must match native
//!   computation op-for-op, whenever injection is disabled.

use memo_sim::{
    CpuModel, CycleAccountant, Event, EventSink, MemoBank, MemoizedSink, MemoryHierarchy,
    NullSink, OpTrace,
};
use memo_table::{
    FaultConfig, FaultInjector, MemoConfig, MemoStats, MemoTable, Memoizer, OpKind, Protection,
};
use memo_workloads::mm::MmApp;
use memo_workloads::sci::SciApp;
use memo_workloads::{mm, sci};

use crate::error::find_mm;
use crate::format::{ratio, TextTable};
use crate::{parallel, traces, ExpConfig, ExperimentError};

/// The operation kinds memoized throughout the fault studies.
pub const MEMO_KINDS: [OpKind; 4] =
    [OpKind::IntMul, OpKind::FpMul, OpKind::FpDiv, OpKind::FpSqrt];

/// Per-lookup single-bit upset probabilities swept by [`sweep`]. Vastly
/// above any physical rate, deliberately: the point is to separate the
/// policies, not to model a particular altitude.
pub const FAULT_RATES: [f64; 3] = [0.0, 0.01, 0.1];

/// Division-heavy applications used for the speedup-retention study.
pub const SPEEDUP_SAMPLE: [&str; 3] = ["vspatial", "vgauss", "vgpwl"];

/// Human label for a protection policy.
#[must_use]
pub fn protection_label(p: Protection) -> String {
    match p {
        Protection::None => "none".to_string(),
        Protection::ParityDetect => "parity".to_string(),
        Protection::EccSecDed => "ecc sec-ded".to_string(),
        Protection::VerifyOnHit { verify_cycles } => format!("verify({verify_cycles}c)"),
    }
}

fn protected_config(protection: Protection) -> MemoConfig {
    // 32-entry 4-way is the paper's default geometry; always valid.
    MemoConfig::builder(32).protection(protection).build().expect("32/4 is valid")
}

/// The protected table [`faulty_bank`] puts in slot `slot` of
/// [`MEMO_KINDS`]. The injector seed is split per slot, so the streams are
/// independent but replayable; every table of a bank or of a lockstep
/// sweep unit comes from here, so the two cannot drift apart.
fn faulty_table(protection: Protection, rate: f64, seed: u64, slot: usize) -> MemoTable {
    let fault_cfg = if rate > 0.0 {
        let split = 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(slot as u64 + 1);
        FaultConfig::single_bit(seed ^ split, rate)
    } else {
        FaultConfig::disabled()
    };
    MemoTable::new(protected_config(protection)).with_fault_injector(FaultInjector::new(fault_cfg))
}

/// Build a bank of protected tables, one per kind in [`MEMO_KINDS`], each
/// with its own deterministic injector stream.
#[must_use]
pub fn faulty_bank(protection: Protection, rate: f64, seed: u64) -> MemoBank {
    MEMO_KINDS.iter().enumerate().fold(MemoBank::none(), |bank, (slot, &kind)| {
        bank.with_table(kind, faulty_table(protection, rate, seed, slot))
    })
}

// ---------------------------------------------------------------------------
// DiffSink — the differential observer
// ---------------------------------------------------------------------------

/// An [`EventSink`] that executes every multi-cycle operation twice — once
/// through a memo bank, once natively — and counts bit-level divergence.
/// The kernel always consumes the native result, so its control flow never
/// depends on (possibly corrupted) table output: the sink is a pure
/// observer of end-to-end silent corruption.
#[derive(Debug)]
pub struct DiffSink {
    bank: MemoBank,
    served: u64,
    mismatches: u64,
}

impl DiffSink {
    /// Wrap a bank.
    #[must_use]
    pub fn new(bank: MemoBank) -> Self {
        DiffSink { bank, served: 0, mismatches: 0 }
    }

    /// Operations compared so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Operations whose table-served value differed from native.
    #[must_use]
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// The bank (for fault statistics).
    #[must_use]
    pub fn bank(&self) -> &MemoBank {
        &self.bank
    }

    /// Tear down the sink and keep the bank.
    #[must_use]
    pub fn into_bank(self) -> MemoBank {
        self.bank
    }
}

impl EventSink for DiffSink {
    fn record(&mut self, event: Event) {
        if let Event::Arith(op) = event {
            self.served += 1;
            if self.bank.execute(op).value != op.compute() {
                self.mismatches += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fault-rate × protection sweep
// ---------------------------------------------------------------------------

/// One (protection, fault-rate) cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultCell {
    /// Table protection policy.
    pub protection: Protection,
    /// Per-lookup single-bit upset probability.
    pub fault_rate: f64,
    /// End-to-end SDC rate: served operations whose value diverged from
    /// native computation, over all served operations.
    pub sdc_rate: f64,
    /// Pooled hit ratio across the memoized kinds (hits / lookups).
    pub hit_ratio: f64,
    /// Bit flips the injector planted.
    pub faults_injected: u64,
    /// Corrupted hits the policy detected (entry invalidated, miss).
    pub faults_detected: u64,
    /// Corrupted hits ECC repaired in place.
    pub faults_corrected: u64,
    /// Corrupted hits served to the consumer unnoticed.
    pub faults_silent: u64,
}

/// Pool per-kind table statistics and divergence counts into one cell.
fn cell_from_counts(
    protection: Protection,
    rate: f64,
    served: u64,
    mismatches: u64,
    stats: impl IntoIterator<Item = MemoStats>,
) -> FaultCell {
    let mut hits = 0;
    let mut lookups = 0;
    let (mut inj, mut det, mut corr, mut silent) = (0, 0, 0, 0);
    for s in stats {
        hits += s.table_hits;
        lookups += s.table_lookups;
        inj += s.faults_injected;
        det += s.faults_detected;
        corr += s.faults_corrected;
        silent += s.faults_silent;
    }
    FaultCell {
        protection,
        fault_rate: rate,
        sdc_rate: if served == 0 { 0.0 } else { mismatches as f64 / served as f64 },
        hit_ratio: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        faults_injected: inj,
        faults_detected: det,
        faults_corrected: corr,
        faults_silent: silent,
    }
}

/// Visit every recorded trace of both suites — recorded once,
/// process-wide — in the order the native loops ran them: MM apps over
/// the corpus, then the scientific suites.
fn for_each_suite_trace(cfg: ExpConfig, mut f: impl FnMut(&OpTrace)) {
    for app in &mm::apps() {
        for trace in traces::mm_traces(cfg, app).iter() {
            f(trace);
        }
    }
    for app in &sci::all_apps() {
        f(&traces::sci_trace(cfg, app));
    }
}

/// Replay both suites into `sink` in native order. The [`DiffSink`] only
/// observes arithmetic events, so an operand-trace replay reproduces its
/// counters exactly.
fn replay_suites(cfg: ExpConfig, sink: &mut impl EventSink) {
    for_each_suite_trace(cfg, |trace| trace.replay_events(sink));
}

/// Injector seed of every sweep cell.
const SWEEP_SEED: u64 = 0xFA17;

/// The sweep's memoized kinds, largest share of the recorded ops first,
/// so the longest lockstep units start first on the task pool.
const SWEEP_KIND_ORDER: [OpKind; 4] =
    [OpKind::FpMul, OpKind::IntMul, OpKind::FpDiv, OpKind::FpSqrt];

/// One lockstep unit of the sweep: every fault-rate table of one
/// (memoized kind, protection policy) pair, fed the kind's operations in
/// a single pass.
#[derive(Debug, Clone)]
struct SweepUnit {
    kind: OpKind,
    protection: Protection,
    rates: Vec<f64>,
}

/// What one unit measured: how many operations of its kind were served,
/// and per rate the table's statistics and how many served values
/// diverged from native computation.
#[derive(Debug)]
struct UnitCounts {
    served: u64,
    tables: Vec<(MemoStats, u64)>,
}

/// The sweep's units. At rate 0 the injector is disabled and every
/// policy's read path is a no-op on clean entries — parity always passes,
/// ECC never corrects, verification always matches — so the four clean
/// cells are provably identical and the `none` units carry the one
/// shared rate-0 table.
fn sweep_units() -> Vec<SweepUnit> {
    let faulty: Vec<f64> = FAULT_RATES.iter().copied().filter(|&rate| rate > 0.0).collect();
    let mut units = Vec::with_capacity(MEMO_KINDS.len() * Protection::ALL.len());
    for kind in SWEEP_KIND_ORDER {
        for protection in Protection::ALL {
            let rates =
                if protection == Protection::None { FAULT_RATES.to_vec() } else { faulty.clone() };
            units.push(SweepUnit { kind, protection, rates });
        }
    }
    units
}

/// Walk the unit's kind once over both suites, computing each native
/// value once and driving every rate table with it. Each kind has its own
/// table and injector stream, so every table sees exactly the operations,
/// in exactly the order, that the per-cell bank replay gave it.
fn run_unit(cfg: ExpConfig, unit: &SweepUnit) -> UnitCounts {
    let slot = MEMO_KINDS.iter().position(|&k| k == unit.kind).expect("a memoized kind");
    let mut tables: Vec<(MemoTable, u64)> = unit
        .rates
        .iter()
        .map(|&rate| (faulty_table(unit.protection, rate, SWEEP_SEED, slot), 0))
        .collect();
    let mut served = 0;
    for_each_suite_trace(cfg, |trace| {
        trace.for_each_kind(unit.kind, |op| {
            served += 1;
            let native = op.compute();
            for (table, mismatches) in &mut tables {
                if table.execute(op).value != native {
                    *mismatches += 1;
                }
            }
        });
    });
    UnitCounts { served, tables: tables.into_iter().map(|(t, m)| (t.stats(), m)).collect() }
}

/// Pool the units' counts into the sweep's cells, policy-major then rate.
fn sweep_cells(units: &[SweepUnit], counts: &[UnitCounts]) -> Vec<FaultCell> {
    let mut out = Vec::with_capacity(Protection::ALL.len() * FAULT_RATES.len());
    for &protection in &Protection::ALL {
        for &rate in &FAULT_RATES {
            // Every clean cell is the shared `none` rate-0 cell.
            let source = if rate > 0.0 { protection } else { Protection::None };
            let (mut served, mut mismatches, mut stats) = (0, 0, Vec::new());
            for (unit, counts) in units.iter().zip(counts) {
                if unit.protection != source {
                    continue;
                }
                let i = unit.rates.iter().position(|&r| r == rate).expect("unit carries the rate");
                served += counts.served;
                mismatches += counts.tables[i].1;
                stats.push(counts.tables[i].0);
            }
            out.push(cell_from_counts(protection, rate, served, mismatches, stats));
        }
    }
    out
}

/// Sweep fault rate × protection policy over the full MM corpus and the
/// scientific suites, measuring end-to-end SDC and hit-ratio impact.
///
/// The shared recordings are walked once per (kind, policy) unit, not
/// once per cell: the unit drives all of its policy's rate tables in
/// lockstep (see [`run_unit`]).
#[must_use]
pub fn sweep(cfg: ExpConfig) -> Vec<FaultCell> {
    let units = sweep_units();
    let counts = parallel::par_map(units.clone(), |unit| run_unit(cfg, &unit));
    sweep_cells(&units, &counts)
}

// ---------------------------------------------------------------------------
// Speedup retained under protection
// ---------------------------------------------------------------------------

/// Speedup of the division-heavy sample under one protection policy.
#[derive(Debug, Clone, Copy)]
pub struct ProtectionSpeedup {
    /// The policy.
    pub protection: Protection,
    /// Mean measured speedup over [`SPEEDUP_SAMPLE`] (39-cycle divider).
    pub speedup: f64,
}

/// The [`SPEEDUP_SAMPLE`] applications.
fn speedup_apps() -> Result<Vec<MmApp>, ExperimentError> {
    SPEEDUP_SAMPLE.iter().map(|name| find_mm(name)).collect()
}

/// Cycle totals of one sample application on clean unprotected tables.
#[derive(Debug, Clone, Copy)]
struct AppCycles {
    baseline: u64,
    memoized: u64,
    table_hits: u64,
}

fn app_cycles(cfg: ExpConfig, app: &MmApp) -> AppCycles {
    let mut acc = CycleAccountant::new(
        CpuModel::paper_slow(),
        MemoryHierarchy::typical_1997(),
        faulty_bank(Protection::None, 0.0, 0),
    );
    traces::mm_event_trace(cfg, app).replay_into(&mut acc);
    let table_hits = MEMO_KINDS
        .iter()
        .filter_map(|&k| acc.bank().stats(k))
        .map(|s| s.table_hits)
        .sum();
    let report = acc.report();
    AppCycles {
        baseline: report.baseline().total(),
        memoized: report.memoized().total(),
        table_hits,
    }
}

fn speedups_from(measured: &[AppCycles]) -> Vec<ProtectionSpeedup> {
    Protection::ALL
        .iter()
        .map(|&protection| {
            let penalty = u64::from(protection.hit_penalty());
            let total: f64 = measured
                .iter()
                .map(|c| c.baseline as f64 / (c.memoized + c.table_hits * penalty) as f64)
                .sum();
            ProtectionSpeedup { protection, speedup: total / SPEEDUP_SAMPLE.len() as f64 }
        })
        .collect()
}

/// Measure how much of the memoization speedup survives each policy's
/// per-hit cycle charge (clean tables — the cost is the read-path logic,
/// not the faults).
///
/// On clean tables a policy changes *only* the per-hit cycle charge
/// ([`Protection::hit_penalty`]) — the hit pattern itself is identical,
/// since parity always passes, ECC never corrects, and verification
/// always matches. One unprotected replay per application therefore
/// yields every policy's cycle count exactly: the protected machine's
/// total is the unprotected total plus `table hits × penalty`.
///
/// # Errors
///
/// Fails if a [`SPEEDUP_SAMPLE`] name is missing from the registry.
pub fn protection_speedups(cfg: ExpConfig) -> Result<Vec<ProtectionSpeedup>, ExperimentError> {
    let measured = parallel::par_map(speedup_apps()?, |app| app_cycles(cfg, &app));
    Ok(speedups_from(&measured))
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Outcome of the circuit-breaker demonstration.
#[derive(Debug, Clone, Copy)]
pub struct BreakerDemo {
    /// Detections required to trip a slot.
    pub threshold: u64,
    /// How many of the four table slots tripped.
    pub tripped_slots: usize,
    /// Total detections across the bank when the run ended.
    pub faults_detected: u64,
}

/// Drive parity-protected tables at an unrealistically hostile fault rate
/// behind a circuit breaker: every slot should exceed the detection
/// threshold and be taken offline, degrading to the conventional unit.
#[must_use]
pub fn breaker_demo(cfg: ExpConfig) -> BreakerDemo {
    let threshold = 8;
    let bank = faulty_bank(Protection::ParityDetect, 0.5, 0xB2EA).with_circuit_breaker(threshold);
    let mut sink = DiffSink::new(bank);
    replay_suites(cfg, &mut sink);
    let bank = sink.into_bank();
    let tripped = MEMO_KINDS.iter().filter(|&&k| bank.breaker_tripped(k)).count();
    let detected = MEMO_KINDS
        .iter()
        .filter_map(|&k| bank.stats(k))
        .map(|s| s.faults_detected)
        .sum();
    BreakerDemo { threshold, tripped_slots: tripped, faults_detected: detected }
}

// ---------------------------------------------------------------------------
// Differential transparency
// ---------------------------------------------------------------------------

/// What the differential checker covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransparencyReport {
    /// MM kernels whose output images were bit-compared.
    pub mm_apps: usize,
    /// Scientific kernels whose served values were op-compared.
    pub sci_apps: usize,
    /// Total operations served through tables during the check.
    pub ops_compared: u64,
}

/// One kernel of the differential transparency check.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Mm(MmApp),
    Sci(SciApp),
}

fn transparency_kernels() -> Vec<Kernel> {
    let mm = mm::apps().into_iter().map(Kernel::Mm);
    mm.chain(sci::all_apps().into_iter().map(Kernel::Sci)).collect()
}

/// Check one kernel; the report counts just that kernel.
fn check_kernel(cfg: ExpConfig, kernel: Kernel) -> Result<TransparencyReport, ExperimentError> {
    let mut report = TransparencyReport::default();
    match kernel {
        Kernel::Mm(app) => {
            let corpus = traces::corpus(cfg.image_scale);
            for (protection, c) in Protection::ALL.iter().cycle().zip(corpus.iter()) {
                let expected = app.run(&mut NullSink, &c.image);
                let mut memo = MemoizedSink::new(faulty_bank(*protection, 0.0, 0));
                let got = app.run(&mut memo, &c.image);
                if expected != got {
                    return Err(ExperimentError::Transparency {
                        app: app.name.to_string(),
                        detail: format!(
                            "memoized output image differs from native under {} protection",
                            protection_label(*protection)
                        ),
                    });
                }
                report.ops_compared += MEMO_KINDS
                    .iter()
                    .filter_map(|&k| memo.bank().stats(k))
                    .map(|s| s.ops_seen)
                    .sum::<u64>();
            }
            report.mm_apps = 1;
        }
        Kernel::Sci(app) => {
            let mut diff = DiffSink::new(faulty_bank(Protection::EccSecDed, 0.0, 0));
            app.run(&mut diff, cfg.sci_n);
            if diff.mismatches() > 0 {
                return Err(ExperimentError::Transparency {
                    app: app.name.to_string(),
                    detail: format!(
                        "{} of {} served values diverged from native computation",
                        diff.mismatches(),
                        diff.served()
                    ),
                });
            }
            report.ops_compared = diff.served();
            report.sci_apps = 1;
        }
    }
    Ok(report)
}

/// Sum per-kernel reports in kernel order; the first failure wins.
fn merge_checks(
    checks: impl IntoIterator<Item = Result<TransparencyReport, ExperimentError>>,
) -> Result<TransparencyReport, ExperimentError> {
    checks.into_iter().try_fold(TransparencyReport::default(), |sum, check| {
        let r = check?;
        Ok(TransparencyReport {
            mm_apps: sum.mm_apps + r.mm_apps,
            sci_apps: sum.sci_apps + r.sci_apps,
            ops_compared: sum.ops_compared + r.ops_compared,
        })
    })
}

/// The differential transparency checker. With injection disabled, every
/// MM kernel must produce a bit-identical output image when its arithmetic
/// is served by memo tables, and every scientific kernel's served values
/// must match native computation op-for-op — under every protection
/// policy's read path (the ECC corrector and parity checker must be
/// no-ops on clean entries).
///
/// # Errors
///
/// Returns [`ExperimentError::Transparency`] naming the first diverging
/// kernel (MM kernels in registry order, then the scientific ones).
pub fn check_transparency(cfg: ExpConfig) -> Result<TransparencyReport, ExperimentError> {
    merge_checks(parallel::par_map(transparency_kernels(), |kernel| check_kernel(cfg, kernel)))
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// One task of the study's shared pool.
enum Job {
    Sweep(SweepUnit),
    Breaker,
    Speedup(MmApp),
    Check(Kernel),
}

/// A finished [`Job`].
enum Done {
    Sweep(UnitCounts),
    Breaker(BreakerDemo),
    Speedup(AppCycles),
    Check(Result<TransparencyReport, ExperimentError>),
}

/// Render the full fault-tolerance report.
///
/// Every phase — the sweep's lockstep units (longest first), the breaker
/// demo, the speedup sample and one transparency check per kernel — runs
/// as one task on a single [`parallel::par_map`] pool, so no phase waits
/// for another's stragglers. The report is then assembled in its fixed
/// order from the input-ordered results.
///
/// # Errors
///
/// Fails if a sampled app is unregistered or transparency is violated.
pub fn render(cfg: ExpConfig) -> Result<String, ExperimentError> {
    let units = sweep_units();
    let mut jobs: Vec<Job> = units.iter().cloned().map(Job::Sweep).collect();
    jobs.push(Job::Breaker);
    jobs.extend(speedup_apps()?.into_iter().map(Job::Speedup));
    jobs.extend(transparency_kernels().into_iter().map(Job::Check));

    let done = parallel::par_map(jobs, |job| match job {
        Job::Sweep(unit) => Done::Sweep(run_unit(cfg, &unit)),
        Job::Breaker => Done::Breaker(breaker_demo(cfg)),
        Job::Speedup(app) => Done::Speedup(app_cycles(cfg, &app)),
        Job::Check(kernel) => Done::Check(check_kernel(cfg, kernel)),
    });
    let (mut counts, mut cycles, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut breaker = None;
    for d in done {
        match d {
            Done::Sweep(c) => counts.push(c),
            Done::Breaker(b) => breaker = Some(b),
            Done::Speedup(c) => cycles.push(c),
            Done::Check(r) => checks.push(r),
        }
    }
    let b = breaker.expect("the pool ran the breaker demo");

    let mut out = String::from(
        "Fault tolerance: single-bit soft errors in the MEMO-TABLE SRAM\n\
         (injection rates are per lookup, far above physical rates, to\n\
         separate the policies; all streams are deterministic)\n\n",
    );

    let mut t = TextTable::new(&[
        "protection",
        "fault rate",
        "hit",
        "SDC rate",
        "injected",
        "detected",
        "corrected",
        "silent",
    ]);
    for cell in sweep_cells(&units, &counts) {
        t.row(vec![
            protection_label(cell.protection),
            format!("{:.3}", cell.fault_rate),
            ratio(Some(cell.hit_ratio)),
            format!("{:.5}", cell.sdc_rate),
            cell.faults_injected.to_string(),
            cell.faults_detected.to_string(),
            cell.faults_corrected.to_string(),
            cell.faults_silent.to_string(),
        ]);
    }
    out.push_str(&format!("SDC sweep (MM corpus + scientific suites)\n{}\n", t.render()));

    let mut t = TextTable::new(&["protection", "speedup retained (39c divider)"]);
    for p in speedups_from(&cycles) {
        t.row(vec![protection_label(p.protection), format!("{:.3}x", p.speedup)]);
    }
    out.push_str(&format!(
        "Cost of protection (clean tables, division-heavy sample)\n{}\n",
        t.render()
    ));

    out.push_str(&format!(
        "Circuit breaker: {}/{} slots taken offline after {} detections \
         (threshold {} per slot)\n\n",
        b.tripped_slots,
        MEMO_KINDS.len(),
        b.faults_detected,
        b.threshold,
    ));

    let tr = merge_checks(checks)?;
    out.push_str(&format!(
        "Differential transparency: {} MM kernels bit-identical, {} scientific \
         kernels op-identical ({} table-served operations compared)\n",
        tr.mm_apps, tr.sci_apps, tr.ops_compared,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled_cell(protection: Protection, rate: f64, sink: &DiffSink) -> FaultCell {
        let stats = MEMO_KINDS.iter().filter_map(|&k| sink.bank().stats(k));
        cell_from_counts(protection, rate, sink.served(), sink.mismatches(), stats)
    }

    fn run_sample(sink: &mut DiffSink) {
        let cfg = ExpConfig::quick();
        for name in SPEEDUP_SAMPLE {
            let app = mm::find(name).expect("sample registered");
            for trace in traces::mm_traces(cfg, &app).iter() {
                trace.replay_events(sink);
            }
        }
    }

    #[test]
    fn unprotected_tables_suffer_silent_corruption() {
        let mut sink = DiffSink::new(faulty_bank(Protection::None, 0.1, 3));
        run_sample(&mut sink);
        assert!(sink.mismatches() > 0, "faults must reach the consumer");
        let cell = pooled_cell(Protection::None, 0.1, &sink);
        assert!(cell.sdc_rate > 0.0);
        assert!(cell.faults_silent > 0);
        assert_eq!(cell.faults_detected, 0, "no detector fitted");
    }

    #[test]
    fn parity_and_ecc_stop_single_bit_sdc() {
        for protection in [Protection::ParityDetect, Protection::EccSecDed] {
            let mut sink = DiffSink::new(faulty_bank(protection, 0.1, 3));
            run_sample(&mut sink);
            assert_eq!(
                sink.mismatches(),
                0,
                "{} must stop single-bit SDC",
                protection_label(protection)
            );
            let cell = pooled_cell(protection, 0.1, &sink);
            assert!(cell.faults_injected > 0, "the injector must have fired");
            assert!(
                cell.faults_detected + cell.faults_corrected > 0,
                "the policy must have acted"
            );
            assert_eq!(cell.faults_silent, 0);
        }
    }

    #[test]
    fn ecc_keeps_more_hits_than_parity() {
        // Parity downgrades every detected fault to a miss; ECC repairs it
        // and keeps the hit. Same injector seed, same stream.
        let mut parity = DiffSink::new(faulty_bank(Protection::ParityDetect, 0.1, 3));
        run_sample(&mut parity);
        let mut ecc = DiffSink::new(faulty_bank(Protection::EccSecDed, 0.1, 3));
        run_sample(&mut ecc);
        let p = pooled_cell(Protection::ParityDetect, 0.1, &parity);
        let e = pooled_cell(Protection::EccSecDed, 0.1, &ecc);
        assert!(e.faults_corrected > 0);
        assert!(
            e.hit_ratio >= p.hit_ratio,
            "ecc {} vs parity {}",
            e.hit_ratio,
            p.hit_ratio
        );
    }

    #[test]
    fn verification_cycles_tax_the_speedup() {
        let speedups = protection_speedups(ExpConfig::quick()).unwrap();
        let by = |p: Protection| {
            speedups
                .iter()
                .find(|s| s.protection == p)
                .map(|s| s.speedup)
                .expect("policy swept")
        };
        let none = by(Protection::None);
        let parity = by(Protection::ParityDetect);
        let ecc = by(Protection::EccSecDed);
        let verify = by(Protection::VerifyOnHit { verify_cycles: 4 });
        // Parity overlaps the compare: free. ECC charges 1 cycle per hit,
        // verify charges 4 — the ordering must be visible.
        assert!((parity - none).abs() < 1e-9, "parity {parity} vs none {none}");
        assert!(ecc < none, "ecc {ecc} must pay its read-path cycle vs {none}");
        assert!(verify < ecc, "verify {verify} must cost more than ecc {ecc}");
        assert!(verify > 1.0, "even verified memoing must still pay off: {verify}");
    }

    #[test]
    fn breaker_takes_hostile_slots_offline() {
        let b = breaker_demo(ExpConfig::quick());
        assert!(b.tripped_slots > 0, "at least one slot must trip");
        assert!(b.faults_detected >= b.threshold);
    }

    #[test]
    fn transparency_holds_with_faults_disabled() {
        let report = check_transparency(ExpConfig::quick()).unwrap();
        assert_eq!(report.mm_apps, mm::apps().len());
        assert_eq!(report.sci_apps, sci::all_apps().len());
        assert!(report.ops_compared > 0);
    }

    #[test]
    fn lockstep_sweep_matches_per_cell_replay() {
        // The oracle is the per-cell algorithm the lockstep units replaced:
        // one bank per (policy, rate) cell, fed every kernel in native order.
        let cfg = ExpConfig::quick();
        let cells = sweep(cfg);
        assert_eq!(cells.len(), Protection::ALL.len() * FAULT_RATES.len());
        for cell in cells {
            let mut sink = DiffSink::new(faulty_bank(cell.protection, cell.fault_rate, 0xFA17));
            replay_suites(cfg, &mut sink);
            let want = pooled_cell(cell.protection, cell.fault_rate, &sink);
            let label = format!("{}@{}", protection_label(cell.protection), cell.fault_rate);
            assert_eq!(cell.protection, want.protection, "{label}");
            assert_eq!(cell.fault_rate.to_bits(), want.fault_rate.to_bits(), "{label}");
            assert_eq!(cell.sdc_rate.to_bits(), want.sdc_rate.to_bits(), "{label}");
            assert_eq!(cell.hit_ratio.to_bits(), want.hit_ratio.to_bits(), "{label}");
            assert_eq!(cell.faults_injected, want.faults_injected, "{label}");
            assert_eq!(cell.faults_detected, want.faults_detected, "{label}");
            assert_eq!(cell.faults_corrected, want.faults_corrected, "{label}");
            assert_eq!(cell.faults_silent, want.faults_silent, "{label}");
        }
    }

    #[test]
    fn sweep_separates_the_policies() {
        let cells = sweep(ExpConfig::quick());
        assert_eq!(cells.len(), Protection::ALL.len() * FAULT_RATES.len());
        for cell in &cells {
            if cell.fault_rate == 0.0 {
                assert_eq!(cell.faults_injected, 0);
                assert_eq!(cell.sdc_rate, 0.0, "{}", protection_label(cell.protection));
            }
            match cell.protection {
                Protection::None => assert_eq!(cell.faults_detected, 0),
                _ => assert_eq!(
                    cell.faults_silent, 0,
                    "{} leaks under single-bit faults",
                    protection_label(cell.protection)
                ),
            }
        }
        // The headline: unprotected tables corrupt results; parity doesn't.
        let none_hot = cells
            .iter()
            .find(|c| c.protection == Protection::None && c.fault_rate == 0.1)
            .expect("swept");
        assert!(none_hot.sdc_rate > 0.0);
    }
}
