//! Differential oracle for [`MemoTable`]: a reference table that keeps one
//! `Option<Entry>` per slot, computes its geometry from the config on every
//! probe and scans sets with early-exit loops. It is driven side by side
//! with the column-wise, way-specialized table over seeded operand streams,
//! and every decision must agree.

use super::*;
use crate::config::Assoc;
use crate::fault::FaultConfig;
use crate::op::OpKind;
use crate::rng::SplitMix64;

#[derive(Debug, Clone)]
struct Entry {
    key: Key,
    clean_key: Key,
    value: u64,
    clean: u64,
    last_use: u64,
    inserted: u64,
}

/// The reference model. It scrubs on every probe (no dirty-tag gate):
/// with clean tags and no tag strikes a scrub changes nothing, so the gate
/// in the real table must not change any outcome either.
struct Reference {
    cfg: MemoConfig,
    slots: Vec<Option<Entry>>,
    clock: u64,
    stats: MemoStats,
    rng: u64,
    injector: Option<FaultInjector>,
}

impl Reference {
    fn new(cfg: MemoConfig, injector: Option<FaultInjector>) -> Self {
        Reference {
            cfg,
            slots: vec![None; cfg.entries()],
            clock: 0,
            stats: MemoStats::new(),
            rng: 0x9E37_79B9_7F4A_7C15,
            injector,
        }
    }

    fn reset(&mut self) {
        let injector = self.injector.as_ref().map(|i| FaultInjector::new(i.config()));
        *self = Reference::new(self.cfg, injector);
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn lookup_in_set(&mut self, set: usize, key: Key) -> Option<usize> {
        let ways = self.cfg.ways();
        let base = set * ways;
        let stamp = self.tick();
        for (offset, slot) in self.slots[base..base + ways].iter_mut().enumerate() {
            if let Some(entry) = slot {
                if entry.key == key {
                    entry.last_use = stamp;
                    return Some(base + offset);
                }
            }
        }
        None
    }

    fn insert(&mut self, set: usize, key: Key, value: u64) {
        let ways = self.cfg.ways();
        let base = set * ways;
        let stamp = self.tick();
        let entry =
            Entry { key, clean_key: key, value, clean: value, last_use: stamp, inserted: stamp };
        self.stats.insertions += 1;
        if let Some(slot) = self.slots[base..base + ways].iter_mut().find(|s| s.is_none()) {
            *slot = Some(entry);
            return;
        }
        let victim = match self.cfg.replacement() {
            Replacement::Lru => (0..ways)
                .min_by_key(|&w| self.slots[base + w].as_ref().map(|e| e.last_use))
                .unwrap(),
            Replacement::Fifo => (0..ways)
                .min_by_key(|&w| self.slots[base + w].as_ref().map(|e| e.inserted))
                .unwrap(),
            Replacement::Random => {
                let mut x = self.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % ways as u64) as usize
            }
        };
        self.slots[base + victim] = Some(entry);
        self.stats.evictions += 1;
    }

    fn scrub_and_strike_tags(&mut self, set: usize) {
        let ways = self.cfg.ways();
        let base = set * ways;
        let protection = self.cfg.protection();
        for slot in &mut self.slots[base..base + ways] {
            let Some(e) = slot else { continue };
            let errs = (e.key.tag ^ e.clean_key.tag).count_ones();
            match protection {
                Protection::None | Protection::VerifyOnHit { .. } => {}
                Protection::ParityDetect if errs % 2 == 1 => {
                    self.stats.faults_detected += 1;
                    *slot = None;
                }
                Protection::ParityDetect => {}
                Protection::EccSecDed => match errs {
                    0 => {}
                    1 => {
                        e.key = e.clean_key;
                        self.stats.faults_corrected += 1;
                    }
                    _ => {
                        self.stats.faults_detected += 1;
                        *slot = None;
                    }
                },
            }
        }
        let Some(injector) = &mut self.injector else { return };
        let Some((way_draw, bit)) = injector.tag_strike() else { return };
        let valid: Vec<usize> = (base..base + ways).filter(|&i| self.slots[i].is_some()).collect();
        if valid.is_empty() {
            return;
        }
        let victim = valid[(way_draw % valid.len() as u64) as usize];
        self.slots[victim].as_mut().unwrap().key.tag ^= 1u128 << bit;
        self.stats.faults_injected += 1;
    }

    fn decode_or_bypass(&mut self, op: &Op, bits: u64) -> Option<Value> {
        let v = decode_value(op, bits, self.cfg.tag());
        if v.is_none() {
            self.stats.bypasses += 1;
        }
        v
    }

    fn read_protected(&mut self, op: &Op, slot: usize) -> Option<Value> {
        if let Some(mask) = self.injector.as_mut().and_then(FaultInjector::value_strike) {
            self.slots[slot].as_mut().unwrap().value ^= mask;
            self.stats.faults_injected += 1;
        }
        let entry = self.slots[slot].as_ref().unwrap();
        let (clean, mut read) = (entry.clean, entry.value);
        if let Some(injector) = &self.injector {
            let stuck = injector.apply_stuck(slot, read);
            if stuck != read {
                self.stats.faults_injected += 1;
                read = stuck;
            }
        }
        let errs = (read ^ clean).count_ones();
        if errs == 0 {
            return self.decode_or_bypass(op, read);
        }
        let truth = decode_value(op, clean, self.cfg.tag());
        let serve = |r: &mut Self| {
            let seen = r.decode_or_bypass(op, read)?;
            if Some(seen) != truth {
                r.stats.faults_silent += 1;
            }
            Some(seen)
        };
        let invalidate = |r: &mut Self| {
            r.stats.faults_detected += 1;
            r.slots[slot] = None;
            None
        };
        match self.cfg.protection() {
            Protection::None => serve(self),
            Protection::ParityDetect if errs % 2 == 1 => invalidate(self),
            Protection::ParityDetect => serve(self),
            Protection::EccSecDed => match errs {
                1 => {
                    self.stats.faults_corrected += 1;
                    self.slots[slot].as_mut().unwrap().value = clean;
                    self.decode_or_bypass(op, clean)
                }
                2 => invalidate(self),
                _ => serve(self),
            },
            Protection::VerifyOnHit { .. } => {
                let seen = decode_value(op, read, self.cfg.tag());
                if seen.is_some() && seen == truth {
                    seen
                } else {
                    invalidate(self)
                }
            }
        }
    }

    fn probe_keyed(&mut self, op: &Op, key: Key, set: usize) -> Option<Value> {
        self.scrub_and_strike_tags(set);
        let slot = self.lookup_in_set(set, key)?;
        self.read_protected(op, slot)
    }

    fn execute(&mut self, op: Op) -> Executed {
        let cfg = self.cfg;
        self.stats.ops_seen += 1;
        if let Some((_, value)) = trivial_result(&op) {
            self.stats.trivial_seen += 1;
            match cfg.trivial() {
                TrivialPolicy::Exclude => {
                    return Executed { value: op.compute(), outcome: Outcome::Filtered }
                }
                TrivialPolicy::Integrate => return Executed { value, outcome: Outcome::Trivial },
                TrivialPolicy::Memoize => {}
            }
        }
        self.stats.table_lookups += 1;
        let Some(key) = encode_tag(&op, cfg.tag()) else {
            self.stats.bypasses += 1;
            return Executed { value: op.compute(), outcome: Outcome::Miss };
        };
        let set = set_index(&op, cfg.sets(), cfg.hash());
        if let Some(value) = self.probe_keyed(&op, key, set) {
            self.stats.table_hits += 1;
            return Executed { value, outcome: Outcome::Hit };
        }
        if let Some(swapped) = op.swapped().filter(|_| cfg.commutative()) {
            if let Some(skey) = encode_tag(&swapped, cfg.tag()) {
                let sset = set_index(&swapped, cfg.sets(), cfg.hash());
                if let Some(value) = self.probe_keyed(&swapped, skey, sset) {
                    self.stats.table_hits += 1;
                    self.stats.commutative_hits += 1;
                    return Executed { value, outcome: Outcome::Hit };
                }
            }
        }
        let value = op.compute();
        match encode_value(&op, value, cfg.tag()) {
            Some(stored) => self.insert(set, key, stored),
            None => self.stats.bypasses += 1,
        }
        Executed { value, outcome: Outcome::Miss }
    }
}

/// Operand pools: repeats, ×1 and ×0 trivials, a NaN, a subnormal, a
/// product that underflows, and mantissas shared across exponents.
const FP_POOL: [f64; 14] =
    [3.0, 1.5, 6.0, 0.75, 2.5, 1.0, 0.0, -3.0, 12.0, 0.1, f64::NAN, 1e-310, 1.5e-200, 7.0];
const INT_POOL: [i64; 10] = [3, 7, 6, 1, 0, -5, 12, 0x5555, 96, -1];

/// A skewed pool draw: low indices come up far more often, so operand
/// pairs repeat (hits) while the tail keeps overflowing small sets.
fn draw(rng: &mut SplitMix64, len: usize) -> usize {
    let n = len as u64;
    rng.next_below(n).min(rng.next_below(n)) as usize
}

fn operand_bits(rng: &mut SplitMix64, kind: OpKind) -> u64 {
    match kind {
        OpKind::IntMul => INT_POOL[draw(rng, INT_POOL.len())] as u64,
        _ => FP_POOL[draw(rng, FP_POOL.len())].to_bits(),
    }
}

fn random_op(rng: &mut SplitMix64, kind: OpKind) -> Op {
    let (a, b) = (operand_bits(rng, kind), operand_bits(rng, kind));
    let b = if kind == OpKind::FpSqrt { &[][..] } else { &[b][..] };
    OpBatch::new(kind, &[a], b).op(0)
}

fn assert_same_op(table: &mut MemoTable, oracle: &mut Reference, op: Op, ctx: &str) {
    let (got, want) = (table.execute(op), oracle.execute(op));
    assert_eq!(
        (got.value.to_bits(), got.outcome),
        (want.value.to_bits(), want.outcome),
        "{ctx}: {op:?}"
    );
}

fn assert_same_batch(
    table: &mut MemoTable,
    oracle: &mut Reference,
    rng: &mut SplitMix64,
    ctx: &str,
) {
    let kind = OpKind::ALL[rng.next_below(4) as usize];
    let lanes = 1 + rng.next_below(80) as usize;
    let a: Vec<u64> = (0..lanes).map(|_| operand_bits(rng, kind)).collect();
    let b: Vec<u64> = if kind == OpKind::FpSqrt {
        Vec::new()
    } else {
        (0..lanes).map(|_| operand_bits(rng, kind)).collect()
    };
    let batch = OpBatch::new(kind, &a, &b);
    let mut want = BatchOutcome::default();
    for i in 0..lanes {
        match oracle.execute(batch.op(i)).outcome {
            Outcome::Hit => want.hits += 1,
            Outcome::Trivial => want.trivials += 1,
            Outcome::Filtered | Outcome::Miss => {}
        }
    }
    assert_eq!(table.execute_batch(&batch), want, "{ctx}: batch of {lanes} {kind:?}");
}

/// Every configuration the oracle runs: 7 geometries (the last three take
/// the run-time way count) × 3 replacement × 4 protection × 2 tag × 3
/// trivial policies, each under 4 injector settings (none; attached but
/// disabled; value flips with doubles; tag flips plus stuck-at cells).
/// The hash scheme and commutative probing vary with the case number.
fn cases() -> Vec<(MemoConfig, Option<FaultConfig>)> {
    let geometries = [
        (32, Assoc::DirectMapped),
        (32, Assoc::Ways(2)),
        (32, Assoc::Ways(4)),
        (32, Assoc::Ways(8)),
        (32, Assoc::Ways(16)),
        (32, Assoc::Full),
        (64, Assoc::Full),
    ];
    let trivials = [TrivialPolicy::Exclude, TrivialPolicy::Integrate, TrivialPolicy::Memoize];
    let mut out = Vec::new();
    for (entries, assoc) in geometries {
        for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            for protection in Protection::ALL {
                for tag in [TagPolicy::FullValue, TagPolicy::MantissaOnly] {
                    for trivial in trivials {
                        let seed = out.len() as u64;
                        let faults = [
                            None,
                            Some(FaultConfig::disabled()),
                            Some(FaultConfig::single_bit(seed, 0.1).with_double_fraction(0.5)),
                            Some(
                                FaultConfig::disabled()
                                    .with_seed(seed)
                                    .with_tag_rate(0.05)
                                    .with_stuck_rate(0.2),
                            ),
                        ];
                        for fault in faults {
                            let n = out.len();
                            let hash = [HashScheme::PaperXor, HashScheme::FoldMix][n % 2];
                            let cfg = MemoConfig::builder(entries)
                                .assoc(assoc)
                                .replacement(replacement)
                                .protection(protection)
                                .tag(tag)
                                .trivial(trivial)
                                .hash(hash)
                                .commutative(n % 5 != 4)
                                .build()
                                .unwrap();
                            out.push((cfg, fault));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Drive the table and the reference side by side: scalar ops, a batch,
/// a reset after the second round. Returns the table's final statistics.
fn run_case(cfg: MemoConfig, fault: Option<FaultConfig>, seed: u64) -> MemoStats {
    let injector = fault.map(FaultInjector::new);
    let mut table = MemoTable::new(cfg);
    table.set_fault_injector(injector.clone());
    let mut oracle = Reference::new(cfg, injector);
    let ctx = format!("case {seed}: {cfg:?} {fault:?}");

    let mut rng = SplitMix64::new(seed);
    for round in 0..3 {
        for _ in 0..64 {
            let kind = OpKind::ALL[rng.next_below(4) as usize];
            let op = random_op(&mut rng, kind);
            assert_same_op(&mut table, &mut oracle, op, &ctx);
        }
        assert_same_batch(&mut table, &mut oracle, &mut rng, &ctx);
        if round == 1 {
            table.reset();
            oracle.reset();
        }
    }
    assert_eq!(table.stats(), oracle.stats, "{ctx}");
    assert_eq!(table.len(), oracle.slots.iter().flatten().count(), "{ctx}");
    table.stats()
}

#[test]
fn column_table_matches_the_slot_reference() {
    let cases = cases();
    assert_eq!(cases.len(), 7 * 3 * 4 * 2 * 3 * 4);
    let mut t = MemoStats::new();
    for (i, (cfg, fault)) in cases.into_iter().enumerate() {
        t += run_case(cfg, fault, i as u64);
    }
    // The streams reach every decision the two tables could disagree on.
    for (what, count) in [
        ("trivial", t.trivial_seen),
        ("hit", t.table_hits),
        ("commutative hit", t.commutative_hits),
        ("bypass", t.bypasses),
        ("eviction", t.evictions),
        ("detected fault", t.faults_detected),
        ("corrected fault", t.faults_corrected),
        ("silent fault", t.faults_silent),
    ] {
        assert!(count > 0, "no {what} in any case");
    }
}
