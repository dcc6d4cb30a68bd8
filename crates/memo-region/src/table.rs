//! The region memo-table: set-associative, keyed on
//! `(entry_pc, live-in register values)`, payload = live-out values.
//!
//! Correctness never rests on the hash: the full live-in vector is
//! stored and compared word-for-word on every probe, the SplitMix64 hash
//! only selects the set and provides a cheap early-out tag. Protection
//! and fault injection reuse the per-unit tables' [`Protection`] policies
//! and [`FaultInjector`]: each payload entry keeps a reference copy, and
//! the Hamming distance between each (possibly struck) served payload
//! word and its reference goes through [`Protection::check`], the same
//! verdict the per-unit tables' semantic ECC model uses.

use memo_table::rng::SplitMix64;
use memo_table::{Assoc, Check, FaultConfig, FaultInjector, MemoStats, Protection};

/// Configuration for a [`RegionTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionConfig {
    /// Total entries; must be a power of two.
    pub entries: usize,
    /// Set associativity.
    pub assoc: Assoc,
    /// Payload protection policy.
    pub protection: Protection,
    /// Deterministic soft-error injection (disabled by default).
    pub faults: FaultConfig,
}

impl RegionConfig {
    /// `entries` 4-way associative, unprotected, no faults.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        RegionConfig {
            entries,
            assoc: Assoc::Ways(4),
            protection: Protection::None,
            faults: FaultConfig::disabled(),
        }
    }

    /// Set the associativity.
    #[must_use]
    pub fn assoc(mut self, assoc: Assoc) -> Self {
        self.assoc = assoc;
        self
    }

    /// Set the protection policy.
    #[must_use]
    pub fn protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// Enable fault injection.
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// Why a [`RegionConfig`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionConfigError {
    /// Entry count must be a nonzero power of two.
    Entries(usize),
    /// Ways must divide entries into a power-of-two number of sets.
    Ways {
        /// Requested entry count.
        entries: usize,
        /// Requested way count.
        ways: usize,
    },
}

impl std::fmt::Display for RegionConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionConfigError::Entries(n) => {
                write!(f, "region table entries must be a nonzero power of two, got {n}")
            }
            RegionConfigError::Ways { entries, ways } => write!(
                f,
                "region table ways ({ways}) must divide entries ({entries}) into a power-of-two set count"
            ),
        }
    }
}

impl std::error::Error for RegionConfigError {}

/// Result of presenting a region's live-in values to the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionProbe {
    /// No matching entry: execute the body and [`RegionTable::insert`].
    Miss,
    /// Matching entry: the payload is the live-out values, bypass the body.
    Hit(Vec<u64>),
    /// Matching entry under [`Protection::VerifyOnHit`]: the payload may
    /// be used only after the caller re-executes the body and calls
    /// [`RegionTable::confirm`] with the comparison result.
    VerifyHit(Vec<u64>),
}

struct Entry {
    hash: u64,
    entry_pc: usize,
    live_in: Box<[u64]>,
    live_out: Box<[u64]>,
    /// Reference copy for the semantic parity/ECC model (what the payload
    /// held when inserted; strikes only perturb `live_out`).
    reference: Box<[u64]>,
    stamp: u64,
}

/// A set-associative region memo-table with LRU replacement.
pub struct RegionTable {
    sets: usize,
    ways: usize,
    protection: Protection,
    slots: Vec<Option<Entry>>,
    stats: MemoStats,
    injector: FaultInjector,
    word_rng: SplitMix64,
    tick: u64,
}

/// SplitMix64 chained over the entry pc and every live-in word — the
/// same generator the fault injector and synthetic corpora use, reused
/// as a mixing function.
fn key_hash(entry_pc: usize, live_in: &[u64]) -> u64 {
    let mut h = SplitMix64::new(0x9e37_79b9_7f4a_7c15 ^ entry_pc as u64).next_u64();
    for &w in live_in {
        h = SplitMix64::new(h ^ w).next_u64();
    }
    h
}

impl RegionTable {
    /// Build a table from `config`.
    ///
    /// # Errors
    ///
    /// [`RegionConfigError`] when the geometry is invalid.
    pub fn new(config: RegionConfig) -> Result<Self, RegionConfigError> {
        if config.entries == 0 || !config.entries.is_power_of_two() {
            return Err(RegionConfigError::Entries(config.entries));
        }
        let ways = config.assoc.ways(config.entries);
        if ways == 0
            || !config.entries.is_multiple_of(ways)
            || !(config.entries / ways).is_power_of_two()
        {
            return Err(RegionConfigError::Ways { entries: config.entries, ways });
        }
        let mut slots = Vec::new();
        slots.resize_with(config.entries, || None);
        Ok(RegionTable {
            sets: config.entries / ways,
            ways,
            protection: config.protection,
            slots,
            stats: MemoStats::default(),
            injector: FaultInjector::new(config.faults),
            word_rng: SplitMix64::new(config.faults.seed).split("region-strike-word"),
            tick: 0,
        })
    }

    /// The configured protection policy.
    #[must_use]
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// Total entries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// Ways per set.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Lookup/hit/eviction/fault counters.
    #[must_use]
    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    fn set_range(&self, hash: u64) -> std::ops::Range<usize> {
        let set = (hash as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    fn find(&self, hash: u64, entry_pc: usize, live_in: &[u64]) -> Option<usize> {
        self.set_range(hash).find(|&i| {
            self.slots[i].as_ref().is_some_and(|e| {
                e.hash == hash && e.entry_pc == entry_pc && *e.live_in == *live_in
            })
        })
    }

    /// Present a region entry to the table.
    pub fn probe(&mut self, entry_pc: usize, live_in: &[u64]) -> RegionProbe {
        self.stats.ops_seen += 1;
        self.stats.table_lookups += 1;
        let hash = key_hash(entry_pc, live_in);

        // A tag strike flips a bit of some valid entry's stored hash in
        // this set; the entry simply stops matching (a clean miss for its
        // key), mirroring the per-unit tables' tag-corruption model.
        // The victim is the n-th valid way, picked without collecting
        // indices (the same draw `MemoTable` reduces).
        if let Some((way_draw, bit)) = self.injector.tag_strike() {
            let range = self.set_range(hash);
            let set = &mut self.slots[range];
            let valid = set.iter().flatten().count();
            if valid > 0 {
                let target = (way_draw % valid as u64) as usize;
                let victim = set.iter_mut().flatten().nth(target).expect("target < valid count");
                victim.hash ^= 1 << (bit % 64);
                self.stats.faults_injected += 1;
            }
        }

        let Some(slot) = self.find(hash, entry_pc, live_in) else {
            return RegionProbe::Miss;
        };

        // A value strike flips 1–2 bits of one payload word.
        if let Some(mask) = self.injector.value_strike() {
            let e = self.slots[slot].as_mut().expect("found slot is occupied");
            if !e.live_out.is_empty() {
                let w = self.word_rng.next_below(e.live_out.len() as u64) as usize;
                e.live_out[w] ^= mask;
                self.stats.faults_injected += 1;
            }
        }

        if let Protection::VerifyOnHit { .. } = self.protection {
            let e = self.slots[slot].as_ref().expect("found slot is occupied");
            return RegionProbe::VerifyHit(e.live_out.to_vec());
        }

        // Semantic parity/ECC: compare the served payload to its
        // reference copy word-by-word; the Hamming distance of each word
        // decides what the code word's check bits would have seen.
        let mut detected = false;
        let mut silent = false;
        let mut corrected = 0u64;
        {
            let e = self.slots[slot].as_mut().expect("found slot is occupied");
            for (word, &reference) in e.live_out.iter_mut().zip(e.reference.iter()) {
                match self.protection.check((*word ^ reference).count_ones()) {
                    Check::Clean => {}
                    Check::Corrected => {
                        *word = reference;
                        corrected += 1;
                    }
                    Check::Detected => detected = true,
                    Check::Escaped => silent = true,
                    Check::Verify => unreachable!("handled above"),
                }
            }
        }
        self.stats.faults_corrected += corrected;
        if detected {
            // Detected corruption invalidates the entry and falls back to
            // execution — a miss, never a wrong payload.
            self.stats.faults_detected += 1;
            self.slots[slot] = None;
            return RegionProbe::Miss;
        }
        if silent {
            self.stats.faults_silent += 1;
        }
        self.stats.table_hits += 1;
        self.tick += 1;
        let e = self.slots[slot].as_mut().expect("found slot is occupied");
        e.stamp = self.tick;
        RegionProbe::Hit(e.live_out.to_vec())
    }

    /// Report the verify-on-hit outcome for the entry a
    /// [`RegionProbe::VerifyHit`] came from: `matched` means the
    /// re-executed live-outs equalled the payload. A mismatch is a
    /// detected fault — the entry is invalidated and the executed results
    /// stand.
    pub fn confirm(&mut self, entry_pc: usize, live_in: &[u64], matched: bool) {
        let hash = key_hash(entry_pc, live_in);
        let Some(slot) = self.find(hash, entry_pc, live_in) else {
            return;
        };
        if matched {
            self.stats.table_hits += 1;
            self.tick += 1;
            let e = self.slots[slot].as_mut().expect("found slot is occupied");
            e.stamp = self.tick;
        } else {
            self.stats.faults_detected += 1;
            self.slots[slot] = None;
        }
    }

    /// Remember `live_out` for `(entry_pc, live_in)` after a miss
    /// executed the body. LRU replacement within the set.
    pub fn insert(&mut self, entry_pc: usize, live_in: &[u64], live_out: &[u64]) {
        let hash = key_hash(entry_pc, live_in);
        let range = self.set_range(hash);
        let victim = range
            .clone()
            .find(|&i| self.slots[i].is_none())
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.slots[i].as_ref().map_or(0, |e| e.stamp))
                    .expect("sets are never empty")
            });
        if self.slots[victim].is_some() {
            self.stats.evictions += 1;
        }
        self.stats.insertions += 1;
        self.tick += 1;
        self.slots[victim] = Some(Entry {
            hash,
            entry_pc,
            live_in: live_in.into(),
            live_out: live_out.into(),
            reference: live_out.into(),
            stamp: self.tick,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: usize, assoc: Assoc) -> RegionTable {
        RegionTable::new(RegionConfig::new(entries).assoc(assoc)).unwrap()
    }

    #[test]
    fn geometry_is_validated() {
        assert!(matches!(
            RegionTable::new(RegionConfig::new(0)),
            Err(RegionConfigError::Entries(0))
        ));
        assert!(matches!(
            RegionTable::new(RegionConfig::new(48)),
            Err(RegionConfigError::Entries(48))
        ));
        assert!(matches!(
            RegionTable::new(RegionConfig::new(16).assoc(Assoc::Ways(3))),
            Err(RegionConfigError::Ways { entries: 16, ways: 3 })
        ));
        for assoc in [Assoc::DirectMapped, Assoc::Ways(2), Assoc::Ways(4), Assoc::Full] {
            assert!(RegionTable::new(RegionConfig::new(16).assoc(assoc)).is_ok());
        }
    }

    #[test]
    fn miss_insert_hit_roundtrip() {
        let mut t = table(16, Assoc::Ways(4));
        let live_in = [1u64, 2, 3];
        let live_out = [10u64, 20];
        assert_eq!(t.probe(7, &live_in), RegionProbe::Miss);
        t.insert(7, &live_in, &live_out);
        assert_eq!(t.probe(7, &live_in), RegionProbe::Hit(live_out.to_vec()));
        // Same pc, different live-ins: distinct key.
        assert_eq!(t.probe(7, &[9, 9, 9]), RegionProbe::Miss);
        // Same live-ins, different pc: distinct key.
        assert_eq!(t.probe(8, &live_in), RegionProbe::Miss);
        assert_eq!(t.stats().table_lookups, 4);
        assert_eq!(t.stats().table_hits, 1);
        assert_eq!(t.stats().insertions, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_way() {
        // Full associativity, 2 entries: one set, LRU across it.
        let mut t = table(2, Assoc::Full);
        t.insert(1, &[1], &[1]);
        t.insert(2, &[2], &[2]);
        assert!(matches!(t.probe(1, &[1]), RegionProbe::Hit(_))); // touch 1
        t.insert(3, &[3], &[3]); // evicts key 2
        assert!(matches!(t.probe(1, &[1]), RegionProbe::Hit(_)));
        assert!(matches!(t.probe(3, &[3]), RegionProbe::Hit(_)));
        assert_eq!(t.probe(2, &[2]), RegionProbe::Miss);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn parity_detects_and_falls_back_ecc_corrects() {
        // Strike every probe (rate 1.0): parity must detect the odd-bit
        // flip, invalidate, and miss — never serve the corrupt payload.
        let faults = FaultConfig::single_bit(11, 1.0);
        let mut t = RegionTable::new(
            RegionConfig::new(8).protection(Protection::ParityDetect).faults(faults),
        )
        .unwrap();
        t.insert(4, &[5], &[42]);
        assert_eq!(t.probe(4, &[5]), RegionProbe::Miss);
        assert_eq!(t.stats().faults_injected, 1);
        assert_eq!(t.stats().faults_detected, 1);
        assert_eq!(t.stats().faults_silent, 0);

        let mut t = RegionTable::new(
            RegionConfig::new(8).protection(Protection::EccSecDed).faults(faults),
        )
        .unwrap();
        t.insert(4, &[5], &[42]);
        // Single-bit strikes are corrected back to the reference.
        assert_eq!(t.probe(4, &[5]), RegionProbe::Hit(vec![42]));
        assert_eq!(t.stats().faults_corrected, 1);

        let mut t =
            RegionTable::new(RegionConfig::new(8).faults(faults)).unwrap();
        t.insert(4, &[5], &[42]);
        // Unprotected: the corrupt payload is served silently.
        match t.probe(4, &[5]) {
            RegionProbe::Hit(v) => assert_ne!(v, vec![42]),
            other => panic!("expected a (corrupt) hit, got {other:?}"),
        }
        assert_eq!(t.stats().faults_silent, 1);
    }

    #[test]
    fn double_flips_escape_parity_and_are_detected_by_ecc() {
        let faults = FaultConfig::single_bit(11, 1.0).with_double_fraction(1.0);
        let mut t = RegionTable::new(
            RegionConfig::new(8).protection(Protection::ParityDetect).faults(faults),
        )
        .unwrap();
        t.insert(4, &[5], &[42]);
        // An even flip count is invisible to parity: the corrupt payload
        // is served.
        match t.probe(4, &[5]) {
            RegionProbe::Hit(v) => assert_ne!(v, vec![42]),
            other => panic!("expected a (corrupt) hit, got {other:?}"),
        }
        assert_eq!(t.stats().faults_silent, 1);
        assert_eq!(t.stats().faults_detected, 0);

        let mut t = RegionTable::new(
            RegionConfig::new(8).protection(Protection::EccSecDed).faults(faults),
        )
        .unwrap();
        t.insert(4, &[5], &[42]);
        assert_eq!(t.probe(4, &[5]), RegionProbe::Miss);
        assert_eq!(t.stats().faults_detected, 1);
        assert_eq!(t.stats().faults_silent, 0);
        // The entry was invalidated: the next probe misses without a strike.
        assert_eq!(t.probe(4, &[5]), RegionProbe::Miss);
        assert_eq!(t.stats().faults_injected, 1);
        assert_eq!(t.stats().table_hits, 0);
    }

    #[test]
    fn tag_strikes_turn_hits_into_clean_misses() {
        let faults = FaultConfig::disabled().with_seed(3).with_tag_rate(1.0);
        for protection in Protection::ALL {
            let mut t =
                RegionTable::new(RegionConfig::new(8).protection(protection).faults(faults))
                    .unwrap();
            t.insert(4, &[5], &[42]);
            // The strike lands on the set's only valid entry before the
            // lookup, so the entry no longer matches its own key.
            assert_eq!(t.probe(4, &[5]), RegionProbe::Miss, "{protection}");
            let stats = t.stats();
            assert_eq!(stats.faults_injected, 1, "{protection}");
            assert_eq!(stats.table_hits, 0, "{protection}");
            assert_eq!(stats.faults_detected + stats.faults_silent, 0, "{protection}");
        }
    }

    #[test]
    fn verify_on_hit_defers_to_confirm() {
        let mut t = RegionTable::new(
            RegionConfig::new(8).protection(Protection::VerifyOnHit { verify_cycles: 4 }),
        )
        .unwrap();
        t.insert(2, &[7], &[70]);
        assert_eq!(t.probe(2, &[7]), RegionProbe::VerifyHit(vec![70]));
        // Not a hit until confirmed.
        assert_eq!(t.stats().table_hits, 0);
        t.confirm(2, &[7], true);
        assert_eq!(t.stats().table_hits, 1);
        // A mismatch invalidates.
        assert_eq!(t.probe(2, &[7]), RegionProbe::VerifyHit(vec![70]));
        t.confirm(2, &[7], false);
        assert_eq!(t.stats().faults_detected, 1);
        assert_eq!(t.probe(2, &[7]), RegionProbe::Miss);
    }
}
