//! Microbenchmarks of the MEMO-TABLE itself — the "cycle time" question
//! of §2.4 translated to software: how cheap is a probe?
//!
//! Run with `cargo bench -p memo-bench --bench memo_table`.

use std::hint::black_box;

use memo_bench::bench;
use memo_table::rng::SplitMix64;
use memo_table::{
    Assoc, FaultConfig, FaultInjector, InfiniteMemoTable, MemoConfig, MemoTable, Memoizer, Op,
    OpBatch, OpKind, Protection, TagPolicy,
};

/// A repetitive division stream (8 distinct pairs — all hits after warmup).
fn hot_ops() -> Vec<Op> {
    (0..1024).map(|i| Op::FpDiv(f64::from(i % 8 + 2), 3.0)).collect()
}

/// A cold stream: every pair distinct.
fn cold_ops() -> Vec<Op> {
    (0..1024).map(|i| Op::FpDiv(f64::from(i) + 0.5, 3.0)).collect()
}

/// Operand columns of a mixed hit/miss `FpMul` stream: both operands
/// drawn from a 12-value pool, skewed towards its head, so a 32-entry
/// table hits about 60% of the time (some in swapped order) and keeps
/// evicting the tail.
fn mixed_fpmul_columns(n: usize) -> (Vec<u64>, Vec<u64>) {
    const POOL: u64 = 12;
    let mut rng = SplitMix64::new(14);
    let mut draw = || (rng.next_below(POOL).min(rng.next_below(POOL)) as f64 + 2.25).to_bits();
    let a = (0..n).map(|_| draw()).collect();
    let b = (0..n).map(|_| draw()).collect();
    (a, b)
}

fn mixed_fpmul_ops() -> Vec<Op> {
    let (a, b) = mixed_fpmul_columns(1024);
    a.iter().zip(&b).map(|(&x, &y)| Op::FpMul(f64::from_bits(x), f64::from_bits(y))).collect()
}

fn hot_probe_bench(name: &str, cfg: MemoConfig) {
    let mut table = MemoTable::new(cfg);
    let ops = hot_ops();
    for &op in &ops {
        table.execute(op);
    }
    bench("memo_table", name, 30, || {
        for &op in &ops {
            black_box(table.execute(black_box(op)));
        }
    });
}

/// One persistent table fed the mixed `FpMul` stream over and over.
fn mixed_bench(name: &str, mut table: MemoTable) {
    let ops = mixed_fpmul_ops();
    bench("memo_table", name, 30, || {
        for &op in &ops {
            black_box(table.execute(black_box(op)));
        }
    });
}

fn main() {
    hot_probe_bench("probe_hit_32x4", MemoConfig::paper_default());

    let cold = cold_ops();
    bench("memo_table", "probe_miss_insert_32x4", 30, || {
        let mut table = MemoTable::new(MemoConfig::paper_default());
        for &op in &cold {
            black_box(table.execute(black_box(op)));
        }
    });

    hot_probe_bench(
        "probe_hit_mantissa_tags",
        MemoConfig::builder(32).tag(TagPolicy::MantissaOnly).build().unwrap(),
    );
    hot_probe_bench(
        "probe_hit_fully_associative_1k",
        MemoConfig::builder(1024).assoc(Assoc::Full).build().unwrap(),
    );

    // The fault-tolerance study's shape: protected 32×4 tables with a
    // single-bit value injector striking 10% of matched reads.
    for (name, protection) in [
        ("probe_mixed_parity_32x4", Protection::ParityDetect),
        ("probe_mixed_ecc_32x4", Protection::EccSecDed),
    ] {
        let cfg = MemoConfig::builder(32).protection(protection).build().unwrap();
        let injector = FaultInjector::new(FaultConfig::single_bit(0xFA17, 0.1));
        mixed_bench(name, MemoTable::new(cfg).with_fault_injector(injector));
    }
    mixed_bench("probe_mixed_32x4", MemoTable::new(MemoConfig::paper_default()));
    mixed_bench(
        "probe_mixed_2way",
        MemoTable::new(MemoConfig::builder(32).assoc(Assoc::Ways(2)).build().unwrap()),
    );
    // 16 ways is not a specialized way count: the run-time scan.
    mixed_bench(
        "probe_mixed_16way",
        MemoTable::new(MemoConfig::builder(32).assoc(Assoc::Ways(16)).build().unwrap()),
    );

    // The same 64 Ki-op stream, lane-batched against one scalar call per op.
    let (a, b) = mixed_fpmul_columns(1 << 16);
    bench("memo_table", "mixed_fpmul_64k_scalar", 10, || {
        let mut table = MemoTable::new(MemoConfig::paper_default());
        for (&x, &y) in a.iter().zip(&b) {
            black_box(table.execute(Op::FpMul(f64::from_bits(x), f64::from_bits(y))));
        }
    });
    bench("memo_table", "mixed_fpmul_64k_execute_batch", 10, || {
        let mut table = MemoTable::new(MemoConfig::paper_default());
        black_box(table.execute_batch(&OpBatch::new(OpKind::FpMul, &a, &b)));
    });

    let mixed: Vec<Op> = hot_ops().into_iter().chain(cold_ops()).collect();
    bench("memo_table", "infinite_table_mixed", 30, || {
        let mut table = InfiniteMemoTable::new();
        for &op in &mixed {
            black_box(table.execute(black_box(op)));
        }
    });
}
