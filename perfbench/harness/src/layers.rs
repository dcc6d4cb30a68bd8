//! The offline layers, each timed on its own in one fresh process:
//! corpus synthesis, kernel recording, every registry entry, the replay
//! and sweep engines, the fault-tolerance phases and region memoization.

use std::time::Instant;

use memo_experiments::{fault_tolerance, regions, results, runner, traces, ExpConfig};
use memo_sim::MemoBank;
use memo_table::OpKind;
use memo_workloads::suite::{fusion_counters, SweepSpec};
use memo_workloads::{mm, sci};

use crate::Obj;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

pub fn run(cfg: ExpConfig) -> Obj {
    let mut out = Obj::default();
    let mut failures: Vec<String> = Vec::new();

    let (_, corpus_s) = timed(|| traces::corpus(cfg.image_scale));
    out.num("memo-imaging.corpus_s", corpus_s);

    // Recording up front charges every kernel to its own line instead of
    // to whichever experiment touches it first.
    let mm_apps = mm::apps();
    let sci_apps = sci::all_apps();
    let (ops, record_s) = timed(|| {
        let mut ops = 0u64;
        for app in &mm_apps {
            ops += traces::mm_traces(cfg, app)
                .iter()
                .map(|t| t.len() as u64)
                .sum::<u64>();
            ops += traces::mm_event_trace(cfg, app).len() as u64;
        }
        for app in &sci_apps {
            ops += traces::sci_trace(cfg, app).len() as u64;
        }
        ops
    });
    out.num("memo-workloads.record_s", record_s);
    out.int("memo-workloads.record_ops", ops);
    out.num(
        "memo-workloads.record_ns_per_op",
        record_s * 1e9 / ops.max(1) as f64,
    );

    for (name, run) in runner::experiments() {
        let (result, s) = timed(|| run(cfg));
        if let Err(e) = result {
            failures.push(format!("{name}: {e}"));
        }
        // `table 1` is reported as `memo-experiments.table_1_s`.
        out.num(&format!("memo-experiments.{}_s", name.replace(' ', "_")), s);
    }
    // `perfbench/run.py` times the process from spawn to this line, the
    // same span as an untraced registry process, for the tracing overhead.
    println!("registry-done");
    let fusion = fusion_counters();
    out.int("memo-workloads.grids_fused", fusion.grids_fused);
    out.int("memo-workloads.direct_replays", fusion.direct_replays);
    let cache = results::stats();
    out.int("memo-experiments.results_hits", cache.hits);
    out.int("memo-experiments.results_misses", cache.misses);

    // Replay every recorded MM trace through the paper's default bank.
    let mut bank: MemoBank = SweepSpec::paper_default().build();
    let (replayed, replay_s) = timed(|| {
        let mut n = 0u64;
        for app in &mm_apps {
            for trace in traces::mm_traces(cfg, app).iter() {
                trace.replay(&mut bank);
                n += trace.len() as u64;
            }
        }
        n
    });
    out.num(
        "memo-sim.replay_ns_per_op",
        replay_s * 1e9 / replayed.max(1) as f64,
    );
    let (hits, lookups) = OpKind::ALL
        .iter()
        .filter_map(|&k| bank.stats(k))
        .fold((0u64, 0u64), |(h, l), s| {
            (h + s.table_hits, l + s.table_lookups)
        });
    out.num("memo-table.hit_ratio", hits as f64 / lookups.max(1) as f64);

    let fig3_axis =
        runner::SweepQuery::parse(Some("8,16,32,64,128,256,512,1024,2048,4096,8192"), None)
            .expect("the Figure 3 axis parses");
    let (sweep, sweep_s) = timed(|| runner::sweep(cfg, &fig3_axis));
    if let Err(e) = sweep {
        failures.push(format!("sweep: {e}"));
    }
    out.num("memo-table.sweep_s", sweep_s);

    let (_, s) = timed(|| fault_tolerance::sweep(cfg));
    out.num("fault_tolerance.sweep_s", s);
    let (r, s) = timed(|| fault_tolerance::check_transparency(cfg));
    if let Err(e) = r {
        failures.push(format!("fault tolerance transparency: {e}"));
    }
    out.num("fault_tolerance.transparency_s", s);
    let (_, s) = timed(|| fault_tolerance::breaker_demo(cfg));
    out.num("fault_tolerance.breaker_s", s);
    let (r, s) = timed(|| fault_tolerance::protection_speedups(cfg));
    if let Err(e) = r {
        failures.push(format!("protection speedups: {e}"));
    }
    out.num("fault_tolerance.protection_s", s);

    let (r, s) = timed(|| regions::survey(cfg));
    if let Err(e) = r {
        failures.push(format!("region survey: {e}"));
    }
    out.num("memo-region.survey_s", s);
    let (r, s) = timed(|| regions::check_transparency(cfg));
    if let Err(e) = r {
        failures.push(format!("region transparency: {e}"));
    }
    out.num("memo-region.transparency_s", s);

    out.int("failures", failures.len() as u64);
    out.str("first_failure", failures.first().map_or("", String::as_str));
    out
}
