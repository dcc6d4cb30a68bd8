//! The request mixes: the hot artifact keys, the seeded hot mix, and the
//! never-requested custom sweeps the fill mix draws from.

use std::collections::{BTreeMap, HashMap};

use memo_experiments::figures::{self, SweepCurve};
use memo_experiments::runner::{self, SweepQuery};
use memo_experiments::{ExpConfig, ExperimentError};
use memo_table::{Assoc, MemoConfig, OpKind};

/// SplitMix64: the benchmark's only random source, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every artifact key a serve workload warms: tables 1-13, figures 2-4,
/// the canned sweeps, and the region family. `perfbench/run.py` takes the
/// list from the `keys` subcommand, so warming and drawing never drift.
pub fn hot_paths() -> Vec<String> {
    let mut paths: Vec<String> = (1..=13).map(|n| format!("/v1/table/{n}")).collect();
    paths.extend((2..=4).map(|n| format!("/v1/figure/{n}")));
    paths.push("/v1/sweep?entries=8,16,32".to_string());
    paths.push("/v1/sweep?ways=1,2,4".to_string());
    paths.push("/v1/sweep".to_string());
    paths.push("/v1/region".to_string());
    paths
}

/// One draw from the hot mix, as an index into [`hot_paths`]. The weights
/// are `memo-load`'s (`pick_target` in `crates/memo-serve/src/load.rs`)
/// with its 20% of `/healthz` and `/metrics` probes taken out. Out of 80:
/// a uniform table 35, table 1 again 10, a figure 15, a canned sweep 20.
/// `memo-load` never asks for `/v1/region`, so neither does this mix; the
/// region key is warmed and checked before the window only.
pub fn pick_hot(rng: &mut Rng) -> usize {
    match rng.below(80) {
        0..=34 => rng.below(13),
        35..=44 => 0,
        45..=59 => 13 + rng.below(3),
        _ => 16 + rng.below(3),
    }
}

/// The Figure 3 axis: every fill entry list is a subset of it.
const SIZES: [usize; 11] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];
/// Associativities the entry lists are swept at (4-way is the default
/// and needs no `ways=`).
const ENTRY_ASSOCS: [&str; 3] = ["4", "2", "8"];
/// Every fill associativity list is a subset of this axis.
const WAYS: [&str; 6] = ["direct", "2", "4", "8", "16", "full"];
/// Entry counts the associativity lists are swept at.
const WAY_ENTRIES: [usize; 5] = [64, 128, 256, 512, 1024];

fn subsets<T: ToString>(axis: &[T]) -> impl Iterator<Item = (u32, String)> + '_ {
    (1u32..(1 << axis.len()))
        .filter(|mask| mask.count_ones() >= 2)
        .map(move |mask| {
            let picked: Vec<String> = axis
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| v.to_string())
                .collect();
            (mask, picked.join(","))
        })
}

/// What a fill key's render costs depends on: its family (entry list or
/// associativity list), its geometry, and how many points it sweeps.
type CostClass = (u8, usize, u32);

/// The custom-sweep key space of the fill mix: entry lists over every
/// subset (two or more sizes) of the Figure 3 axis 8..8192 at 4, 2 and 8
/// ways, plus associativity lists over {direct, 2, 4, 8, 16, full} at
/// 64-1024 entries. None of them is a hot key, and there are enough (over
/// 6,000) that two windows never run out.
///
/// The seed shuffles the keys within each cost class. Each class is
/// spread evenly over the sequence in the same places for every seed, so
/// a run's first few hundred fills cost about the same whatever the seed;
/// a plain shuffle made `rps` and `p99_ms` follow the seed.
fn fill_keys(seed: u64) -> Vec<(CostClass, String)> {
    let mut classes: BTreeMap<CostClass, Vec<String>> = BTreeMap::new();
    for (a, assoc) in ENTRY_ASSOCS.iter().enumerate() {
        for (mask, list) in subsets(&SIZES) {
            let path = match *assoc {
                // entries=8,16,32 is a canned hot sweep.
                "4" if mask == 0b111 => continue,
                "4" => format!("/v1/sweep?entries={list}"),
                _ => format!("/v1/sweep?entries={list}&ways={assoc}"),
            };
            classes
                .entry((0, a, mask.count_ones()))
                .or_default()
                .push(path);
        }
    }
    for entries in WAY_ENTRIES {
        for (mask, list) in subsets(&WAYS) {
            // Full associativity (the last axis value) dominates the cost.
            let full = mask >> (WAYS.len() - 1);
            classes
                .entry((1, entries, 2 * mask.count_ones() + full))
                .or_default()
                .push(format!("/v1/sweep?entries={entries}&ways={list}"));
        }
    }
    let mut rng = Rng::new(seed ^ 0xF111_5EED);
    // (2j + 1) / 2n places the j-th of a class's n keys mid-way in its
    // share of the sequence.
    let mut placed: Vec<(u64, u64, CostClass, String)> = Vec::new();
    for (class, mut keys) in classes {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        let n = keys.len() as u64;
        placed.extend(
            keys.into_iter()
                .enumerate()
                .map(|(j, k)| (2 * j as u64 + 1, 2 * n, class, k)),
        );
    }
    placed.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)).then(a.2.cmp(&b.2)));
    placed
        .into_iter()
        .map(|(_, _, class, k)| (class, k))
        .collect()
}

/// The fill key sequence for `seed` (see [`fill_keys`]).
pub fn fill_paths(seed: u64) -> Vec<String> {
    fill_keys(seed).into_iter().map(|(_, k)| k).collect()
}

fn query_param<'a>(query: &'a str, name: &str) -> Option<&'a str> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
}

/// The body `memo-serve` must send for `path`: the `runner` render of
/// its key plus the newline the CLI's `println!` adds.
pub fn expected_body(cfg: ExpConfig, path: &str) -> Result<String, ExperimentError> {
    let (route, query) = path.split_once('?').unwrap_or((path, ""));
    let body = if let Some(n) = route.strip_prefix("/v1/table/") {
        runner::table(n.parse().expect("hot table paths are numbered"), cfg)?
    } else if let Some(n) = route.strip_prefix("/v1/figure/") {
        runner::figure(n.parse().expect("hot figure paths are numbered"), cfg)?
    } else if route == "/v1/sweep" {
        let q = SweepQuery::parse(query_param(query, "entries"), query_param(query, "ways"))?;
        runner::sweep(cfg, &q)?
    } else if route == "/v1/region" {
        runner::region(cfg)?
    } else {
        panic!("no artifact behind {path}");
    };
    Ok(format!("{body}\n"))
}

/// One sweep axis rendered in full: its title and both curves.
struct FullAxis {
    title: String,
    x_label: &'static str,
    curves: Vec<SweepCurve>,
}

/// Expected bodies for the fill keys without one sweep per key. Each
/// configuration's hit ratio does not depend on the other points of its
/// grid (the fused pass is exact), so every fill key's render is its
/// axis's full render restricted to the key's points. Each full axis is
/// also rendered by `runner::sweep` and must match its composed form, so
/// the composition is checked against the runner on every run.
pub struct SweepOracle {
    cfg: ExpConfig,
    axes: HashMap<String, FullAxis>,
}

/// An entry-count axis is named by its associativity, an associativity
/// axis by its entry count.
fn axis_name(q: &SweepQuery) -> String {
    if q.ways.len() > 1 {
        format!("ways@{}", q.entries[0])
    } else {
        format!("entries@{}", q.ways[0].canonical())
    }
}

impl SweepOracle {
    pub fn new(cfg: ExpConfig) -> Result<Self, ExperimentError> {
        let mut oracle = SweepOracle {
            cfg,
            axes: HashMap::new(),
        };
        let sizes: Vec<String> = SIZES.iter().map(usize::to_string).collect();
        for assoc in ENTRY_ASSOCS {
            oracle.add(&SweepQuery::parse(Some(&sizes.join(",")), Some(assoc))?)?;
        }
        for e in WAY_ENTRIES {
            oracle.add(&SweepQuery::parse(
                Some(&e.to_string()),
                Some(&WAYS.join(",")),
            )?)?;
        }
        Ok(oracle)
    }

    fn add(&mut self, q: &SweepQuery) -> Result<(), ExperimentError> {
        let (x_label, grid): (&'static str, Vec<(usize, MemoConfig)>) = if q.ways.len() > 1 {
            let e = q.entries[0];
            (
                "ways",
                q.ways.iter().map(|&a| (a.ways(e), config(e, a))).collect(),
            )
        } else {
            (
                "entries",
                q.entries
                    .iter()
                    .map(|&e| (e, config(e, q.ways[0])))
                    .collect(),
            )
        };
        let traces = figures::sample_traces(self.cfg)?;
        let curves: Vec<SweepCurve> = [OpKind::FpMul, OpKind::FpDiv]
            .iter()
            .map(|&k| figures::sweep_curve(&traces, k, &grid))
            .collect();
        let direct = runner::sweep(self.cfg, q)?;
        let title = direct.lines().next().unwrap_or_default().to_string();
        if figures::render_sweep(&title, x_label, &curves) != direct {
            return Err(ExperimentError::InvalidSweep(format!(
                "composed sweep render differs from runner::sweep for {}",
                q.canonical()
            )));
        }
        self.axes.insert(
            axis_name(q),
            FullAxis {
                title,
                x_label,
                curves,
            },
        );
        Ok(())
    }

    /// The body `memo-serve` must send for fill key `path`.
    pub fn expected(&self, path: &str) -> Result<String, ExperimentError> {
        let query = path.split_once('?').map_or("", |(_, q)| q);
        let q = SweepQuery::parse(query_param(query, "entries"), query_param(query, "ways"))?;
        let xs: Vec<usize> = if q.ways.len() > 1 {
            q.ways.iter().map(|a| a.ways(q.entries[0])).collect()
        } else {
            q.entries.clone()
        };
        let full = self
            .axes
            .get(&axis_name(&q))
            .expect("fill keys sweep a known axis");
        let curves: Vec<SweepCurve> = full
            .curves
            .iter()
            .map(|c| SweepCurve {
                kind: c.kind,
                points: xs
                    .iter()
                    .map(|x| {
                        *c.points
                            .iter()
                            .find(|p| p.x == *x)
                            .expect("fill point lies on its axis")
                    })
                    .collect(),
            })
            .collect();
        Ok(format!(
            "{}\n",
            figures::render_sweep(&full.title, full.x_label, &curves)
        ))
    }
}

fn config(entries: usize, assoc: Assoc) -> MemoConfig {
    MemoConfig::builder(entries)
        .assoc(assoc)
        .build()
        .expect("fill axes use valid geometries")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_keys_are_distinct_and_never_hot() {
        let fill = fill_paths(7);
        let mut sorted = fill.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), fill.len());
        assert!(fill.len() > 6000);
        for hot in hot_paths() {
            assert!(!fill.contains(&hot));
        }
        assert_ne!(fill, fill_paths(8));
        assert_eq!(fill, fill_paths(7));
    }

    #[test]
    fn fill_cost_profile_does_not_follow_the_seed() {
        let classes = |seed| {
            fill_keys(seed)
                .into_iter()
                .map(|(c, _)| c)
                .collect::<Vec<_>>()
        };
        assert_eq!(classes(1), classes(2));
        assert_ne!(fill_paths(1)[..100], fill_paths(2)[..100]);
    }

    #[test]
    fn composed_fill_renders_match_the_runner() {
        let cfg = ExpConfig::quick();
        let oracle = SweepOracle::new(cfg).unwrap();
        for path in fill_paths(3).iter().take(24) {
            assert_eq!(
                oracle.expected(path).unwrap(),
                expected_body(cfg, path).unwrap(),
                "{path}"
            );
        }
    }
}
