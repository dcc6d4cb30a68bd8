//! `perfbench-harness`: the in-process half of the repository benchmark.
//! `perfbench/run.py` starts the servers and calls these subcommands;
//! each prints one JSON object on its last line of standard output.
//!
//! ```text
//! perfbench-harness load --addr=HOST:PORT --mix=hot|fill --seconds=S --seed=N
//!                        [--trace=0|1] [--fill-start=N] [--direct=a=HOST:PORT,b=HOST:PORT]
//! perfbench-harness layers
//! perfbench-harness keys
//! perfbench-harness router-start --nodes=a=HOST:PORT,b=HOST:PORT
//! ```
//!
//! Problem sizes come from `MEMO_SCALE` / `MEMO_SCI_N`, as for the
//! binaries under test.

mod keys;
mod layers;
mod load;

use std::time::Instant;

use memo_cluster::router::{self, RouterConfig};
use memo_cluster::topology::Node;
use memo_experiments::ExpConfig;

/// A flat JSON object, printed in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Value)>);

enum Value {
    Num(f64),
    Int(u64),
    Str(String),
    Strs(Vec<String>),
}

impl Obj {
    pub fn num(&mut self, k: &str, v: f64) {
        self.0.push((k.to_string(), Value::Num(v)));
    }

    pub fn int(&mut self, k: &str, v: u64) {
        self.0.push((k.to_string(), Value::Int(v)));
    }

    pub fn str(&mut self, k: &str, v: &str) {
        self.0.push((k.to_string(), Value::Str(v.to_string())));
    }

    pub fn strs(&mut self, k: &str, v: Vec<String>) {
        self.0.push((k.to_string(), Value::Strs(v)));
    }

    /// A numeric field (0 when absent).
    pub fn get(&self, k: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| match v {
                Value::Num(x) => *x,
                Value::Int(x) => *x as f64,
                Value::Str(_) | Value::Strs(_) => 0.0,
            })
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    Value::Num(x) if x.is_finite() => format!("{x}"),
                    Value::Num(_) => "null".to_string(),
                    Value::Int(x) => x.to_string(),
                    Value::Str(s) => quoted(s),
                    Value::Strs(v) => {
                        format!(
                            "[{}]",
                            v.iter().map(|s| quoted(s)).collect::<Vec<_>>().join(", ")
                        )
                    }
                };
                format!("\"{k}\": {v}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Nearest-rank quantile of sorted values (0 for no values).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Microseconds to milliseconds.
pub fn ms(micros: u64) -> f64 {
    micros as f64 / 1e3
}

fn flag(name: &str) -> Option<String> {
    let prefix = format!("--{name}=");
    std::env::args().find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
}

fn num_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    flag(name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("bad --{name}={v}")))
    })
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench-harness: {msg}");
    std::process::exit(2);
}

/// `name=host:port,...`
fn nodes(spec: &str) -> Vec<(String, String)> {
    spec.split(',')
        .filter(|e| !e.is_empty())
        .map(|e| {
            let (n, a) = e
                .split_once('=')
                .unwrap_or_else(|| die(&format!("bad node {e:?}")));
            (n.to_string(), a.to_string())
        })
        .collect()
}

/// Time `router::start` (bind, ring build, worker and prober threads)
/// over running nodes, then drain the router again.
fn router_start() -> Obj {
    let fleet = nodes(&flag("nodes").unwrap_or_else(|| die("--nodes= is required")));
    let config = RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        nodes: fleet
            .into_iter()
            .map(|(name, addr)| Node { name, addr })
            .collect(),
        cfg: ExpConfig::from_env(),
        ..RouterConfig::default()
    };
    let t0 = Instant::now();
    let handle = router::start(&config).unwrap_or_else(|e| die(&format!("router start: {e}")));
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;
    handle.shutdown();
    handle.wait();
    let mut out = Obj::default();
    out.num("start_ms", start_ms);
    out
}

fn main() {
    let out = match std::env::args().nth(1).as_deref() {
        Some("load") => {
            let mix = match flag("mix").as_deref() {
                Some("hot") => load::Mix::Hot,
                Some("fill") => load::Mix::Fill,
                other => die(&format!("--mix must be hot or fill, got {other:?}")),
            };
            load::run(&load::LoadArgs {
                addr: flag("addr").unwrap_or_else(|| die("--addr= is required")),
                mix,
                seconds: num_flag("seconds", 10.0),
                seed: num_flag("seed", 1),
                cfg: ExpConfig::from_env(),
                trace: num_flag("trace", 0) == 1,
                fill_start: num_flag("fill-start", 0),
                direct: flag("direct").map(|s| nodes(&s)).unwrap_or_default(),
            })
        }
        Some("layers") => layers::run(ExpConfig::from_env()),
        Some("router-start") => router_start(),
        Some("keys") => {
            let mut out = Obj::default();
            out.strs("warm", keys::hot_paths());
            out
        }
        other => die(&format!(
            "unknown subcommand {other:?}; see the module docs"
        )),
    };
    println!("{}", out.to_json());
}
