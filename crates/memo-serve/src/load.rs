//! A deterministic load generator for the memo-serve endpoint space.
//!
//! N connection threads replay a weighted request mix drawn from a
//! [`SplitMix64`] stream (seeded, split per connection — two runs with
//! the same seed issue the same requests), in closed-loop (next request
//! after the previous response) or open-loop (fixed per-connection
//! request rate) mode. Latencies land in cold/warm/disk histograms keyed
//! off the server's `x-memo-cache` header (`miss`, `hit`, `disk`), and
//! the summary is written as `BENCH_serve.json` next to the bench
//! artifacts the repo already produces.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use memo_table::rng::SplitMix64;

use crate::hist::Histogram;
use crate::http;

/// Open vs closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Issue the next request as soon as the previous response lands.
    Closed,
    /// Issue requests at a fixed per-connection rate (per second),
    /// sleeping between sends; measures latency under a set demand.
    Open {
        /// Requests per second per connection.
        rate: u32,
    },
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Concurrent connections (threads).
    pub connections: usize,
    /// How long to run.
    pub duration: Duration,
    /// Open or closed loop.
    pub mode: Mode,
    /// PRNG seed; same seed → same request sequence.
    pub seed: u64,
    /// Per-mille of requests redirected to deterministic never-cached
    /// artifact keys (cheap trace-free tables at off-default `scale`
    /// values the warm mix never requests). `0` disables; `300` makes
    /// ~30% of the mix guaranteed store misses, exercising the
    /// bloom-filter path.
    pub store_miss_permille: u32,
    /// Cluster mode: the target is a memo-router, not a single node.
    /// Responses are attributed per backend node via `x-memo-node`,
    /// routing-table swaps are counted via `x-memo-ring-gen`, and the
    /// router's failover/read-repair totals are scraped into the report
    /// after the run.
    pub cluster: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7070".to_string(),
            connections: 32,
            duration: Duration::from_secs(15),
            mode: Mode::Closed,
            seed: 1998, // the paper's year
            store_miss_permille: 0,
            cluster: false,
        }
    }
}

/// The weighted request mix. Tables dominate (they are the paper's
/// artifacts), a hot table gives the cache an easy win, sweeps exercise
/// the fused replay path, and healthz/metrics model probes.
fn pick_target(rng: &mut SplitMix64) -> String {
    let roll = rng.next_below(100);
    match roll {
        // 35%: a uniformly random table.
        0..=34 => format!("/v1/table/{}", 1 + rng.next_below(13)),
        // 10%: the hot table — repeated key, guaranteed cache traffic.
        35..=44 => "/v1/table/1".to_string(),
        // 15%: a figure.
        45..=59 => format!("/v1/figure/{}", 2 + rng.next_below(3)),
        // 20%: one of a few canned sweeps.
        60..=79 => match rng.next_below(3) {
            0 => "/v1/sweep?entries=8,16,32".to_string(),
            1 => "/v1/sweep?ways=1,2,4".to_string(),
            _ => "/v1/sweep".to_string(),
        },
        // 10%: health probe.
        80..=89 => "/healthz".to_string(),
        // 10%: metrics scrape.
        _ => "/metrics".to_string(),
    }
}

/// Tables whose render cost is flat (sub-100 ms) across the whole
/// `scale` range, measured table-first on a fresh process so no other
/// request could have pre-warmed shared state. The walk must stay on
/// these: every other table touches per-scale kernel state whose first
/// computation explodes somewhere in the range — re-recorded traces
/// cost tens of seconds of CPU and up to a gigabyte of archive pushed
/// through the store per key (table 7), and the small-`scale` end
/// takes minutes outright (tables 12 and 13 at `scale≤2`). Either
/// failure pins a worker past the client timeout and stalls everyone
/// else behind the flush queue. A load knob that is meant to probe the
/// store's negative path must not *write* the store into the ground.
const MISS_TABLES: [u64; 3] = [1, 2, 3];

/// The `idx`-th never-cached artifact target: a counter walk through the
/// `(table, scale)` space in mixed-radix order, so consecutive indices
/// never collide until the whole space (3 flat-cost tables × 63 scales
/// = 189 keys) wraps. `scale` skips 16 — the CI boot default, whose
/// keys the background mix already caches — and `sci_n` stays at the
/// server default so no scientific-kernel trace is ever recorded. Each
/// caller lane strides by the connection count, keeping indices
/// globally unique across threads.
fn miss_target(idx: u64) -> String {
    let table = MISS_TABLES[usize::try_from(idx % 3).expect("mod 3 fits usize")];
    // Query values match the server's clamp range (1..=64), so every
    // combination is a distinct canonical cache/store key.
    let mut scale = 1 + (idx / 3) % 63;
    if scale >= 16 {
        scale += 1;
    }
    format!("/v1/table/{table}?scale={scale}")
}

/// How the server's `x-memo-cache` header classified one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheClass {
    /// `x-memo-cache: hit` — served from the in-memory result cache.
    Memory,
    /// `x-memo-cache: disk` — loaded from the persistent store.
    Disk,
    /// Any other `x-memo-cache` value — computed fresh.
    Miss,
    /// No header: the endpoint is not cacheable (healthz, metrics, …).
    Uncached,
}

impl CacheClass {
    fn from_header(value: &str) -> CacheClass {
        match value {
            "hit" => CacheClass::Memory,
            "disk" => CacheClass::Disk,
            _ => CacheClass::Miss,
        }
    }
}

/// Everything the load loop needs from one response, distilled from the
/// shared [`http::read_response`] parser.
struct Observed {
    status: u16,
    cache: CacheClass,
    /// `x-memo-node`: which fleet member answered (cluster mode).
    node: Option<String>,
    /// `x-memo-ring-gen`: the router's routing-table generation; a
    /// change between responses on one lane is a rebalance event.
    ring_gen: Option<u64>,
    /// `Retry-After` seconds, present on shed 503s.
    retry_after: Option<u64>,
    /// First line of the body of a response that counts as an error:
    /// the server's stated cause. Empty for every other response.
    cause: String,
    keep_alive: bool,
}

/// Whether `status` counts as an error: anything but 2xx, 4xx and the
/// deliberate 503 shed.
fn is_other_5xx(status: u16) -> bool {
    !matches!(status, 200..=299 | 400..=499 | 503)
}

/// The first line of `body`, trimmed and capped at [`CAUSE_CHARS`].
fn first_line(body: &[u8]) -> String {
    let text = String::from_utf8_lossy(body);
    text.lines().next().unwrap_or("").trim().chars().take(CAUSE_CHARS).collect()
}

/// Longest body line kept as a failure's cause.
const CAUSE_CHARS: usize = 240;

/// Read exactly one response off `stream` and distill it.
fn observe_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> io::Result<Observed> {
    let resp = http::read_response(stream, scratch)?;
    Ok(Observed {
        status: resp.status,
        cache: resp
            .header("x-memo-cache")
            .map_or(CacheClass::Uncached, CacheClass::from_header),
        node: resp.header("x-memo-node").map(str::to_string),
        ring_gen: resp.header("x-memo-ring-gen").and_then(|v| v.parse().ok()),
        retry_after: resp.header("retry-after").and_then(|v| v.trim().parse().ok()),
        keep_alive: resp.keep_alive(),
        cause: if is_other_5xx(resp.status) { first_line(&resp.body) } else { String::new() },
    })
}

/// Per-backend-node tallies, keyed by the `x-memo-node` header value.
struct NodeTally {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl NodeTally {
    fn new() -> Self {
        NodeTally { requests: AtomicU64::new(0), errors: AtomicU64::new(0), latency: Histogram::new() }
    }
}

/// Get-or-insert a node's tally; each lane caches the `Arc` locally so
/// the registry lock is taken only the first time a lane sees a node.
fn node_tally(
    local: &mut HashMap<String, Arc<NodeTally>>,
    registry: &Mutex<HashMap<String, Arc<NodeTally>>>,
    node: &str,
) -> Arc<NodeTally> {
    if let Some(t) = local.get(node) {
        return Arc::clone(t);
    }
    let t = {
        let mut reg = registry.lock().expect("node registry");
        Arc::clone(reg.entry(node.to_string()).or_insert_with(|| Arc::new(NodeTally::new())))
    };
    local.insert(node.to_string(), Arc::clone(&t));
    t
}

/// Shared tallies across connection threads.
#[derive(Default)]
struct Tally {
    requests: AtomicU64,
    /// Transport/protocol failures plus 5xx other than backpressure.
    errors: AtomicU64,
    /// Connection-level failures only: write errors, EOF mid-response,
    /// protocol garbage. Disjoint from `other_5xx`.
    transport_errors: AtomicU64,
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    backpressure_503: AtomicU64,
    /// Non-backpressure 5xx responses, per status code.
    other_5xx: Mutex<BTreeMap<u16, StatusFailures>>,
    cache_hits: AtomicU64,
    cache_disk_hits: AtomicU64,
    cache_misses: AtomicU64,
    reconnects: AtomicU64,
    /// Closed-loop lanes that slept out a shed 503's `Retry-After`
    /// instead of immediately re-dialing.
    retry_after_waits: AtomicU64,
    /// Routing-table generation changes observed mid-run (`x-memo-ring-gen`).
    rebalance_events: AtomicU64,
}

/// The final report, serialized into `BENCH_serve.json`.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests completed (a response was read).
    pub requests: u64,
    /// Transport/protocol failures plus non-backpressure 5xx.
    pub errors: u64,
    /// Transport/protocol failures alone (no HTTP response landed):
    /// write errors, EOF mid-response, unparseable bytes. The server
    /// shedding load with 503 is deliberately NOT in this bucket — see
    /// [`backpressure_503`](Self::backpressure_503).
    pub transport_errors: u64,
    /// 2xx responses.
    pub status_2xx: u64,
    /// 4xx responses.
    pub status_4xx: u64,
    /// 503s (shed load — expected under pressure, not an error).
    pub backpressure_503: u64,
    /// 5xx responses other than 503, one entry per status code in
    /// ascending order (these count as errors).
    pub other_5xx: Vec<StatusFailures>,
    /// Responses tagged `x-memo-cache: hit` (in-memory warm).
    pub cache_hits: u64,
    /// Responses tagged `x-memo-cache: disk` (persistent-store warm).
    pub cache_disk_hits: u64,
    /// Responses tagged `x-memo-cache: miss`.
    pub cache_misses: u64,
    /// Connection re-establishments after transport errors.
    pub reconnects: u64,
    /// Shed 503s whose `Retry-After` a closed-loop lane slept out.
    pub retry_after_waits: u64,
    /// Cluster-mode extras; `None` outside `--cluster` runs.
    pub cluster: Option<ClusterReport>,
    /// Wall-clock seconds the run took.
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Latency of cache-miss (cold) artifact requests, microseconds.
    pub cold: LatencySummary,
    /// Latency of in-memory cache-hit (warm) artifact requests,
    /// microseconds.
    pub cached: LatencySummary,
    /// Latency of persistent-store hits (warm after a restart),
    /// microseconds.
    pub disk: LatencySummary,
    /// Latency of everything else (healthz/metrics/errors).
    pub uncached: LatencySummary,
}

/// Every response of one non-backpressure 5xx status in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusFailures {
    /// The status code.
    pub status: u16,
    /// Responses that carried it.
    pub count: u64,
    /// First line of the first such response's body: the server's own
    /// account of the cause (`every replica failed`, …).
    pub first_line: String,
}

impl StatusFailures {
    fn to_json(&self) -> String {
        format!(
            "{{\"status\": {}, \"count\": {}, \"first_line\": \"{}\"}}",
            self.status,
            self.count,
            json_escape(&self.first_line)
        )
    }
}

/// Escape `s` for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// One backend node's slice of a cluster-mode run, attributed via the
/// `x-memo-node` response header.
#[derive(Debug)]
pub struct NodeReport {
    /// The node's identity (`--node-id`).
    pub node: String,
    /// Responses this node answered.
    pub requests: u64,
    /// Non-backpressure 5xx among them.
    pub errors: u64,
    /// Latency of this node's responses, microseconds.
    pub latency: LatencySummary,
}

/// Cluster-mode extras: per-node attribution plus the router-side
/// totals the run provoked.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-node tallies, sorted by node name for stable output.
    pub per_node: Vec<NodeReport>,
    /// Routing-table generation changes observed mid-run.
    pub rebalance_events: u64,
    /// `memo_router_failovers_total` scraped from the router after the run.
    pub failovers: u64,
    /// `memo_router_read_repairs_total` scraped from the router after the run.
    pub read_repairs: u64,
}

/// Quantiles pulled from one histogram.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Samples.
    pub count: u64,
    /// Median, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Largest sample, microseconds.
    pub max_us: u64,
    /// Mean, microseconds.
    pub mean_us: f64,
}

impl LatencySummary {
    fn from(h: &Histogram) -> Self {
        LatencySummary {
            count: h.count(),
            p50_us: h.quantile(0.50),
            p90_us: h.quantile(0.90),
            p99_us: h.quantile(0.99),
            max_us: h.max(),
            mean_us: h.mean(),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"mean_us\": {:.1}}}",
            self.count, self.p50_us, self.p90_us, self.p99_us, self.max_us, self.mean_us
        )
    }
}

impl LoadReport {
    /// Render as JSON in the style of the repo's other BENCH artifacts.
    #[must_use]
    pub fn to_json(&self, config: &LoadConfig) -> String {
        let mode = match config.mode {
            Mode::Closed => "\"closed\"".to_string(),
            Mode::Open { rate } => format!("{{\"open_rate_per_conn\": {rate}}}"),
        };
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"memo_serve_load\",");
        let _ = writeln!(out, "  \"addr\": \"{}\",", config.addr);
        let _ = writeln!(out, "  \"connections\": {},", config.connections);
        let _ = writeln!(out, "  \"duration_s\": {:.1},", config.duration.as_secs_f64());
        let _ = writeln!(out, "  \"mode\": {mode},");
        let _ = writeln!(out, "  \"seed\": {},", config.seed);
        let _ = writeln!(out, "  \"store_miss_permille\": {},", config.store_miss_permille);
        let _ = writeln!(out, "  \"requests\": {},", self.requests);
        let _ = writeln!(out, "  \"errors\": {},", self.errors);
        let _ = writeln!(out, "  \"transport_errors\": {},", self.transport_errors);
        let _ = writeln!(out, "  \"status_2xx\": {},", self.status_2xx);
        let _ = writeln!(out, "  \"status_4xx\": {},", self.status_4xx);
        let _ = writeln!(out, "  \"backpressure_503\": {},", self.backpressure_503);
        let other: Vec<String> = self.other_5xx.iter().map(StatusFailures::to_json).collect();
        let _ = writeln!(out, "  \"other_5xx\": [{}],", other.join(", "));
        let _ = writeln!(out, "  \"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(out, "  \"cache_disk_hits\": {},", self.cache_disk_hits);
        let _ = writeln!(out, "  \"cache_misses\": {},", self.cache_misses);
        let _ = writeln!(out, "  \"reconnects\": {},", self.reconnects);
        let _ = writeln!(out, "  \"retry_after_waits\": {},", self.retry_after_waits);
        let _ = writeln!(out, "  \"elapsed_secs\": {:.2},", self.elapsed_secs);
        let _ = writeln!(out, "  \"throughput_rps\": {:.1},", self.throughput_rps);
        if let Some(cluster) = &self.cluster {
            let _ = writeln!(out, "  \"cluster\": {{");
            let _ = writeln!(out, "    \"rebalance_events\": {},", cluster.rebalance_events);
            let _ = writeln!(out, "    \"failovers\": {},", cluster.failovers);
            let _ = writeln!(out, "    \"read_repairs\": {},", cluster.read_repairs);
            let _ = writeln!(out, "    \"per_node\": {{");
            for (i, n) in cluster.per_node.iter().enumerate() {
                let comma = if i + 1 < cluster.per_node.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "      \"{}\": {{\"requests\": {}, \"errors\": {}, \"latency_us\": {}}}{comma}",
                    n.node,
                    n.requests,
                    n.errors,
                    n.latency.to_json()
                );
            }
            let _ = writeln!(out, "    }}");
            let _ = writeln!(out, "  }},");
        }
        let _ = writeln!(out, "  \"latency_us\": {{");
        let _ = writeln!(out, "    \"cold\": {},", self.cold.to_json());
        let _ = writeln!(out, "    \"cached\": {},", self.cached.to_json());
        let _ = writeln!(out, "    \"disk\": {},", self.disk.to_json());
        let _ = writeln!(out, "    \"uncached\": {}", self.uncached.to_json());
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Non-backpressure 5xx responses over every status code.
    #[must_use]
    pub fn other_5xx_total(&self) -> u64 {
        self.other_5xx.iter().map(|f| f.count).sum()
    }

    /// ` [502 x2 "every replica failed", …]`, or nothing when no
    /// response counted as a 5xx error.
    #[must_use]
    pub fn other_5xx_causes(&self) -> String {
        if self.other_5xx.is_empty() {
            return String::new();
        }
        let each: Vec<String> = self
            .other_5xx
            .iter()
            .map(|f| format!("{} x{} {:?}", f.status, f.count, f.first_line))
            .collect();
        format!(" [{}]", each.join(", "))
    }

    /// One-paragraph human summary for stdout.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} requests in {:.1}s ({:.0} rps), {} errors ({} transport); \
             2xx={} 4xx={} shed-503={} other-5xx={}{}; \
             cache hits={} disk={} misses={}; \
             cold p50/p99 = {}/{} us, cached p50/p99 = {}/{} us, disk p50/p99 = {}/{} us",
            self.requests,
            self.elapsed_secs,
            self.throughput_rps,
            self.errors,
            self.transport_errors,
            self.status_2xx,
            self.status_4xx,
            self.backpressure_503,
            self.other_5xx_total(),
            self.other_5xx_causes(),
            self.cache_hits,
            self.cache_disk_hits,
            self.cache_misses,
            self.cold.p50_us,
            self.cold.p99_us,
            self.cached.p50_us,
            self.cached.p99_us,
            self.disk.p50_us,
            self.disk.p99_us,
        );
        if let Some(cluster) = &self.cluster {
            let nodes = cluster
                .per_node
                .iter()
                .map(|n| format!("{}={}", n.node, n.requests))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = write!(
                line,
                "; cluster: nodes [{nodes}], rebalances={}, failovers={}, read-repairs={}",
                cluster.rebalance_events, cluster.failovers, cluster.read_repairs,
            );
        }
        line
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Scrape the router's failover and read-repair totals off its
/// `/metrics` endpoint after a cluster-mode run.
fn scrape_router_counters(addr: &str) -> (u64, u64) {
    let grab = |text: &str, name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    let Ok(mut stream) = connect(addr) else { return (0, 0) };
    let req = b"GET /metrics HTTP/1.1\r\nhost: memo-load\r\nconnection: close\r\n\r\n";
    if stream.write_all(req).is_err() {
        return (0, 0);
    }
    let mut scratch = Vec::with_capacity(8192);
    let Ok(resp) = http::read_response(&mut stream, &mut scratch) else { return (0, 0) };
    let text = String::from_utf8_lossy(&resp.body);
    (
        grab(&text, "memo_router_failovers_total "),
        grab(&text, "memo_router_read_repairs_total "),
    )
}

/// Run the load according to `config` and collect the report.
#[must_use]
pub fn run(config: &LoadConfig) -> LoadReport {
    let tally = Arc::new(Tally::default());
    let cold = Arc::new(Histogram::new());
    let cached = Arc::new(Histogram::new());
    let disk = Arc::new(Histogram::new());
    let uncached = Arc::new(Histogram::new());
    let nodes: Arc<Mutex<HashMap<String, Arc<NodeTally>>>> = Arc::new(Mutex::new(HashMap::new()));
    let started = Instant::now();
    let deadline = started + config.duration;

    let root = SplitMix64::new(config.seed);
    let lanes = config.connections.max(1) as u64;
    let miss_permille = u64::from(config.store_miss_permille.min(1000));
    let handles: Vec<_> = (0..config.connections.max(1))
        .map(|conn_id| {
            let addr = config.addr.clone();
            let mode = config.mode;
            let lane = conn_id as u64;
            let mut rng = root.split(&format!("conn-{conn_id}"));
            let tally = Arc::clone(&tally);
            let cold = Arc::clone(&cold);
            let cached = Arc::clone(&cached);
            let disk = Arc::clone(&disk);
            let uncached = Arc::clone(&uncached);
            let nodes = Arc::clone(&nodes);
            thread::spawn(move || {
                let mut stream = None;
                let mut scratch = Vec::with_capacity(8192);
                let mut local_nodes: HashMap<String, Arc<NodeTally>> = HashMap::new();
                let mut last_ring_gen: Option<u64> = None;
                // Strided per-lane counter: lane, lane+lanes, lane+2·lanes, …
                // — globally unique miss indices without cross-thread state.
                let mut miss_seq = 0u64;
                let gap = match mode {
                    Mode::Closed => Duration::ZERO,
                    Mode::Open { rate } => Duration::from_secs(1) / rate.max(1),
                };
                let mut next_send = Instant::now();
                while Instant::now() < deadline {
                    if gap > Duration::ZERO {
                        let now = Instant::now();
                        if next_send > now {
                            thread::sleep((next_send - now).min(Duration::from_millis(50)));
                            continue;
                        }
                        next_send += gap;
                    }
                    let target = if miss_permille > 0 && rng.next_below(1000) < miss_permille {
                        let idx = miss_seq * lanes + lane;
                        miss_seq += 1;
                        miss_target(idx)
                    } else {
                        pick_target(&mut rng)
                    };
                    let s = match stream.take() {
                        Some(s) => s,
                        None => match connect(&addr) {
                            Ok(s) => s,
                            Err(_) => {
                                tally.reconnects.fetch_add(1, Ordering::Relaxed);
                                thread::sleep(Duration::from_millis(20));
                                continue;
                            }
                        },
                    };
                    let mut s = s;
                    let raw = format!("GET {target} HTTP/1.1\r\nhost: memo-serve\r\n\r\n");
                    let send = Instant::now();
                    if s.write_all(raw.as_bytes()).is_err() {
                        tally.errors.fetch_add(1, Ordering::Relaxed);
                        tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                        tally.reconnects.fetch_add(1, Ordering::Relaxed);
                        continue; // stream dropped; reconnect next round
                    }
                    match observe_response(&mut s, &mut scratch) {
                        Ok(resp) => {
                            let micros =
                                u64::try_from(send.elapsed().as_micros()).unwrap_or(u64::MAX);
                            tally.requests.fetch_add(1, Ordering::Relaxed);
                            match resp.status {
                                200..=299 => tally.status_2xx.fetch_add(1, Ordering::Relaxed),
                                400..=499 => tally.status_4xx.fetch_add(1, Ordering::Relaxed),
                                503 => tally.backpressure_503.fetch_add(1, Ordering::Relaxed),
                                status => {
                                    tally
                                        .other_5xx
                                        .lock()
                                        .expect("5xx tally poisoned by a panicked lane")
                                        .entry(status)
                                        .or_insert_with(|| StatusFailures {
                                            status,
                                            count: 0,
                                            first_line: resp.cause.clone(),
                                        })
                                        .count += 1;
                                    tally.errors.fetch_add(1, Ordering::Relaxed)
                                }
                            };
                            match resp.cache {
                                CacheClass::Memory => {
                                    tally.cache_hits.fetch_add(1, Ordering::Relaxed);
                                    cached.record(micros);
                                }
                                CacheClass::Disk => {
                                    tally.cache_disk_hits.fetch_add(1, Ordering::Relaxed);
                                    disk.record(micros);
                                }
                                CacheClass::Miss => {
                                    tally.cache_misses.fetch_add(1, Ordering::Relaxed);
                                    cold.record(micros);
                                }
                                CacheClass::Uncached => uncached.record(micros),
                            }
                            if let Some(node) = resp.node.as_deref() {
                                let nt = node_tally(&mut local_nodes, &nodes, node);
                                nt.requests.fetch_add(1, Ordering::Relaxed);
                                if resp.status >= 500 && resp.status != 503 {
                                    nt.errors.fetch_add(1, Ordering::Relaxed);
                                }
                                nt.latency.record(micros);
                            }
                            if let Some(gen) = resp.ring_gen {
                                if last_ring_gen.is_some_and(|last| last != gen) {
                                    tally.rebalance_events.fetch_add(1, Ordering::Relaxed);
                                }
                                last_ring_gen = Some(gen);
                            }
                            if resp.status == 503 {
                                // Shed: back off for as long as the server
                                // asked (closed loop), instead of turning
                                // a backpressure storm into a re-dial
                                // storm. Open loop keeps its fixed pacing;
                                // the shed socket is dropped either way.
                                let backoff = match (mode, resp.retry_after) {
                                    (Mode::Closed, Some(secs)) => {
                                        tally.retry_after_waits.fetch_add(1, Ordering::Relaxed);
                                        Duration::from_secs(secs).min(Duration::from_secs(2))
                                    }
                                    _ => Duration::from_millis(10),
                                };
                                let now = Instant::now();
                                if now < deadline {
                                    thread::sleep(backoff.min(deadline - now));
                                }
                            } else if resp.keep_alive {
                                stream = Some(s);
                            }
                        }
                        Err(_) => {
                            tally.errors.fetch_add(1, Ordering::Relaxed);
                            tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                            tally.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }

    let elapsed = started.elapsed().as_secs_f64();
    let requests = tally.requests.load(Ordering::Relaxed);
    #[allow(clippy::cast_precision_loss)]
    let throughput = if elapsed > 0.0 { requests as f64 / elapsed } else { 0.0 };
    let cluster = config.cluster.then(|| {
        let (failovers, read_repairs) = scrape_router_counters(&config.addr);
        let mut per_node: Vec<NodeReport> = nodes
            .lock()
            .expect("node registry")
            .iter()
            .map(|(node, t)| NodeReport {
                node: node.clone(),
                requests: t.requests.load(Ordering::Relaxed),
                errors: t.errors.load(Ordering::Relaxed),
                latency: LatencySummary::from(&t.latency),
            })
            .collect();
        per_node.sort_by(|a, b| a.node.cmp(&b.node));
        ClusterReport {
            per_node,
            rebalance_events: tally.rebalance_events.load(Ordering::Relaxed),
            failovers,
            read_repairs,
        }
    });
    let other_5xx = tally
        .other_5xx
        .lock()
        .expect("5xx tally poisoned by a panicked lane")
        .values()
        .cloned()
        .collect();
    LoadReport {
        requests,
        errors: tally.errors.load(Ordering::Relaxed),
        transport_errors: tally.transport_errors.load(Ordering::Relaxed),
        status_2xx: tally.status_2xx.load(Ordering::Relaxed),
        status_4xx: tally.status_4xx.load(Ordering::Relaxed),
        backpressure_503: tally.backpressure_503.load(Ordering::Relaxed),
        other_5xx,
        cache_hits: tally.cache_hits.load(Ordering::Relaxed),
        cache_disk_hits: tally.cache_disk_hits.load(Ordering::Relaxed),
        cache_misses: tally.cache_misses.load(Ordering::Relaxed),
        reconnects: tally.reconnects.load(Ordering::Relaxed),
        retry_after_waits: tally.retry_after_waits.load(Ordering::Relaxed),
        cluster,
        elapsed_secs: elapsed,
        throughput_rps: throughput,
        cold: LatencySummary::from(&cold),
        cached: LatencySummary::from(&cached),
        disk: LatencySummary::from(&disk),
        uncached: LatencySummary::from(&uncached),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_deterministic_per_seed() {
        let a: Vec<String> = {
            let mut rng = SplitMix64::new(7).split("conn-0");
            (0..50).map(|_| pick_target(&mut rng)).collect()
        };
        let b: Vec<String> = {
            let mut rng = SplitMix64::new(7).split("conn-0");
            (0..50).map(|_| pick_target(&mut rng)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<String> = {
            let mut rng = SplitMix64::new(8).split("conn-0");
            (0..50).map(|_| pick_target(&mut rng)).collect()
        };
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn request_mix_targets_are_valid_routes() {
        let mut rng = SplitMix64::new(3).split("conn-1");
        for _ in 0..500 {
            let t = pick_target(&mut rng);
            assert!(
                t == "/healthz"
                    || t == "/metrics"
                    || t.starts_with("/v1/table/")
                    || t.starts_with("/v1/figure/")
                    || t.starts_with("/v1/sweep"),
                "unexpected target {t}"
            );
            if let Some(n) = t.strip_prefix("/v1/table/") {
                let n: usize = n.parse().unwrap();
                assert!((1..=13).contains(&n));
            }
            if let Some(n) = t.strip_prefix("/v1/figure/") {
                let n: usize = n.parse().unwrap();
                assert!((2..=4).contains(&n));
            }
        }
    }

    #[test]
    fn miss_targets_are_unique_and_valid_until_the_space_wraps() {
        let space = 3 * 63;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..space {
            let t = miss_target(idx);
            assert!(seen.insert(t.clone()), "duplicate miss target {t} at idx {idx}");
            let rest = t.strip_prefix("/v1/table/").expect("table route");
            let (table, query) = rest.split_once('?').expect("query string");
            let table: u64 = table.parse().unwrap();
            assert!(MISS_TABLES.contains(&table), "table {table} is not trace-free");
            let scale: u64 = query.strip_prefix("scale=").unwrap().parse().unwrap();
            // Inside the server's clamp range, so the key the server
            // canonicalizes is exactly the one we asked for — but never
            // the boot default 16, whose key the warm mix owns.
            assert!((1..=64).contains(&scale));
            assert_ne!(scale, 16, "boot-default scale would collide with the warm mix");
        }
        // The walk is a cycle: the next index revisits the first key.
        assert_eq!(miss_target(space), miss_target(0));
    }

    #[test]
    fn strided_lanes_never_collide_on_miss_indices() {
        let lanes = 4u64;
        let mut seen = std::collections::HashSet::new();
        for lane in 0..lanes {
            for seq in 0..100u64 {
                assert!(seen.insert(seq * lanes + lane));
            }
        }
    }

    #[test]
    fn report_json_is_structurally_sound() {
        let report = LoadReport {
            requests: 10,
            errors: 2,
            transport_errors: 0,
            status_2xx: 10,
            status_4xx: 0,
            backpressure_503: 0,
            other_5xx: vec![StatusFailures {
                status: 502,
                count: 2,
                first_line: "every \"replica\" failed".to_string(),
            }],
            cache_hits: 3,
            cache_disk_hits: 1,
            cache_misses: 6,
            reconnects: 0,
            retry_after_waits: 2,
            cluster: None,
            elapsed_secs: 1.5,
            throughput_rps: 6.7,
            cold: LatencySummary { count: 6, p50_us: 100, p90_us: 200, p99_us: 300, max_us: 400, mean_us: 150.0 },
            cached: LatencySummary { count: 3, p50_us: 10, p90_us: 20, p99_us: 30, max_us: 40, mean_us: 15.0 },
            disk: LatencySummary { count: 1, p50_us: 55, p90_us: 55, p99_us: 55, max_us: 55, mean_us: 55.0 },
            uncached: LatencySummary { count: 0, p50_us: 0, p90_us: 0, p99_us: 0, max_us: 0, mean_us: 0.0 },
        };
        let json = report.to_json(&LoadConfig::default());
        assert!(json.contains("\"bench\": \"memo_serve_load\""));
        assert!(json.contains("\"store_miss_permille\": 0"));
        assert!(json.contains("\"transport_errors\": 0"));
        assert!(json.contains("\"retry_after_waits\": 2"));
        assert!(json.contains("\"cache_hits\": 3"));
        assert!(json.contains("\"cache_disk_hits\": 1"));
        assert!(json.contains("\"disk\": {\"count\": 1"));
        assert!(json.contains("\"p99_us\": 300"));
        assert!(
            json.contains(
                "\"other_5xx\": [{\"status\": 502, \"count\": 2, \"first_line\": \"every \\\"replica\\\" failed\"}]"
            ),
            "{json}"
        );
        assert!(!json.contains("\"cluster\""), "no cluster block outside cluster mode");
        // Balanced braces — cheap structural sanity without a parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(report.summary().contains("10 requests"));
        assert!(report.summary().contains("disk=1"));
        assert!(
            report.summary().contains(r#"other-5xx=2 [502 x2 "every \"replica\" failed"]"#),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn cluster_report_renders_per_node_and_counters() {
        let mut report = LoadReport {
            requests: 4,
            errors: 0,
            transport_errors: 0,
            status_2xx: 4,
            status_4xx: 0,
            backpressure_503: 0,
            other_5xx: Vec::new(),
            cache_hits: 4,
            cache_disk_hits: 0,
            cache_misses: 0,
            reconnects: 0,
            retry_after_waits: 0,
            cluster: None,
            elapsed_secs: 1.0,
            throughput_rps: 4.0,
            cold: LatencySummary { count: 0, p50_us: 0, p90_us: 0, p99_us: 0, max_us: 0, mean_us: 0.0 },
            cached: LatencySummary { count: 4, p50_us: 10, p90_us: 20, p99_us: 30, max_us: 40, mean_us: 15.0 },
            disk: LatencySummary { count: 0, p50_us: 0, p90_us: 0, p99_us: 0, max_us: 0, mean_us: 0.0 },
            uncached: LatencySummary { count: 0, p50_us: 0, p90_us: 0, p99_us: 0, max_us: 0, mean_us: 0.0 },
        };
        report.cluster = Some(ClusterReport {
            per_node: vec![
                NodeReport {
                    node: "n1".to_string(),
                    requests: 3,
                    errors: 0,
                    latency: LatencySummary { count: 3, p50_us: 10, p90_us: 20, p99_us: 30, max_us: 40, mean_us: 15.0 },
                },
                NodeReport {
                    node: "n2".to_string(),
                    requests: 1,
                    errors: 0,
                    latency: LatencySummary { count: 1, p50_us: 9, p90_us: 9, p99_us: 9, max_us: 9, mean_us: 9.0 },
                },
            ],
            rebalance_events: 1,
            failovers: 2,
            read_repairs: 5,
        });
        let json = report.to_json(&LoadConfig { cluster: true, ..LoadConfig::default() });
        assert!(json.contains("\"rebalance_events\": 1"));
        assert!(json.contains("\"failovers\": 2"));
        assert!(json.contains("\"read_repairs\": 5"));
        assert!(json.contains("\"n1\": {\"requests\": 3"));
        assert!(json.contains("\"n2\": {\"requests\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let s = report.summary();
        assert!(s.contains("n1=3"), "{s}");
        assert!(s.contains("failovers=2"), "{s}");
        assert!(s.contains("other-5xx=0;"), "{s}");
        assert!(json.contains("\"other_5xx\": [],"), "{json}");
    }

    #[test]
    fn cache_header_values_classify_three_ways() {
        assert_eq!(CacheClass::from_header("hit"), CacheClass::Memory);
        assert_eq!(CacheClass::from_header("disk"), CacheClass::Disk);
        assert_eq!(CacheClass::from_header("miss"), CacheClass::Miss);
        assert_eq!(CacheClass::from_header("anything-else"), CacheClass::Miss);
    }
}
