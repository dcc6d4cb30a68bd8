//! Closed-loop load: a fixed number of connections, each sending its next
//! request as soon as the previous response has arrived. Latency is
//! timed from the write of the request to the last byte of the response.
//! Every 2xx body is compared byte for byte with the `runner` render of
//! its key.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use memo_experiments::ExpConfig;
use memo_serve::http::read_response;

use crate::keys::{self, Rng};
use crate::{ms, quantile, Obj};

/// Fill keys requested in preparation, before the window: the first
/// revisit targets.
const POOL: usize = 16;
/// A fill key becomes a revisit target only after this many newer fill
/// keys, so the in-memory cache has long since evicted it.
const REVISIT_LAG: usize = 64;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Closed-loop connections: the core count of the baseline machine.
const CONNS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Only the warmed artifact keys.
    Hot,
    /// 10% never-requested sweeps, 20% revisits of evicted sweeps, 70% hot.
    Fill,
}

#[derive(Clone, Copy)]
enum Target {
    Hot(usize),
    Fill(usize),
    Revisit(usize),
}

/// What the server said served a response (`x-memo-cache`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Hit,
    Disk,
    Miss,
    Unlabelled,
}

struct Sample {
    micros: u64,
    /// HTTP status, or 0 for a transport error or timeout.
    status: u16,
    ok: bool,
    tier: Tier,
    node: Option<String>,
    ring_gen: Option<u64>,
    hot: Option<usize>,
}

/// Everything the connection threads share.
struct Shared {
    cfg: ExpConfig,
    hot: Vec<String>,
    expected_hot: Vec<Vec<u8>>,
    fill: Vec<String>,
    fill_start: usize,
    next_fill: AtomicUsize,
    /// The first body seen for each fill key; rendered and compared after
    /// the window, and every later body for the key must equal it.
    fill_bodies: Mutex<HashMap<usize, Vec<u8>>>,
    mismatches: Mutex<Vec<String>>,
}

impl Shared {
    fn path(&self, t: Target) -> &str {
        match t {
            Target::Hot(i) => &self.hot[i],
            Target::Fill(i) | Target::Revisit(i) => &self.fill[i],
        }
    }

    fn pick(&self, mix: Mix, rng: &mut Rng) -> Target {
        if mix == Mix::Hot {
            return Target::Hot(keys::pick_hot(rng));
        }
        match rng.below(100) {
            0..=9 => {
                let i = self.next_fill.fetch_add(1, Ordering::Relaxed);
                assert!(i < self.fill.len(), "fill key space exhausted");
                Target::Fill(i)
            }
            10..=29 => {
                let old = self
                    .next_fill
                    .load(Ordering::Relaxed)
                    .saturating_sub(REVISIT_LAG);
                let old = old.max(self.fill_start + POOL);
                Target::Revisit(rng.below(old))
            }
            _ => Target::Hot(keys::pick_hot(rng)),
        }
    }

    fn check(&self, t: Target, body: &[u8]) {
        let ok = match t {
            Target::Hot(i) => body == self.expected_hot[i].as_slice(),
            Target::Fill(i) | Target::Revisit(i) => {
                let mut seen = self.fill_bodies.lock().expect("fill body map poisoned");
                seen.entry(i).or_insert_with(|| body.to_vec()).as_slice() == body
            }
        };
        if !ok {
            self.mismatch(self.path(t));
        }
    }

    fn mismatch(&self, path: &str) {
        self.mismatches
            .lock()
            .expect("mismatch list poisoned")
            .push(path.to_string());
    }
}

/// One keep-alive connection that reconnects after any transport error.
struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    scratch: Vec<u8>,
}

impl Conn {
    fn new(addr: &str) -> Self {
        Conn {
            addr: addr.to_string(),
            stream: None,
            scratch: Vec::new(),
        }
    }

    /// Send `GET path` and read the response: `(status, headers, body)`.
    fn get(&mut self, path: &str) -> std::io::Result<memo_serve::http::ClientResponse> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream
            .write_all(format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").as_bytes())
            .and_then(|()| read_response(stream, &mut self.scratch));
        if !result
            .as_ref()
            .is_ok_and(memo_serve::http::ClientResponse::keep_alive)
        {
            self.stream = None;
        }
        result
    }
}

/// Run [`CONNS`] closed-loop connections for `seconds`; `route` maps each
/// target to the address it is sent to.
fn window(
    shared: &Shared,
    mix: Mix,
    seed: u64,
    seconds: f64,
    route: &(dyn Fn(Target) -> String + Sync),
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng =
                        Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (c as u64 + 1));
                    let mut open: HashMap<String, Conn> = HashMap::new();
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let target = shared.pick(mix, &mut rng);
                        let addr = route(target);
                        let conn = open.entry(addr.clone()).or_insert_with(|| Conn::new(&addr));
                        let t0 = Instant::now();
                        let result = conn.get(shared.path(target));
                        let micros = t0.elapsed().as_micros() as u64;
                        let hot = match target {
                            Target::Hot(i) => Some(i),
                            _ => None,
                        };
                        samples.push(match result {
                            Ok(resp) => {
                                let ok = (200..300).contains(&resp.status);
                                if ok {
                                    shared.check(target, &resp.body);
                                }
                                let tier = match resp.header("x-memo-cache") {
                                    Some("hit") => Tier::Hit,
                                    Some("disk") => Tier::Disk,
                                    Some("miss") => Tier::Miss,
                                    _ => Tier::Unlabelled,
                                };
                                Sample {
                                    micros,
                                    status: resp.status,
                                    ok,
                                    tier,
                                    node: resp.header("x-memo-node").map(str::to_string),
                                    ring_gen: resp
                                        .header("x-memo-ring-gen")
                                        .and_then(|g| g.parse().ok()),
                                    hot,
                                }
                            }
                            Err(_) => Sample {
                                micros,
                                status: 0,
                                ok: false,
                                tier: Tier::Unlabelled,
                                node: None,
                                ring_gen: None,
                                hot,
                            },
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    (per_conn.into_iter().flatten().collect(), elapsed)
}

fn p50_ms(samples: &[&Sample]) -> f64 {
    let mut v: Vec<u64> = samples.iter().map(|s| s.micros).collect();
    v.sort_unstable();
    ms(quantile(&v, 0.5))
}

/// Render `paths` on two threads, in index order.
fn render_all(cfg: ExpConfig, paths: &[&str]) -> Vec<Vec<u8>> {
    memo_experiments::parallel::par_map_jobs(2, paths.to_vec(), |p| {
        keys::expected_body(cfg, p)
            .unwrap_or_else(|e| panic!("render of {p} failed: {e}"))
            .into_bytes()
    })
}

pub struct LoadArgs {
    pub addr: String,
    pub mix: Mix,
    pub seconds: f64,
    pub seed: u64,
    pub cfg: ExpConfig,
    pub trace: bool,
    /// Where this run starts in the seeded fill sequence, so a second
    /// window against the same store sends keys the first did not.
    pub fill_start: usize,
    /// `name=addr` of every node, for the direct-to-owner phase of a
    /// traced routed run.
    pub direct: Vec<(String, String)>,
}

pub fn run(args: &LoadArgs) -> Obj {
    let hot = keys::hot_paths();
    let setup = Instant::now();
    let expected_hot = render_all(
        args.cfg,
        &hot.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let shared = Shared {
        cfg: args.cfg,
        hot,
        expected_hot,
        fill: if args.mix == Mix::Fill {
            keys::fill_paths(args.seed)
        } else {
            Vec::new()
        },
        fill_start: args.fill_start,
        next_fill: AtomicUsize::new(args.fill_start + POOL),
        fill_bodies: Mutex::new(HashMap::new()),
        mismatches: Mutex::new(Vec::new()),
    };
    // Before the window, request every warmed key once and check its body,
    // so the keys the mix never draws are checked too. The fill mix first
    // seeds its revisit pool, which the hot keys then push out of the
    // in-memory cache.
    let mut prep_failures = 0;
    let pool = if args.mix == Mix::Fill {
        shared.fill_start..shared.fill_start + POOL
    } else {
        0..0
    };
    let prep: Vec<Target> = pool
        .map(Target::Fill)
        .chain((0..shared.hot.len()).map(Target::Hot))
        .collect();
    let mut conn = Conn::new(&args.addr);
    for t in prep {
        match conn.get(shared.path(t)) {
            Ok(r) if (200..300).contains(&r.status) => shared.check(t, &r.body),
            _ => prep_failures += 1,
        }
    }
    drop(conn);
    let setup_s = setup.elapsed().as_secs_f64();

    let addr = args.addr.clone();
    let (samples, window_s) = window(&shared, args.mix, args.seed, args.seconds, &|_| {
        addr.clone()
    });

    // Fill keys were new to this process too: render them now, outside
    // the window, and compare with what the server sent.
    let verify = Instant::now();
    let fill_seen: Vec<(usize, Vec<u8>)> = shared
        .fill_bodies
        .lock()
        .expect("fill body map poisoned")
        .drain()
        .collect();
    if !fill_seen.is_empty() {
        let oracle =
            keys::SweepOracle::new(args.cfg).unwrap_or_else(|e| panic!("sweep oracle: {e}"));
        for (i, body) in &fill_seen {
            let path = &shared.fill[*i];
            let want = oracle
                .expected(path)
                .unwrap_or_else(|e| panic!("render of {path} failed: {e}"));
            if body.as_slice() != want.as_bytes() {
                shared.mismatch(path);
            }
        }
    }
    let verify_s = verify.elapsed().as_secs_f64();

    let mut out = summarize(&samples, window_s);
    out.num("prep_s", setup_s);
    out.num("verify_s", verify_s);
    out.int("prep_failures", prep_failures);
    let next_fill = shared.next_fill.load(Ordering::Relaxed);
    out.int(
        "fill_keys",
        next_fill.saturating_sub(args.fill_start + POOL) as u64,
    );
    out.int("fill_next", next_fill as u64);
    out.int("verified_fill_keys", fill_seen.len() as u64);

    if args.trace {
        let (handle_us, write_us) = handle_probe(&shared, args.seed);
        out.num("handle_p50_us", handle_us);
        out.num("write_p50_us", write_us);
        if !args.direct.is_empty() {
            direct_phase(&shared, args, &samples, &mut out);
        }
    }
    let mismatches = shared.mismatches.lock().expect("mismatch list poisoned");
    out.int("mismatches", mismatches.len() as u64);
    out.str(
        "first_mismatch",
        mismatches.first().map_or("", String::as_str),
    );
    out
}

fn summarize(samples: &[Sample], window_s: f64) -> Obj {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let mut lat: Vec<u64> = ok.iter().map(|s| s.micros).collect();
    lat.sort_unstable();
    let mut out = Obj::default();
    out.int("attempted", samples.len() as u64);
    out.int("ok", ok.len() as u64);
    out.num("window_s", window_s);
    out.num("rps", ok.len() as f64 / window_s);
    out.num("p50_ms", ms(quantile(&lat, 0.5)));
    out.num("p99_ms", ms(quantile(&lat, 0.99)));
    out.int("samples", lat.len() as u64);
    for (name, tier) in [
        ("hit", Tier::Hit),
        ("disk", Tier::Disk),
        ("miss", Tier::Miss),
    ] {
        let of: Vec<&Sample> = ok.iter().copied().filter(|s| s.tier == tier).collect();
        out.num(
            &format!("{name}_share"),
            of.len() as f64 / ok.len().max(1) as f64,
        );
        out.num(&format!("{name}_p50_ms"), p50_ms(&of));
    }
    let mut per_node: HashMap<&str, u64> = HashMap::new();
    for s in &ok {
        if let Some(n) = &s.node {
            *per_node.entry(n.as_str()).or_default() += 1;
        }
    }
    let max_node = per_node.values().copied().max().unwrap_or(0);
    out.num("node_share_max", max_node as f64 / ok.len().max(1) as f64);
    let mut failed: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
    for s in samples.iter().filter(|s| !s.ok) {
        *failed.entry(s.status).or_default() += 1;
    }
    let failed: Vec<String> = failed
        .iter()
        .map(|(status, n)| {
            if *status == 0 {
                format!("transport:{n}")
            } else {
                format!("{status}:{n}")
            }
        })
        .collect();
    out.str("failed_by_status", &failed.join(","));
    let gens: Vec<u64> = samples.iter().filter_map(|s| s.ring_gen).collect();
    out.int("ring_gen_min", gens.iter().copied().min().unwrap_or(0));
    out.int("ring_gen_max", gens.iter().copied().max().unwrap_or(0));
    out
}

/// `routes::handle` and `Response::write_to` on the hot requests, with
/// no socket: the per-request cost of the node's own code on a warm
/// cache. Returns the two p50s in microseconds.
fn handle_probe(shared: &Shared, seed: u64) -> (f64, f64) {
    use memo_serve::http::parse_request;
    use memo_serve::routes::{handle, AppState};

    let state = AppState::new(shared.cfg, 256, 2);
    let requests: Vec<_> = shared
        .hot
        .iter()
        .map(|p| {
            let raw = format!("GET {p} HTTP/1.1\r\nhost: perfbench\r\n\r\n");
            parse_request(raw.as_bytes())
                .expect("hot request parses")
                .expect("hot request is complete")
                .0
        })
        .collect();
    for r in &requests {
        assert_eq!(
            handle(&state, r, 0).response.status,
            200,
            "warming the probe state"
        );
    }
    let mut rng = Rng::new(seed);
    let (mut handle_ns, mut write_ns) = (Vec::new(), Vec::new());
    for _ in 0..4000 {
        let req = &requests[keys::pick_hot(&mut rng)];
        let t0 = Instant::now();
        let routed = handle(&state, req, 0);
        handle_ns.push(t0.elapsed().as_nanos() as u64);
        let mut buf = Vec::with_capacity(routed.response.body.len() + 256);
        let t1 = Instant::now();
        routed
            .response
            .write_to(&mut buf, true, false)
            .expect("writing into a Vec cannot fail");
        write_ns.push(t1.elapsed().as_nanos() as u64);
        std::hint::black_box(buf);
    }
    handle_ns.sort_unstable();
    write_ns.sort_unstable();
    (
        quantile(&handle_ns, 0.5) as f64 / 1e3,
        quantile(&write_ns, 0.5) as f64 / 1e3,
    )
}

/// The same hot mix sent straight to the node that served each key
/// through the router, for half the window: the router hop is the
/// routed p50 minus this p50.
fn direct_phase(shared: &Shared, args: &LoadArgs, routed: &[Sample], out: &mut Obj) {
    let mut owner: HashMap<usize, HashMap<&str, usize>> = HashMap::new();
    for s in routed {
        if let (Some(i), Some(n)) = (s.hot, &s.node) {
            *owner.entry(i).or_default().entry(n.as_str()).or_default() += 1;
        }
    }
    let addr_of: HashMap<&str, &str> = args
        .direct
        .iter()
        .map(|(n, a)| (n.as_str(), a.as_str()))
        .collect();
    let owners: Vec<String> = (0..shared.hot.len())
        .map(|i| {
            let name = owner
                .get(&i)
                .and_then(|by| by.iter().max_by_key(|(n, c)| (**c, *n)).map(|(n, _)| *n))
                .unwrap_or(args.direct[0].0.as_str());
            addr_of
                .get(name)
                .copied()
                .unwrap_or(args.direct[0].1.as_str())
                .to_string()
        })
        .collect();
    let route = |t: Target| match t {
        Target::Hot(i) => owners[i].clone(),
        _ => unreachable!("the direct phase replays the hot mix"),
    };
    let (samples, window_s) = window(
        shared,
        Mix::Hot,
        args.seed ^ 0xD1EC7,
        args.seconds / 2.0,
        &route,
    );
    let direct = summarize(&samples, window_s);
    out.num("direct_p50_ms", direct.get("p50_ms"));
    out.int("direct_samples", direct.get("samples") as u64);
    out.int(
        "direct_failed",
        (direct.get("attempted") - direct.get("ok")) as u64,
    );
}
