//! The cluster acceptance run: three real memo-serve nodes with their
//! own store directories behind a real router, RF=2, a real load
//! generator in `--cluster` mode — and one node killed mid-load.
//!
//! What must hold: the kill costs zero non-degraded request failures
//! (every request either succeeds or is an explicit 503 shed), the
//! router's failover and read-repair counters both move, the report
//! carries per-node attribution, and the bytes a client reads through
//! the router are identical to what a single node renders.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use memo_cluster::router::{self, RouterConfig, RouterHandle};
use memo_cluster::topology::Node;
use memo_experiments::{runner, ExpConfig};
use memo_serve::load::{self, LoadConfig, Mode};
use memo_serve::server::{self, ServerConfig, ServerHandle};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memo-cluster-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn node(name: &str, store_dir: PathBuf) -> (ServerHandle, Node) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 64,
        cfg: ExpConfig::quick(),
        store_dir: Some(store_dir),
        node_id: Some(name.to_string()),
        ..ServerConfig::default()
    };
    let handle = server::start(&config).expect("boot node");
    let node = Node { name: name.to_string(), addr: handle.addr().to_string() };
    (handle, node)
}

fn router_over(nodes: Vec<Node>, probe_interval: Duration) -> RouterHandle {
    router::start(&RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        nodes,
        replication: 2,
        workers: 4,
        probe_interval,
        probe_timeout: Duration::from_millis(150),
        cfg: ExpConfig::quick(),
        ..RouterConfig::default()
    })
    .expect("boot router")
}

fn get(addr: &str, target: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(format!("GET {target} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let mut scratch = Vec::new();
    let resp = memo_serve::http::read_response(&mut s, &mut scratch).expect("response");
    (resp.status, resp.body)
}

#[test]
fn killing_a_node_mid_load_costs_nothing_a_client_can_see() {
    let base = fresh_dir("fleet");
    let (b0, n0) = node("n0", base.join("n0"));
    let (b1, n1) = node("n1", base.join("n1"));
    let (b2, n2) = node("n2", base.join("n2"));
    // The probe interval is pinned far beyond the test window: a kill
    // must be absorbed by the request path's own failover (transport
    // error -> next replica), not papered over by a fast prober
    // rewriting the routing table first. The node's graceful drain
    // means its death is only visible as connection failures once the
    // drain completes — exactly what the failover path must handle.
    let router = router_over(vec![n0, n1, n2], Duration::from_secs(60));
    let router_addr = router.addr().to_string();

    // Warm the load generator's whole target mix through the router:
    // every cold render is a miss on its serving node, which both seeds
    // read-repairs (the other owner gets the bytes pushed to it) and
    // keeps the timed load phase on the fast path, so plenty of
    // requests span the kill window.
    for target in (1u32..=13)
        .map(|n| format!("/v1/table/{n}"))
        .chain((2u32..=4).map(|n| format!("/v1/figure/{n}")))
        .chain([
            "/v1/sweep?entries=8,16,32".to_string(),
            "/v1/sweep?ways=1,2,4".to_string(),
            "/v1/sweep".to_string(),
        ])
    {
        let (status, _) = get(&router_addr, &target);
        assert_eq!(status, 200, "warming {target}");
    }

    // Open-loop-ish closed load from four lanes for four seconds,
    // killing one node a second in. RF=2 means every key the dead node
    // owned still has a live replica: the router must absorb the whole
    // event as failovers, not client-visible errors.
    let load_config = LoadConfig {
        addr: router_addr.clone(),
        connections: 4,
        duration: Duration::from_secs(4),
        mode: Mode::Closed,
        seed: 42,
        store_miss_permille: 0,
        cluster: true,
    };
    let loader = thread::spawn(move || load::run(&load_config));
    thread::sleep(Duration::from_secs(1));
    b1.shutdown();
    b1.wait();
    let report = loader.join().expect("load run");

    assert!(report.requests > 50, "load ran against a warm fleet: {} requests", report.requests);
    assert_eq!(
        report.errors, 0,
        "killing one node must cost zero non-degraded failures \
         (transport={}, other_5xx={}{})",
        report.transport_errors,
        report.other_5xx_total(),
        report.other_5xx_causes()
    );
    let cluster = report.cluster.as_ref().expect("cluster mode report");
    assert!(cluster.failovers >= 1, "the kill must surface as failovers");
    assert!(cluster.read_repairs >= 1, "cold renders must have triggered read-repair");
    assert!(!cluster.per_node.is_empty(), "responses attributed per node");
    for node in &cluster.per_node {
        assert!(node.requests > 0, "node {} attributed no requests", node.node);
        assert!(node.latency.count > 0, "node {} has no latency samples", node.node);
    }
    let attributed: u64 = cluster.per_node.iter().map(|n| n.requests).sum();
    assert!(attributed > 0 && attributed <= report.requests);

    // Byte identity, with one node dead: whatever the router serves
    // must equal what the runners (and thus any single node) render.
    for n in [1u32, 3, 5] {
        let expected = format!("{}\n", runner::table(n as usize, ExpConfig::quick()).unwrap());
        let (status, body) = get(&router_addr, &format!("/v1/table/{n}"));
        assert_eq!(status, 200);
        assert_eq!(
            body,
            expected.as_bytes(),
            "table {n} through the degraded cluster must match a single-node render"
        );
    }

    // The router's own metrics agree with the report's scrape.
    let (status, body) = get(&router_addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("memo_router_failovers_total"), "{text}");
    assert!(!text.contains("memo_router_failovers_total 0\n"), "failovers visible in /metrics");

    router.shutdown();
    router.wait();
    for b in [b0, b2] {
        b.shutdown();
        b.wait();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_bounced_node_comes_back_and_the_table_generation_records_it() {
    let base = fresh_dir("bounce");
    let (b0, n0) = node("m0", base.join("m0"));
    let (b1, n1) = node("m1", base.join("m1"));
    let addr1 = n1.addr.clone();
    let router = router_over(vec![n0, n1], Duration::from_millis(300));
    let router_addr = router.addr().to_string();

    let starting_gen = router.state().topology.snapshot().generation;
    b1.shutdown();
    b1.wait();

    // The prober must notice the death and swap the table.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.state().topology.snapshot().generation == starting_gen {
        assert!(std::time::Instant::now() < deadline, "prober never saw the node die");
        thread::sleep(Duration::from_millis(20));
    }
    let (status, _) = get(&router_addr, "/v1/table/2");
    assert_eq!(status, 200, "the survivor serves everything");

    // Resurrect the node on its old address; the prober must fold it
    // back in with another generation bump.
    let config = ServerConfig {
        addr: addr1,
        workers: 2,
        queue_capacity: 64,
        cfg: ExpConfig::quick(),
        store_dir: Some(base.join("m1")),
        node_id: Some("m1".to_string()),
        ..ServerConfig::default()
    };
    let revived = server::start(&config).expect("rebind the old address");
    let dead_gen = router.state().topology.snapshot().generation;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.state().topology.snapshot().generation == dead_gen {
        assert!(std::time::Instant::now() < deadline, "prober never saw the node return");
        thread::sleep(Duration::from_millis(20));
    }
    let (status, _) = get(&router_addr, "/v1/table/2");
    assert_eq!(status, 200);

    router.shutdown();
    router.wait();
    for b in [b0, revived] {
        b.shutdown();
        b.wait();
    }
    let _ = std::fs::remove_dir_all(&base);
}
