//! Periodic `/healthz` probing of the backend fleet.
//!
//! Every interval the prober dials each configured node fresh (never
//! through the proxy pools — a wedged pool must not mask a healthy
//! node, and a dead node must not eat a pooled socket), reads its
//! `/healthz` body, and classifies it:
//!
//! - `ok` → [`Health::Up`]
//! - `degraded:*` → [`Health::Degraded`] (memo-serve still serves, but
//!   a tier is out — e.g. its disk breaker is open)
//! - `draining`, any other body, a non-200, or any transport failure →
//!   [`Health::Down`]
//!
//! The resulting vector goes through [`Topology::publish`], which
//! swaps the routing table only when something actually changed. On a
//! change, nodes now `Down` get their idle proxy connections dropped,
//! so a later recovery starts from fresh sockets instead of a stack of
//! corpses.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use memo_serve::http::read_response;

use crate::proxy::NodeProxy;
use crate::topology::{Health, Topology};

/// Probe one node's `/healthz` over a fresh connection.
#[must_use]
pub fn probe(addr: &str, timeout: Duration) -> Health {
    exchange(addr, timeout).unwrap_or(Health::Down)
}

fn exchange(addr: &str, timeout: Duration) -> io::Result<Health> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing"))?;
    let mut stream = TcpStream::connect_timeout(&target, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET /healthz HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut scratch = Vec::with_capacity(256);
    let resp = read_response(&mut stream, &mut scratch)?;
    if resp.status != 200 {
        return Ok(Health::Down);
    }
    let body = String::from_utf8_lossy(&resp.body);
    Ok(classify(body.trim()))
}

/// Map a `/healthz` body to a health state. `draining` is `Down` on
/// purpose: a draining node is about to disappear, so traffic should
/// fail over now rather than ride the drain to a closed socket.
#[must_use]
pub fn classify(body: &str) -> Health {
    if body == "ok" {
        Health::Up
    } else if body.starts_with("degraded") {
        Health::Degraded
    } else {
        Health::Down
    }
}

/// How finely the prober slices its sleep so a drain is noticed fast.
const SLEEP_SLICE: Duration = Duration::from_millis(25);

/// Spawn the prober thread: sweep the fleet every `interval` until
/// `draining` flips, publishing health changes into `topology` and
/// draining the idle pools of nodes that went `Down`.
///
/// # Panics
///
/// If the OS refuses to spawn the thread.
#[must_use]
pub fn spawn(
    topology: Arc<Topology>,
    proxies: Arc<Vec<NodeProxy>>,
    draining: Arc<AtomicBool>,
    interval: Duration,
    timeout: Duration,
) -> JoinHandle<()> {
    thread::Builder::new()
        .name("memo-router-probe".to_string())
        .spawn(move || {
            while !draining.load(Ordering::SeqCst) {
                let health: Vec<Health> =
                    topology.nodes().iter().map(|n| probe(&n.addr, timeout)).collect();
                if topology.publish(health.clone()) {
                    for (idx, h) in health.iter().enumerate() {
                        if *h == Health::Down {
                            proxies[idx].drain_idle();
                        }
                    }
                }
                let wake = Instant::now() + interval;
                while Instant::now() < wake && !draining.load(Ordering::SeqCst) {
                    thread::sleep(SLEEP_SLICE.min(interval));
                }
            }
        })
        .expect("spawn prober thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn stub_health(body: &'static str, status: u16) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = io::Read::read(&mut stream, &mut buf);
            let resp = format!(
                "HTTP/1.1 {status} X\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
            stream.write_all(resp.as_bytes()).unwrap();
        });
        addr
    }

    #[test]
    fn classify_maps_the_three_states() {
        assert_eq!(classify("ok"), Health::Up);
        assert_eq!(classify("degraded:disk-breaker-open"), Health::Degraded);
        assert_eq!(classify("draining"), Health::Down);
        assert_eq!(classify("wat"), Health::Down);
    }

    #[test]
    fn probe_reads_real_health_bodies() {
        let t = Duration::from_secs(2);
        assert_eq!(probe(&stub_health("ok\n", 200), t), Health::Up);
        assert_eq!(probe(&stub_health("degraded:disk-breaker-open\n", 200), t), Health::Degraded);
        assert_eq!(probe(&stub_health("draining\n", 200), t), Health::Down);
        // Non-200 is down regardless of body.
        assert_eq!(probe(&stub_health("ok\n", 500), t), Health::Down);
    }

    #[test]
    fn dead_address_is_down() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert_eq!(probe(&addr, Duration::from_millis(300)), Health::Down);
    }
}
