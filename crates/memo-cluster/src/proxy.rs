//! Pooled connections to one backend memo-serve node.
//!
//! Each routable node gets a [`NodeProxy`]: a small stack of idle
//! keep-alive connections plus the two exchanges the router performs —
//! forward a `GET` verbatim ([`NodeProxy::get`]) and install rendered
//! bytes on a replica ([`NodeProxy::warm`]). Responses are read through
//! the same [`memo_serve::http::read_response`] parser the load
//! generator uses, so the whole stack agrees on header handling.
//!
//! A pooled connection can go stale between requests (the backend timed
//! it out, or died and came back). One transparent retry covers that:
//! if the exchange over a *reused* connection fails in transport, the
//! proxy re-dials once and repeats. A failure over a fresh dial is
//! real and propagates — that is what failover is for.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use memo_serve::http::{read_response, ClientResponse};

/// Idle connections kept per node; extras are dropped on return.
const POOL_CAP: usize = 16;

/// Pooled client for one backend node.
pub struct NodeProxy {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl NodeProxy {
    /// A proxy for the node at `addr` (`host:port`).
    #[must_use]
    pub fn new(addr: String, connect_timeout: Duration, io_timeout: Duration) -> Self {
        NodeProxy { addr, idle: Mutex::new(Vec::new()), connect_timeout, io_timeout }
    }

    /// The backend address this proxy dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Forward a `GET` for the exact wire-form `raw_target`.
    ///
    /// # Errors
    ///
    /// Transport failures after the one stale-connection retry.
    pub fn get(&self, raw_target: &str, scratch: &mut Vec<u8>) -> io::Result<ClientResponse> {
        let request = format!("GET {raw_target} HTTP/1.1\r\nhost: {}\r\n\r\n", self.addr);
        self.exchange(request.as_bytes(), scratch)
    }

    /// Install `body` under `key` on this node (`POST /v1/warm`) — the
    /// read-repair half of the router.
    ///
    /// # Errors
    ///
    /// Transport failures after the one stale-connection retry.
    pub fn warm(&self, key: &str, body: &[u8], scratch: &mut Vec<u8>) -> io::Result<ClientResponse> {
        let mut request = format!(
            "POST /v1/warm?key={key} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        self.exchange(&request, scratch)
    }

    /// Drop all idle connections (the health prober calls this when a
    /// node goes down, so a recovered node starts from fresh sockets).
    pub fn drain_idle(&self) {
        self.idle.lock().expect("proxy pool").clear();
    }

    fn fresh(&self) -> io::Result<TcpStream> {
        let target = self
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing"))?;
        let stream = TcpStream::connect_timeout(&target, self.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        Ok(stream)
    }

    fn park(&self, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("proxy pool");
        if idle.len() < POOL_CAP {
            idle.push(stream);
        }
    }

    fn exchange(&self, request: &[u8], scratch: &mut Vec<u8>) -> io::Result<ClientResponse> {
        // A reused connection may have died idle; its failure earns one
        // silent retry over a fresh dial.
        let reused = self.idle.lock().expect("proxy pool").pop();
        if let Some(mut stream) = reused {
            if let Ok(resp) = send_and_read(&mut stream, request, scratch) {
                if resp.keep_alive() {
                    self.park(stream);
                }
                return Ok(resp);
            }
        }
        let mut stream = self.fresh()?;
        let resp = send_and_read(&mut stream, request, scratch)?;
        if resp.keep_alive() {
            self.park(stream);
        }
        Ok(resp)
    }
}

fn send_and_read(
    stream: &mut TcpStream,
    request: &[u8],
    scratch: &mut Vec<u8>,
) -> io::Result<ClientResponse> {
    stream.write_all(request)?;
    read_response(stream, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;

    /// A stub backend: answers every request on a connection with a
    /// canned 200 carrying the request's first line as its body, and
    /// serves at most `per_conn` requests per connection before closing.
    fn stub_server(per_conn: usize, conns: usize) -> (String, thread::JoinHandle<Vec<String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..conns {
                let (mut stream, _) = listener.accept().unwrap();
                for _ in 0..per_conn {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 1024];
                    let header_end = loop {
                        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            break p;
                        }
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return seen,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    };
                    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
                    let first = head.lines().next().unwrap_or("").to_string();
                    // Drain a POST body if one was declared.
                    if let Some(len) = head
                        .lines()
                        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::trim).map(String::from))
                        .and_then(|v| v.parse::<usize>().ok())
                    {
                        let mut have = buf.len() - header_end - 4;
                        while have < len {
                            let n = stream.read(&mut chunk).unwrap();
                            have += n;
                        }
                    }
                    seen.push(first.clone());
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{first}",
                        first.len()
                    );
                    stream.write_all(resp.as_bytes()).unwrap();
                }
                // Close the connection (per_conn exhausted).
            }
            seen
        });
        (addr, handle)
    }

    fn proxy(addr: &str) -> NodeProxy {
        NodeProxy::new(addr.to_string(), Duration::from_secs(2), Duration::from_secs(2))
    }

    #[test]
    fn get_forwards_the_target_verbatim_and_reuses_the_connection() {
        let (addr, server) = stub_server(2, 1);
        let p = proxy(&addr);
        let mut scratch = Vec::new();
        let a = p.get("/v1/table/5?scale=2", &mut scratch).unwrap();
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b"GET /v1/table/5?scale=2 HTTP/1.1");
        let b = p.get("/healthz", &mut scratch).unwrap();
        assert_eq!(b.body, b"GET /healthz HTTP/1.1");
        drop(p);
        // One connection served both requests: the pool reused it.
        let seen = server.join().unwrap();
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn proxy_sockets_disable_nagle() {
        let (addr, server) = stub_server(1, 1);
        let p = proxy(&addr);
        let mut scratch = Vec::new();
        assert_eq!(p.get("/healthz", &mut scratch).unwrap().status, 200);
        {
            let idle = p.idle.lock().unwrap();
            assert_eq!(idle.len(), 1, "the dialed socket was pooled");
            assert!(idle[0].nodelay().unwrap(), "pooled proxy sockets set TCP_NODELAY");
        }
        drop(p);
        server.join().unwrap();
    }

    #[test]
    fn stale_pooled_connection_is_retried_on_a_fresh_dial() {
        // Each connection serves exactly one request, then closes — so
        // every pooled reuse is stale by construction.
        let (addr, server) = stub_server(1, 3);
        let p = proxy(&addr);
        let mut scratch = Vec::new();
        for _ in 0..3 {
            let resp = p.get("/v1/table/1", &mut scratch).unwrap();
            assert_eq!(resp.status, 200, "stale reuse must be retried, not surfaced");
        }
        drop(p);
        assert_eq!(server.join().unwrap().len(), 3);
    }

    #[test]
    fn warm_posts_key_and_body() {
        let (addr, server) = stub_server(1, 1);
        let p = proxy(&addr);
        let mut scratch = Vec::new();
        let resp = p.warm("table/1@scale=16;sci_n=16", b"payload\n", &mut scratch).unwrap();
        assert_eq!(resp.status, 200);
        let seen = server.join().unwrap();
        assert_eq!(seen, vec!["POST /v1/warm?key=table/1@scale=16;sci_n=16 HTTP/1.1".to_string()]);
    }

    #[test]
    fn dead_backend_surfaces_a_transport_error() {
        // Bind then drop: nothing listens on the port anymore.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let p = proxy(&addr);
        let mut scratch = Vec::new();
        assert!(p.get("/healthz", &mut scratch).is_err());
    }
}
