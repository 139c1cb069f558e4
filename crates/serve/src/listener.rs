//! The shared accept-loop skeleton under every socket server in the
//! workspace.
//!
//! Both the HTTP scrape endpoint ([`MetricsServer`](crate::MetricsServer))
//! and the sp-net wire server front a `std::net::TcpListener` the same
//! way: bind, run the accept loop on a named thread, hand each
//! connection to a handler, and shut down cooperatively via a stop flag
//! plus a self-connect that unblocks the final `accept`. That pattern
//! used to live inline in `http.rs`; extracting it here keeps the two
//! servers from drifting (satellite of ISSUE 9) and gives `NetServer`
//! per-connection thread tracking for free.
//!
//! The handler runs on a per-connection thread so a slow peer cannot
//! stall the accept loop. Handlers receive the shared stop flag and are
//! expected to poll it between blocking reads (use read timeouts) so
//! shutdown is prompt even with connections open.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Per-connection callback: owns the stream, observes the stop flag.
pub type ConnHandler = Arc<dyn Fn(TcpStream, &AtomicBool) + Send + Sync>;

/// A running TCP accept loop. Dropping it (or calling
/// [`shutdown`](SocketServer::shutdown)) stops the loop, joins the
/// acceptor thread, and joins every live connection thread.
pub struct SocketServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl SocketServer {
    /// Binds `addr` (port 0 for ephemeral) and starts accepting on a
    /// thread named `name`, spawning one `name-conn` thread per
    /// accepted connection.
    pub fn start(addr: &str, name: &str, handler: ConnHandler) -> std::io::Result<SocketServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::default();
        let flag = Arc::clone(&stop);
        let track = Arc::clone(&conns);
        let conn_name = format!("{name}-conn");
        let handle = thread::Builder::new().name(name.into()).spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                // One bad connection must not kill the server.
                let Ok(stream) = conn else { continue };
                let handler = Arc::clone(&handler);
                let flag = Arc::clone(&flag);
                let spawned = thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || handler(stream, &flag));
                if let Ok(h) = spawned {
                    let mut live = track.lock().unwrap();
                    // Reap finished threads so the list stays bounded.
                    live.retain(|t| !t.is_finished());
                    live.push(h);
                }
            }
        })?;
        Ok(SocketServer {
            addr: local,
            stop,
            handle: Some(handle),
            conns,
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop, joins the acceptor and every connection.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag between connections;
        // poke it with a throwaway connect so it wakes immediately.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        let _ = handle.join();
        let drained = std::mem::take(&mut *self.conns.lock().unwrap());
        for conn in drained {
            let _ = conn.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Reads an HTTP/1.0 request head off `stream`: everything up to the
/// blank line, capped at 4 KiB (generous for `GET /metrics`). Returns
/// the raw head bytes; io errors and EOF just end the read.
pub fn read_http_head(stream: &mut TcpStream) -> Vec<u8> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 4096 {
            break;
        }
    }
    head
}

/// Splits the request line of `head` into (method, path). Missing
/// pieces come back empty, which routes to 405/404 downstream.
pub fn parse_request_line(head: &[u8]) -> (String, String) {
    let text = String::from_utf8_lossy(head);
    let mut request = text.lines().next().unwrap_or("").split_whitespace();
    let method = request.next().unwrap_or("").to_string();
    let path = request.next().unwrap_or("").to_string();
    (method, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serves_connections_on_per_conn_threads_and_joins_on_shutdown() {
        let hits = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&hits);
        let server = SocketServer::start(
            "127.0.0.1:0",
            "spfc-test",
            Arc::new(move |mut s: TcpStream, _stop: &AtomicBool| {
                seen.fetch_add(1, Ordering::SeqCst);
                let _ = s.write_all(b"hi");
            }),
        )
        .unwrap();
        let addr = server.addr();
        for _ in 0..3 {
            let mut c = TcpStream::connect(addr).unwrap();
            let mut buf = String::new();
            c.read_to_string(&mut buf).unwrap();
            assert_eq!(buf, "hi");
        }
        server.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn shutdown_joins_even_with_no_traffic() {
        let server = SocketServer::start(
            "127.0.0.1:0",
            "spfc-idle",
            Arc::new(|_s, _f: &AtomicBool| {}),
        )
        .unwrap();
        drop(server);
    }

    #[test]
    fn request_line_parses_method_and_path() {
        let (m, p) = parse_request_line(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert_eq!((m.as_str(), p.as_str()), ("GET", "/metrics"));
        let (m, p) = parse_request_line(b"");
        assert_eq!((m.as_str(), p.as_str()), ("", ""));
    }
}
