//! A minimal, dependency-free HTTP/1.0 scrape endpoint.
//!
//! `spfc serve --listen-metrics ADDR` needs exactly two routes —
//! `/metrics` (Prometheus text format) and `/healthz` — and must not
//! pull an HTTP stack into a workspace that builds offline. So this is
//! the smallest correct server: the shared [`SocketServer`] accept loop
//! (one named thread, stop flag + self-connect shutdown), one
//! short-lived connection per scrape (`Connection: close`, explicit
//! `Content-Length`), a render closure evaluated per request so every
//! scrape sees live counters.
//!
//! Binding port 0 works (tests bind `127.0.0.1:0` and read back the
//! real port from [`MetricsServer::addr`]).

use crate::listener::{parse_request_line, read_http_head, SocketServer};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Producer of the `/metrics` body, called once per scrape.
pub type MetricsRender = Arc<dyn Fn() -> String + Send + Sync>;

/// A running scrape endpoint. Dropping it (or calling
/// [`shutdown`](MetricsServer::shutdown)) stops the accept loop and
/// joins the serving threads.
pub struct MetricsServer {
    inner: SocketServer,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, port 0 for ephemeral) and
    /// starts serving `/metrics` from `render` and `/healthz` on a
    /// background thread.
    pub fn start(addr: &str, render: MetricsRender) -> std::io::Result<MetricsServer> {
        let inner = SocketServer::start(
            addr,
            "spfc-metrics",
            Arc::new(move |stream, _stop| {
                let _ = serve_one(stream, &*render);
            }),
        )?;
        Ok(MetricsServer { inner })
    }

    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stops the accept loop and joins the serving threads.
    pub fn shutdown(self) {
        self.inner.shutdown();
    }
}

fn serve_one(mut stream: TcpStream, render: &dyn Fn() -> String) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let head = read_http_head(&mut stream);
    let (method, path) = parse_request_line(&head);
    let (status, ctype, body) = match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render(),
        ),
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        ),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrape_endpoint_serves_metrics_health_and_404() {
        let body = "# HELP spfc_up 1\nspfc_up 1\n";
        let server =
            MetricsServer::start("127.0.0.1:0", Arc::new(move || body.to_string())).unwrap();
        let addr = server.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(metrics.contains(&format!("Content-Length: {}", body.len())));
        assert!(metrics.ends_with(body), "{metrics}");

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(health.ends_with("ok\n"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404 Not Found\r\n"));

        server.shutdown();
    }

    #[test]
    fn shutdown_joins_even_with_no_traffic() {
        let server = MetricsServer::start("127.0.0.1:0", Arc::new(String::new)).unwrap();
        // Drop path: must not hang waiting for a connection.
        drop(server);
    }
}
