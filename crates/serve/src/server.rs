//! The `rsat serve` transports: newline-delimited JSON over stdio or a
//! Unix socket.
//!
//! One reader thread per input stream submits lines to the shared
//! [`ServePool`]; an [`InOrderSink`] per stream reassembles worker output
//! back into submission order, so responses always appear in the order the
//! requests were read even though workers finish out of order.

use crate::pool::{Job, PoolHandle, ResponseSink, ServeConfig, ServePool, ServeStats};
use rs_core::request::RsResponse;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct InOrderState<W> {
    next: u64,
    pending: BTreeMap<u64, String>,
    writer: W,
}

/// A sink that writes one JSON line per response, in submission order.
pub struct InOrderSink<W> {
    state: Mutex<InOrderState<W>>,
}

impl<W: Write + Send> InOrderSink<W> {
    /// Wraps a writer; responses are buffered until their turn.
    pub fn new(writer: W) -> Self {
        InOrderSink {
            state: Mutex::new(InOrderState {
                next: 0,
                pending: BTreeMap::new(),
                writer,
            }),
        }
    }

    /// Recovers the writer (used by tests after all workers are done).
    pub fn into_writer(self) -> W {
        self.state
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .writer
    }
}

impl<W: Write + Send> ResponseSink for InOrderSink<W> {
    fn emit(&self, seq: u64, _response: &RsResponse, json: &str) {
        let mut state = crate::lock_recover(&self.state);
        state.pending.insert(seq, json.to_string());
        loop {
            let next = state.next;
            let Some(line) = state.pending.remove(&next) else {
                break;
            };
            state.next += 1;
            // A vanished client must not kill the daemon: drop the output.
            let w = &mut state.writer;
            let _ = writeln!(w, "{line}").and_then(|()| w.flush());
        }
    }
}

/// Serves newline-delimited JSON requests from `reader`, writing responses
/// to `writer` in request order. Returns at EOF with the final statistics
/// and the writer (for tests that inspect the output buffer).
///
/// Backpressure: the reader blocks on [`ServePool::submit`] while the
/// bounded queue is full. Empty lines are skipped.
pub fn serve_io<R, W>(reader: R, writer: W, cfg: &ServeConfig) -> (ServeStats, W)
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let pool = ServePool::new(cfg);
    let sink = Arc::new(InOrderSink::new(writer));
    let mut seq = 0u64;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let job = Job::new(seq, line, Arc::clone(&sink) as Arc<dyn ResponseSink>);
        if !pool.submit(job) {
            break;
        }
        seq += 1;
    }
    let stats = pool.shutdown();
    #[expect(
        clippy::expect_used,
        reason = "runs after shutdown() joined every worker, so the Arc is provably unshared; no request is in flight"
    )]
    let sink = Arc::try_unwrap(sink)
        .ok()
        .expect("all workers joined, sink unshared");
    (stats, sink.into_writer())
}

/// A Unix-socket front end over a shared [`ServePool`].
///
/// Each accepted connection gets a reader thread and its own in-order
/// response stream; all connections share the pool (and therefore the
/// memoization cache).
pub struct UnixServer {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<UnixStream>>>,
    accept: Option<JoinHandle<()>>,
    pool: Option<ServePool>,
}

impl UnixServer {
    /// Binds `path` (replacing any stale socket file) and starts accepting.
    pub fn bind(path: &Path, cfg: &ServeConfig) -> io::Result<Self> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let pool = ServePool::new(cfg);
        let handle = pool.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
        #[expect(
            clippy::expect_used,
            reason = "bind() is startup, not a request path; failing to spawn the acceptor means the server never starts"
        )]
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rsat-accept".to_string())
                .spawn(move || accept_loop(&listener, &handle, &stop, &conns))
                .expect("spawn accept thread")
        };
        Ok(UnixServer {
            path: path.to_path_buf(),
            stop,
            conns,
            accept: Some(accept),
            pool: Some(pool),
        })
    }

    /// Stops accepting, unblocks connection readers, drains in-flight
    /// work, and removes the socket file.
    pub fn stop(mut self) -> ServeStats {
        self.stop.store(true, Ordering::SeqCst);
        for conn in crate::lock_recover(&self.conns).drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        #[expect(
            clippy::expect_used,
            reason = "the Option is only vacated here, and stop(self) consumes the server; unreachable twice"
        )]
        let stats = self.pool.take().expect("pool alive until stop").shutdown();
        let _ = std::fs::remove_file(&self.path);
        stats
    }
}

fn accept_loop(
    listener: &UnixListener,
    handle: &PoolHandle,
    stop: &AtomicBool,
    conns: &Mutex<Vec<UnixStream>>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if let Ok(clone) = stream.try_clone() {
                    crate::lock_recover(conns).push(clone);
                }
                let handle = handle.clone();
                // A spawn failure (fd/thread exhaustion) drops this one
                // connection; the accept loop and existing clients live on.
                let spawned = std::thread::Builder::new()
                    .name("rsat-conn".to_string())
                    .spawn(move || serve_connection(stream, &handle));
                match spawned {
                    Ok(reader) => readers.push(reader),
                    Err(_) => continue,
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(_) => break,
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Reads request lines from one connection until EOF; responses flow back
/// through a per-connection [`InOrderSink`] over a clone of the stream.
fn serve_connection(stream: UnixStream, handle: &PoolHandle) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink = Arc::new(InOrderSink::new(write_half));
    let reader = BufReader::new(stream);
    let mut seq = 0u64;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let job = Job::new(seq, line, Arc::clone(&sink) as Arc<dyn ResponseSink>);
        if !handle.submit(job) {
            break;
        }
        seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rs_core::request::{RsOp, RsRequest};

    fn request_line(ddg: &str) -> String {
        serde_json::to_string(&RsRequest::new(RsOp::Analyze, ddg)).unwrap()
    }

    #[test]
    fn responses_come_back_in_request_order() {
        // A large DAG first, a tiny one second: with several workers the
        // tiny one finishes first, but output order must match input order.
        let mut big = String::new();
        for i in 0..40 {
            big.push_str(&format!(
                "op v{i} load float\nop s{i} store none\nflow v{i} s{i} 4 float\n"
            ));
        }
        let mut input = String::new();
        let mut line_big: RsRequest = RsRequest::new(RsOp::Analyze, big);
        line_big.id = Some("big".into());
        let mut line_small = RsRequest::new(RsOp::Analyze, "op a load float\n");
        line_small.id = Some("small".into());
        input.push_str(&serde_json::to_string(&line_big).unwrap());
        input.push('\n');
        input.push_str(&serde_json::to_string(&line_small).unwrap());
        input.push('\n');

        let cfg = ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        };
        let (stats, out) = serve_io(input.as_bytes(), Vec::new(), &cfg);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.ok, 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"big\""), "{}", lines[0]);
        assert!(lines[1].contains("\"small\""), "{}", lines[1]);
    }

    #[test]
    fn malformed_line_mid_stream_does_not_kill_the_daemon() {
        let good = request_line("op a load float\nop s store none\nflow a s 4 float\n");
        let bad_json = "this is not json";
        let bad_ddg = serde_json::to_string(&RsRequest::new(
            RsOp::Analyze,
            "op a load float\nflow a ghost 1 float\n",
        ))
        .unwrap();
        let input = format!("{good}\n{bad_json}\n{bad_ddg}\n{good}\n");
        let (stats, out) = serve_io(input.as_bytes(), Vec::new(), &ServeConfig::default());
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.failed, 2);
        let text = String::from_utf8(out).unwrap();
        let oks: Vec<bool> = text
            .lines()
            .map(|l| {
                serde_json::from_str(l)
                    .unwrap()
                    .get("ok")
                    .and_then(|v| v.as_bool())
                    .unwrap()
            })
            .collect();
        assert_eq!(oks, vec![true, false, false, true]);
    }

    #[test]
    fn unix_socket_round_trip() {
        let path =
            std::env::temp_dir().join(format!("rsat-serve-test-{}.sock", std::process::id()));
        let server = UnixServer::bind(&path, &ServeConfig::default()).expect("bind");
        let mut client = UnixStream::connect(&path).expect("connect");
        let line = request_line("op a load float\nop b load float\n");
        client.write_all(line.as_bytes()).unwrap();
        client.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.contains("\"ok\": true") || response.contains("\"ok\":true"));
        drop(reader);
        drop(client);
        let stats = server.stop();
        assert_eq!(stats.requests, 1);
        assert!(!path.exists(), "socket file removed on stop");
    }
}
