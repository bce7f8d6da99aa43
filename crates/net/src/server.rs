//! The TCP node server: hosts one engine behind the [`wire`](crate::wire)
//! codec so a [`RemoteNode`](crate::RemoteNode) on another machine can
//! treat it as a cluster member.

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use durable_topk::check::{LockClass, TrackedMutex};
use durable_topk::{ServeEngine, ServeResponse};

use crate::node::{describe, NodeIdentity};
use crate::wire::{read_message, write_message, Message, WireError};

/// Tunables for [`NodeServer::spawn`].
#[derive(Debug, Clone)]
pub struct NodeServerOptions {
    /// Per-read socket timeout on connection handlers: an idle handler
    /// re-checks the stop flag this often. Shutdown does not wait for it,
    /// since it shuts every accepted socket down.
    pub read_timeout: Duration,
    /// Concurrent connections accepted; further dials are closed
    /// immediately.
    pub max_connections: usize,
}

impl Default for NodeServerOptions {
    fn default() -> Self {
        NodeServerOptions { read_timeout: Duration::from_millis(200), max_connections: 64 }
    }
}

/// Shared state between the acceptor, the connection handlers, and the
/// owning [`NodeServer`] handle.
struct ServerShared {
    serve: ServeEngine,
    identity: NodeIdentity,
    opts: NodeServerOptions,
    stop: AtomicBool,
    /// Live connection-handler count (admission control).
    live: AtomicUsize,
    /// Query frames answered successfully / with an error on this
    /// server's connections (the Stats RPC reports the engine's counters,
    /// which include them).
    served: AtomicU64,
    failed: AtomicU64,
    /// Spawned connection handlers, each with a clone of its socket that
    /// shutdown closes to end the handler's blocking read.
    handlers: TrackedMutex<Vec<(JoinHandle<()>, TcpStream)>>,
}

/// A running TCP node: an acceptor thread plus one handler thread per
/// connection, each executing decoded query frames directly via
/// [`ServeEngine::execute`] (engine read lock, per-request panic isolation).
///
/// Handlers deliberately bypass the [`ServeEngine`] queue (see
/// [`ServeEngine::execute`]); dedicated I/O threads keep the node's
/// service path independent of pool capacity.
///
/// Dropping the handle shuts the server down (idempotent with
/// [`shutdown`](NodeServer::shutdown)).
pub struct NodeServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl NodeServer {
    /// Starts serving `engine` (hosted at `identity` on the global
    /// timeline) on `listener`, which may be bound to port 0 — the
    /// resolved address is available via [`addr`](NodeServer::addr).
    pub fn spawn(
        listener: TcpListener,
        serve: ServeEngine,
        identity: NodeIdentity,
        opts: NodeServerOptions,
    ) -> std::io::Result<NodeServer> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            serve,
            identity,
            opts,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            handlers: TrackedMutex::new(LockClass::NetServer, Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        // The worker pool owns compute threads, but a TCP acceptor must
        // block in `accept` indefinitely; parking a pool worker there would
        // steal a query-execution slot forever. One dedicated I/O thread
        // per server, joined on shutdown.
        #[allow(clippy::disallowed_methods)]
        let acceptor = std::thread::Builder::new()
            .name("dtk-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(NodeServer { addr, shared, acceptor: Some(acceptor) })
    }

    /// The resolved listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Query frames answered successfully so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Query frames that failed (bad input or panicked execution).
    pub fn failed(&self) -> u64 {
        self.shared.failed.load(Ordering::Relaxed)
    }

    /// Stops accepting, wakes the acceptor, and joins every thread.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; a throwaway self-connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock());
        for (handle, stream) in handlers {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts connections until the stop flag is raised, spawning one handler
/// thread per connection (up to the configured cap).
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let conn = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _)) = conn else { continue };
        if shared.live.load(Ordering::SeqCst) >= shared.opts.max_connections {
            drop(stream); // admission control: refuse by closing
            continue;
        }
        let Ok(closer) = stream.try_clone() else { continue };
        shared.live.fetch_add(1, Ordering::SeqCst);
        let handler_shared = Arc::clone(&shared);
        // Connection handlers block in socket reads between requests; see
        // the NodeServer docs for why they must not occupy worker-pool
        // slots. Bounded by `max_connections`, joined on shutdown.
        #[allow(clippy::disallowed_methods)]
        let spawned = std::thread::Builder::new()
            .name("dtk-net-conn".to_string())
            .spawn(move || handle_connection(stream, handler_shared));
        match spawned {
            Ok(handle) => {
                let mut handlers = shared.handlers.lock();
                // Opportunistically reap exited handlers so the registry
                // stays proportional to live connections.
                handlers.retain(|(h, _)| !h.is_finished());
                handlers.push((handle, closer));
            }
            Err(_) => {
                shared.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Serves one connection: a loop of read-frame → execute → write-reply.
/// Any protocol violation or unrecoverable socket error closes the
/// connection; the node itself keeps serving.
fn handle_connection(stream: TcpStream, shared: Arc<ServerShared>) {
    let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            shared.live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let msg = match read_message(&mut reader) {
            Ok(msg) => msg,
            Err(WireError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // idle; re-check the stop flag
            }
            Err(_) => break, // EOF, socket error, or malformed frame
        };
        let reply = match msg {
            Message::Query(req) => answer_query(&shared, &req),
            Message::StatsRequest => Message::Stats(shared.serve.stats()),
            Message::RangesRequest => {
                Message::Ranges(describe(&shared.serve.engine(), shared.identity))
            }
            // Reply kinds are not valid requests: protocol violation.
            Message::QueryOk(_) | Message::QueryErr(_) | Message::Stats(_) | Message::Ranges(_) => {
                break
            }
        };
        if write_message(&mut writer, &reply).is_err() {
            break;
        }
    }
    // The registry's clone keeps the socket open; close it for the peer now.
    let _ = writer.shutdown(Shutdown::Both);
    shared.live.fetch_sub(1, Ordering::SeqCst);
}

/// Executes one query frame on the handler thread; a panicking request
/// fails only itself ([`ServeEngine::execute`]'s isolation).
fn answer_query(shared: &ServerShared, req: &durable_topk::ServeRequest) -> Message {
    let start = Instant::now();
    match shared.serve.execute(req) {
        Ok((records, stats)) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            Message::QueryOk(ServeResponse {
                records,
                stats,
                queued: Duration::ZERO,
                service: start.elapsed(),
            })
        }
        Err(e) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            Message::QueryErr(e)
        }
    }
}
