//! The event-driven TCP front end: `L` epoll loop **shards**, each
//! owning its own poller, connection slab, and waker, and each running
//! its connections' requests to completion on its own thread.
//!
//! The pool fallback ([`FrontEnd::Pool`](crate::FrontEnd::Pool))
//! dedicates a thread to each open connection, so an idle analyst pins
//! a thread and concurrency is capped at the pool size. Here, open
//! connections are plain state — a [`conn::Assembler`](crate::conn),
//! an outbound buffer and a few flags — registered with one shard's
//! [`polling::Poller`]. A shard is the whole serving pipeline for the
//! connections it owns: accept, nonblocking reads, protocol framing,
//! [`conn::run_job`](crate::conn) (request decode,
//! [`Server::handle_encoded`], response bytes), the socket write, and
//! idle sweeps. Nothing crosses a thread between a request's first byte
//! and its response's last, so a round trip wakes exactly one server
//! thread and `L` shards are the front end's only threads.
//!
//! ## One turn per readiness event
//!
//! A readable connection gets one **turn**: the shard reads up to
//! [`TURN_BYTES`], feeds them to the connection's assembler, answers
//! every completed item, and writes the response straight to the
//! socket. Whatever the socket does not take (a slow reader) stays in
//! the connection's outbound buffer and is flushed under write
//! readiness. The per-turn cap bounds how long one pipelining
//! connection can hold its shard; level-triggered epoll re-reports
//! whatever it left unread. Responses stay in request order because a
//! connection's bytes are framed and answered in arrival order by the
//! one thread that owns it.
//!
//! The trade-off is head-of-line blocking *within* a shard: a slow
//! miss (a matrix rebuild, or the first window after a publish) delays
//! the other connections of its own shard until it finishes. Other
//! shards keep serving, warm hits cost microseconds, and the default of
//! one shard per core puts every core to work.
//!
//! ## Shard ownership and accept
//!
//! Every connection belongs to exactly one shard for its whole life:
//! the shard that accepted it owns its slab entry, parser, readiness
//! events, timeouts, and writes. Each shard accepts from its *own*
//! listener: several shards bind the same address with `SO_REUSEPORT`
//! ([`polling::net::bind_reuseport`]) and the kernel spreads incoming
//! connections across them. Where that bind fails,
//! [`crate::spawn_with`] runs one shard on one plain listener, so no
//! socket ever crosses a thread.
//!
//! ## Backpressure and timeouts
//!
//! A pipelining client that stops draining responses fills the
//! connection's outbound buffer; past [`WRITE_BACKPRESSURE_BYTES`] the
//! owning shard stops reading that connection, and once no byte moves
//! in either direction for the configured idle timeout the connection
//! is dropped — the shard never blocks on a slow socket. Each shard
//! sweeps only its own slab, so a stalled connection affects nothing
//! outside its shard. Purely idle connections are closed after the same
//! timeout, matching the pool front end.
//!
//! ## Graceful shutdown
//!
//! Setting the shutdown flag (and waking every shard) stops all
//! acceptors and pauses all reads; every request already read has been
//! answered within its turn, so draining only flushes the outbound
//! buffers, then exits. The drain deadline is **global**: the first
//! shard to observe shutdown anchors `now + drain_ms` in shared state
//! and every shard drains toward that same instant, so a shard that
//! wakes late cannot extend the barrier.

use crate::conn::{run_job, Assembler, WorkItem};
use crate::metrics::{ShardMetrics, Stage, Transport};
use crate::server::{Server, WireMode};
use dpod_obs::Span;
use polling::{Interest, Poller, Waker};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Outbound bytes buffered for one connection above which its shard
/// stops reading more of its requests until the buffer drains — the
/// write-side backpressure threshold.
pub const WRITE_BACKPRESSURE_BYTES: usize = 4 << 20;

/// Most request bytes one connection reads and frames per turn, so one
/// connection's deep pipeline cannot monopolize its shard. A turn
/// boundary may fall mid-frame; the assembler keeps the partial and the
/// remainder arrives in a later turn.
const TURN_BYTES: usize = 256 << 10;

/// Loop tick: the upper bound on epoll_wait blocking, so timeout sweeps
/// and the shutdown flag are observed promptly.
const TICK: Duration = Duration::from_millis(100);

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Tunables handed down from [`crate::SpawnOptions`].
#[derive(Debug, Clone)]
pub(crate) struct EventConfig {
    pub mode: WireMode,
    pub idle_timeout: Duration,
}

/// Per-connection state, owned and touched only by its shard.
struct EvConn {
    stream: TcpStream,
    /// Protocol framing state: every byte read is pushed here, in
    /// arrival order, within the turn that read it.
    asm: Assembler,
    /// Metrics-clock stamp of when the assembler first went partial
    /// (bytes buffered, no complete item) — the `parse` stage measures
    /// from here to the next completed item.
    partial_since: Option<u64>,
    /// The transport the connection settled on (`None` until the first
    /// parsed item), for `write` stage labels.
    transport: Option<Transport>,
    out: Vec<u8>,
    outpos: usize,
    close_after_flush: bool,
    peer_closed: bool,
    last_activity: Instant,
    registered: Interest,
}

impl EvConn {
    fn outstanding(&self) -> usize {
        self.out.len() - self.outpos
    }

    /// The settled transport for `write` stage labels (binary until the
    /// first item says otherwise, matching the preamble sniffer's
    /// default).
    fn transport(&self) -> Transport {
        self.transport.unwrap_or(Transport::Binary)
    }
}

/// The transport a parsed item travels on (a connection never mixes
/// framings mid-stream).
fn transport_of(item: &WorkItem) -> Transport {
    match item {
        WorkItem::JsonLine(_)
        | WorkItem::Desync {
            as_binary: false, ..
        } => Transport::Json,
        _ => Transport::Binary,
    }
}

/// What [`spawn`] hands back to the [`crate::ServerHandle`]: one join
/// handle and one waker per loop shard, index-aligned.
pub(crate) type SpawnedShards = (Vec<std::thread::JoinHandle<()>>, Vec<Arc<Waker>>);

/// Spawns the event front end: one loop shard per listener — the front
/// end's only threads — and the waker/shutdown plumbing the
/// [`crate::ServerHandle`] drives. Several listeners must share one
/// address through `SO_REUSEPORT`, so the kernel spreads accepts.
///
/// # Errors
/// Creating a poller or waker (notably `Unsupported` off Linux, which
/// [`crate::spawn_with`] turns into a thread-pool fallback), or
/// registering a listener.
pub(crate) fn spawn(
    server: Arc<Server>,
    listeners: Vec<TcpListener>,
    cfg: EventConfig,
    shutdown: Arc<AtomicBool>,
    drain_ms: Arc<AtomicU64>,
) -> std::io::Result<SpawnedShards> {
    // The drain deadline is shared: whichever shard observes shutdown
    // first anchors it, and all shards converge on the same instant.
    let drain_anchor = Arc::new(Mutex::new(None::<Instant>));
    // All fallible setup first: a `?` here drops every half-built shard
    // before any thread exists.
    let mut shards = Vec::with_capacity(listeners.len());
    for (shard, listener) in listeners.into_iter().enumerate() {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        shards.push(EventLoop {
            server: Arc::clone(&server),
            poller,
            listener: Some(listener),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            waker,
            metrics: server.metrics().shard(shard),
            cfg: cfg.clone(),
            shutdown: Arc::clone(&shutdown),
            drain_ms: Arc::clone(&drain_ms),
            drain_anchor: Arc::clone(&drain_anchor),
            scratch: vec![0u8; 64 << 10],
        });
    }
    let wakers = shards.iter().map(|s| Arc::clone(&s.waker)).collect();
    let joins = shards
        .into_iter()
        .map(|state| {
            std::thread::spawn(move || {
                // Batch scheduling class: on core-starved hosts a shard
                // then wakes with fuller readiness batches instead of
                // preempting clients after every single request
                // (harmless otherwise).
                let _ = polling::sched::set_current_thread_batch();
                state.run();
            })
        })
        .collect();
    Ok((joins, wakers))
}

struct EventLoop {
    server: Arc<Server>,
    poller: Poller,
    /// This shard's own listener; taken (closed) when draining starts.
    listener: Option<TcpListener>,
    conns: Vec<Option<EvConn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    waker: Arc<Waker>,
    /// This shard's labelled health series.
    metrics: ShardMetrics,
    cfg: EventConfig,
    shutdown: Arc<AtomicBool>,
    drain_ms: Arc<AtomicU64>,
    /// Globally shared drain deadline (see the module docs).
    drain_anchor: Arc<Mutex<Option<Instant>>>,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn token(&self, slot: usize) -> u64 {
        (slot as u64) | (u64::from(self.gens[slot]) << 32)
    }

    fn slot_of(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        (slot < self.gens.len() && self.gens[slot] == gen && self.conns[slot].is_some())
            .then_some(slot)
    }

    fn run(mut self) {
        let mut events = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let draining = self.shutdown.load(Ordering::SeqCst);
            if draining && drain_deadline.is_none() {
                // Stop accepting: deregister and close the listen socket
                // (pending backlog entries are reset by the kernel), and
                // pause reads everywhere — already-read requests were
                // answered in their turn and still get flushed.
                if let Some(listener) = self.listener.take() {
                    let _ = self.poller.delete(listener.as_raw_fd());
                }
                let deadline = {
                    let mut anchor = self.drain_anchor.lock().unwrap_or_else(|e| e.into_inner());
                    *anchor.get_or_insert_with(|| {
                        Instant::now() + Duration::from_millis(self.drain_ms.load(Ordering::SeqCst))
                    })
                };
                drain_deadline = Some(deadline);
                for slot in 0..self.conns.len() {
                    if self.conns[slot].is_some() {
                        self.update_interest(slot);
                    }
                }
            }
            if let Some(deadline) = drain_deadline {
                // Close connections as they flush; leave when all are
                // gone or the deadline passes (stragglers dropped).
                for slot in 0..self.conns.len() {
                    let done = matches!(&self.conns[slot], Some(c) if c.outstanding() == 0);
                    if done {
                        self.close(slot);
                    }
                }
                let open = self.conns.iter().filter(|c| c.is_some()).count();
                if open == 0 || Instant::now() >= deadline {
                    for slot in 0..self.conns.len() {
                        if self.conns[slot].is_some() {
                            self.close(slot);
                        }
                    }
                    return;
                }
            }

            // Give every runnable client a turn before blocking: on
            // core-starved hosts this coalesces their writes so the
            // next wait returns one large batch instead of many
            // single-event wakes (a no-op when idle).
            std::thread::yield_now();
            let wait_start = Instant::now();
            let waited = self.poller.wait(&mut events, Some(TICK));
            self.metrics
                .epoll_wait_nanos
                .add(u64::try_from(wait_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            self.metrics.epoll_wakes.inc();
            if waited.is_err() {
                // An unrecoverable poller failure: nothing can make
                // progress on this shard, so stop it rather than spin.
                return;
            }
            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    token => {
                        if let Some(slot) = self.slot_of(token) {
                            if ev.writable {
                                self.write_ready(slot);
                            }
                            if ev.readable && self.conns[slot].is_some() {
                                self.read_ready(slot);
                            }
                        }
                    }
                }
            }
            self.sweep_timeouts();
        }
    }

    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _peer)) => self.register(stream),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // `WouldBlock`, or a transient accept failure retried on
                // the next readiness event.
                Err(_) => return,
            }
        }
    }

    /// Takes ownership of a freshly accepted socket: slab entry, poller
    /// registration, connection gauges.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        self.server.connection_opened();
        let fd = stream.as_raw_fd();
        let conn = EvConn {
            stream,
            asm: Assembler::new(self.cfg.mode),
            partial_since: None,
            transport: None,
            out: Vec::new(),
            outpos: 0,
            close_after_flush: false,
            peer_closed: false,
            last_activity: Instant::now(),
            registered: Interest::READABLE,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        if self
            .poller
            .add(fd, self.token(slot), Interest::READABLE)
            .is_err()
        {
            self.close(slot);
        }
    }

    /// One turn of a readable connection: read up to [`TURN_BYTES`]
    /// into its assembler, answer every completed item, and write the
    /// response (see the module docs).
    fn read_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if !conn.registered.readable {
            return; // readiness raced a pause; the re-arm will re-report
        }
        let mut read = 0usize;
        loop {
            match (&conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    conn.asm.push_eof();
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.asm.push(&self.scratch[..n]);
                    read += n;
                    // A short read means the socket buffer is
                    // (momentarily) empty: skip the guaranteed EAGAIN
                    // syscall. Level-triggered epoll re-reports
                    // anything that arrives meanwhile, or that the
                    // turn budget left unread.
                    if read >= TURN_BYTES || n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Reset or similar: the connection is gone.
                    self.close(slot);
                    return;
                }
            }
        }
        if read > 0 {
            self.metrics.dispatch_bytes.record(read as u64);
        }
        self.answer(slot);
        self.write_ready(slot);
    }

    /// Answers the items the turn completed, on this thread, appending
    /// the response bytes to the connection's outbound buffer (the
    /// caller writes them), and accounts the `parse` stage.
    fn answer(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let items = conn.asm.take_items();
        let metrics = self.server.metrics();
        let now = metrics.now_nanos();
        if let Some(first) = items.first() {
            let transport = *conn.transport.get_or_insert_with(|| transport_of(first));
            // Parse-stage samples: the first completed item closes out
            // any partial the assembler was holding (its latency is
            // partial-start → now); items completed within this same
            // turn cost ~0 wall time.
            let first_nanos = conn.partial_since.map_or(0, |t| now.saturating_sub(t));
            let parse = metrics.stage(transport, Stage::Parse);
            parse.record(first_nanos);
            for _ in 1..items.len() {
                parse.record(0);
            }
        }
        // Keep the original stamp when no item completed: the partial is
        // still the same in-flight request.
        conn.partial_since = match (conn.asm.buffered() > 0, items.is_empty()) {
            (false, _) => None,
            (true, true) => conn.partial_since.or(Some(now)),
            (true, false) => Some(now),
        };
        if items.is_empty() {
            return;
        }
        let (bytes, close) = run_job(&self.server, items, conn.asm.packed());
        conn.close_after_flush |= close;
        if conn.out.is_empty() {
            conn.out = bytes;
            conn.outpos = 0;
        } else {
            conn.out.extend_from_slice(&bytes);
        }
    }

    /// Flushes the connection's outbound buffer until done or
    /// `WouldBlock`, then re-arms its interest and closes it if its
    /// stream is finished.
    fn write_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let flush_span = (conn.outstanding() > 0).then(Span::start);
        loop {
            if conn.outpos == conn.out.len() {
                conn.out.clear();
                conn.outpos = 0;
                break;
            }
            match (&conn.stream).write(&conn.out[conn.outpos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.outpos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        if conn.outpos > (1 << 20) {
            conn.out.drain(..conn.outpos);
            conn.outpos = 0;
        }
        if let Some(span) = flush_span {
            let transport = conn.transport();
            span.finish(self.server.metrics().stage(transport, Stage::Write));
        }
        self.update_interest(slot);
        self.maybe_close(slot);
    }

    /// Closes connections with no byte movement in either direction for
    /// the idle timeout: quiet analysts are reclaimed silently (as on
    /// the pool front end) and stalled writers — a pipelining peer that
    /// stopped draining — are dropped instead of wedging resources.
    /// Sweeps only this shard's slab — a connection is owned by exactly
    /// one shard for its whole life — and refreshes the shard's
    /// partial-request depth gauge on the way.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        let mut partial_bytes = 0u64;
        for slot in 0..self.conns.len() {
            let expired = match &self.conns[slot] {
                Some(conn) => {
                    partial_bytes += conn.asm.buffered() as u64;
                    now.duration_since(conn.last_activity) > self.cfg.idle_timeout
                }
                None => false,
            };
            if expired {
                self.metrics.sweep_evictions.inc();
                self.close(slot);
            }
        }
        self.metrics.pending_bytes.set(partial_bytes);
    }

    fn update_interest(&mut self, slot: usize) {
        let draining = self.shutdown.load(Ordering::SeqCst);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let backpressured = conn.outstanding() > WRITE_BACKPRESSURE_BYTES;
        let read_paused = conn.close_after_flush || conn.peer_closed || draining || backpressured;
        let desired = Interest {
            readable: !read_paused,
            writable: conn.outstanding() > 0,
        };
        if conn.registered.readable && !desired.readable && backpressured {
            // Count only pauses *caused* by backpressure, not closes or
            // drains that happen to coincide.
            self.metrics.backpressure_pauses.inc();
        }
        if desired != conn.registered {
            conn.registered = desired;
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, self.token(slot), desired).is_err() {
                self.close(slot);
            }
        }
    }

    /// Closes the connection if its stream is finished: everything
    /// flushed after a fatal item, or after the peer went away.
    fn maybe_close(&mut self, slot: usize) {
        let finished = matches!(
            &self.conns[slot],
            Some(c) if c.outstanding() == 0 && (c.close_after_flush || c.peer_closed)
        );
        if finished {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.server.connection_closed();
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot);
        }
    }
}
