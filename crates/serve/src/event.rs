//! The event-driven TCP front end: `L` epoll loop **shards**, each
//! owning its own poller, connection slab, and waker; `N` pool workers
//! serve `M ≫ N` connections across all shards.
//!
//! The pool fallback ([`FrontEnd::Pool`](crate::FrontEnd::Pool))
//! dedicates a worker to each open connection, so an idle analyst pins
//! a thread and concurrency is capped at the pool size. Here, open
//! connections are plain state — byte buffers plus a worker-side
//! [`conn::Assembler`](crate::conn) — registered with one shard's
//! [`polling::Poller`]. Division of labor:
//!
//! * **loop shards** — accept, nonblocking reads (raw bytes only — no
//!   protocol framing), slow-path writes, idle sweeps over their own
//!   slab. A single loop thread was the ceiling at high fan-in: every
//!   read *and* every newline scan / length-prefix parse serialized on
//!   it. Sharding splits the socket work `L` ways, and framing moved
//!   off the loops entirely;
//! * **workers** — protocol framing (the connection's `Assembler` lives
//!   in [`ConnShared`] behind a mutex only the single in-flight worker
//!   takes), then [`conn::run_job`](crate::conn) — request decode,
//!   [`Server::handle_encoded`], response bytes — and the
//!   **direct-write fast path**: when the connection had no
//!   backlogged outbound bytes at dispatch, the worker writes the
//!   encoded response straight to the nonblocking socket itself, so the
//!   reply path is worker → client with no loop hop and no `eventfd`
//!   syscall. Whatever does not fit (a stalled peer) is handed back
//!   over the owning shard's done channel and that shard finishes it
//!   under write readiness.
//!
//! ## Shard ownership and accept
//!
//! Every connection belongs to exactly one shard for its whole life:
//! the shard that registered it owns its slab entry, readiness events,
//! timeouts, and slow-path writes. With `SO_REUSEPORT`
//! ([`polling::net::bind_reuseport`]) each shard accepts from its *own*
//! listener bound to the same address and the kernel spreads incoming
//! connections across them. Where `SO_REUSEPORT` is unavailable the
//! shards fall back to **striped accept**: shard 0 owns the single
//! listener and hands accepted sockets round-robin to its peers over
//! per-shard channels.
//!
//! Responses stay in request order because each connection has at most
//! one job in flight: its unread bytes queue in the owning shard while
//! a worker owns it, and the next batch dispatches when the previous
//! one lands. Framing on the worker is safe for the same reason — the
//! single in-flight worker is the only thread that touches the
//! connection's parser, and raw bytes reach it in arrival order.
//!
//! ## The per-shard completion handshake
//!
//! Each shard publishes its intent to sleep (`sleeping`), then re-scans
//! *its own* slab for dispatchable work and drains *its own* done
//! channel before blocking. A worker finishing a fast-path completion
//! clears the connection's `busy` flag and then checks `has_pending`;
//! the shard's read path stores `has_pending` before its dispatch scan
//! checks `busy`. These SeqCst store→load pairs are Dekker-style: at
//! least one side observes the other, so a request can never be
//! stranded with neither a dispatch nor a wake. The proof is purely
//! shard-local — every flag involved lives on a connection owned by
//! exactly one shard, and the worker's wake targets that shard's waker.
//!
//! ## Backpressure and timeouts
//!
//! A pipelining client that stops draining responses fills the
//! connection's outbound buffer; past [`WRITE_BACKPRESSURE_BYTES`] the
//! owning shard stops reading (and stops dispatching) for that
//! connection, and once no byte moves in either direction for the
//! configured idle timeout the connection is dropped — no worker ever
//! blocks on a slow socket. Each shard sweeps only its own slab, so a
//! stalled connection affects nothing outside its shard. Purely idle
//! connections are closed after the same timeout, matching the pool
//! front end.
//!
//! ## Graceful shutdown
//!
//! Setting the shutdown flag (and waking every shard) stops all
//! acceptors, pauses all reads, finishes every queued-or-running
//! request, flushes the outbound buffers, then exits. The drain
//! deadline is **global**: the first shard to observe shutdown anchors
//! `now + drain_ms` in shared state and every shard drains toward that
//! same instant, so a shard that wakes late cannot extend the barrier.

use crate::conn::{run_job, Assembler, WorkItem};
use crate::metrics::{ShardMetrics, Stage, Transport};
use crate::server::{Server, WireMode};
use dpod_obs::Span;
use polling::{Interest, Poller, Waker};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Outbound bytes buffered for one connection above which its shard
/// stops reading (and dispatching) more of its requests until the
/// buffer drains — the write-side backpressure threshold.
pub const WRITE_BACKPRESSURE_BYTES: usize = 4 << 20;

/// Read-but-undispatched request bytes one connection may queue before
/// its reads pause (bounds memory against a client that pipelines
/// faster than workers answer).
const MAX_PENDING_BYTES: usize = 16 << 20;

/// Most raw bytes handed to a worker in one job unit, so one
/// connection's deep pipeline cannot monopolize a worker unboundedly.
/// A unit boundary may fall mid-frame; the worker-side assembler keeps
/// the partial and the remainder arrives in the next unit.
const MAX_JOB_BYTES: usize = 256 << 10;

/// Most connection units packed into one dispatch batch: bounds the
/// latency a unit can sit behind its batch-mates while still amortizing
/// the channel round across a large readiness batch.
const MAX_UNITS_PER_JOB: usize = 32;

/// Most bytes read from one connection per readiness event (fairness
/// across connections; level-triggered epoll re-reports the remainder).
const READ_BUDGET: usize = 256 << 10;

/// Loop tick: the upper bound on epoll_wait blocking, so timeout sweeps
/// and the shutdown flag are observed promptly.
const TICK: Duration = Duration::from_millis(100);

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// `ConnShared::transport` codes: unknown until the first parsed item.
const TRANSPORT_UNKNOWN: u8 = 0;
const TRANSPORT_JSON: u8 = 1;
const TRANSPORT_BINARY: u8 = 2;

/// Tunables handed down from [`crate::SpawnOptions`].
#[derive(Debug, Clone)]
pub(crate) struct EventConfig {
    pub workers: usize,
    /// Loop shards (each its own epoll fd + slab); clamped to ≥ 1.
    pub loops: usize,
    pub mode: WireMode,
    pub idle_timeout: Duration,
}

/// One shard's completion plumbing, carried by every job dispatched
/// from that shard so workers finish units back to the owning loop.
///
/// The `eventfd` wake is a syscall per call, so workers elide it twice
/// over: while the owning shard is awake (`sleeping == false` — the
/// shard publishes its intent to sleep and *then* drains its done
/// channel and re-scans its slab for dispatchable work, so nothing can
/// fall between the final checks and the blocking `epoll_wait`), and
/// for fully-direct-written completions nothing waits on
/// (`urgent == false`): those only clear the connection's `busy` flag,
/// and the shard's pre-sleep scan picks up any bytes that were queued
/// behind the job. The worker-side `has_pending` check and the
/// shard-side pre-sleep `busy` check form a Dekker-style pair of SeqCst
/// store→load sequences: at least one side always observes the other,
/// so a request can never be stranded with neither a dispatch nor a
/// wake (see the module docs — the proof is shard-local).
#[derive(Debug)]
struct ShardSignal {
    done_tx: mpsc::Sender<Done>,
    waker: Arc<Waker>,
    sleeping: Arc<AtomicBool>,
}

impl ShardSignal {
    fn notify(&self, urgent: bool) {
        if urgent && self.sleeping.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// A peer shard's intake for striped accept: the owning shard sends the
/// freshly accepted socket and wakes the peer to register it.
#[derive(Debug)]
struct ShardLink {
    incoming: mpsc::Sender<TcpStream>,
    waker: Arc<Waker>,
}

/// The worker's view of one connection's framing state: the protocol
/// assembler plus the partial-request stamp that feeds the `parse`
/// stage histogram. Behind [`ConnShared::parser`], locked only by the
/// connection's single in-flight worker — never by the loop — so the
/// mutex is uncontended by construction.
#[derive(Debug)]
struct Parser {
    asm: Assembler,
    /// Metrics-clock stamp of when the assembler first went partial
    /// (bytes buffered, no complete item) — the `parse` stage measures
    /// from here to the next completed item.
    partial_since: Option<u64>,
}

/// The slice of one connection visible to its in-flight worker: the
/// socket, the framing state, and the flags of the completion
/// handshake, in one `Arc` so dispatch clones a single refcount.
#[derive(Debug)]
struct ConnShared {
    stream: TcpStream,
    /// A worker owns an in-flight job for this connection. Set by the
    /// owning shard at dispatch; cleared by the worker on a fully-
    /// direct-written completion, by the shard in `collect_done`
    /// otherwise.
    busy: AtomicBool,
    /// Mirror of "the owning shard has unread-request bytes queued
    /// behind this job" (maintained by the shard). Checked by the
    /// worker *after* clearing `busy`: seeing it set makes the
    /// completion urgent, closing the race against the shard's
    /// pre-sleep dispatch scan.
    has_pending: AtomicBool,
    /// Milliseconds since the loop epoch at the connection's last job
    /// completion, stored by the worker. Fast-path completions send
    /// nothing over the done channel, so without this stamp a response
    /// delivered after a slow query would not count as activity and the
    /// idle sweep could close a connection it just answered.
    last_done_ms: AtomicU64,
    /// Protocol framing state; see [`Parser`].
    parser: Mutex<Parser>,
    /// The transport the connection settled on ([`TRANSPORT_UNKNOWN`]
    /// until the worker parses the first item), for loop-side `write`
    /// stage labels.
    transport: AtomicU8,
}

/// One connection's work, owned by a worker until it completes: either
/// entirely on the worker (response fully written directly → the worker
/// clears `busy` itself and nothing crosses the done channel), or by
/// handing leftovers back as a [`DoneUnit`].
struct JobUnit {
    slot: usize,
    gen: u32,
    /// Raw request bytes in arrival order; the worker feeds them to the
    /// connection's assembler. May be empty when only `eof` is being
    /// delivered.
    raw: Vec<u8>,
    /// The peer half-closed after these bytes: the worker pushes EOF
    /// into the assembler so a trailing unterminated request surfaces.
    eof: bool,
    /// Metrics-clock stamp at dispatch; the worker accounts the queue
    /// wait per parsed item at dequeue.
    queued_at: u64,
    shared: Arc<ConnShared>,
    /// The shard's outbound buffer was empty at dispatch: the worker
    /// may write the response bytes straight to the socket (it is the
    /// connection's only writer until it completes).
    direct: bool,
}

/// A dispatch batch: ready work from **several connections** of one
/// shard travels in one channel send (responses across connections have
/// no ordering contract, only responses *within* one). Batching is what
/// amortizes the channel round and the worker wake-up across the whole
/// epoll readiness batch instead of paying them per connection.
struct Job {
    units: Vec<JobUnit>,
    /// Completion plumbing of the shard every unit here belongs to.
    signal: Arc<ShardSignal>,
}

/// One connection's completion: whatever response bytes the worker did
/// not manage to write directly (all of them when the fast path was not
/// available).
struct DoneUnit {
    slot: usize,
    gen: u32,
    bytes: Vec<u8>,
    close: bool,
    /// The direct write hit a hard IO error: drop the connection.
    io_failed: bool,
}

/// A finished batch, mirroring [`Job`].
struct Done {
    units: Vec<DoneUnit>,
}

/// Per-connection state owned by one shard. The [`ConnShared`] half is
/// visible to at most one in-flight job at a time (`Arc` keeps the
/// descriptor alive — and un-recycled — if the shard closes the
/// connection while that job still runs).
struct EvConn {
    shared: Arc<ConnShared>,
    /// Raw bytes read off the socket, not yet dispatched to a worker.
    inbuf: Vec<u8>,
    /// The peer half-closed and the EOF has not yet been shipped to the
    /// worker-side assembler.
    eof_pending: bool,
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

    fn busy(&self) -> bool {
        self.shared.busy.load(Ordering::SeqCst)
    }

    /// Undelivered ingest: raw bytes or an unshipped EOF.
    fn has_ingest(&self) -> bool {
        !self.inbuf.is_empty() || self.eof_pending
    }

    /// Anything left that graceful shutdown should wait for?
    fn quiesced(&self) -> bool {
        !self.busy() && !self.has_ingest() && self.outstanding() == 0
    }

    /// The settled transport for loop-side write-stage labels (binary
    /// until the first item says otherwise, matching the preamble
    /// sniffer's default).
    fn transport(&self) -> Transport {
        match self.shared.transport.load(Ordering::Relaxed) {
            TRANSPORT_JSON => Transport::Json,
            _ => Transport::Binary,
        }
    }
}

/// The worker half of the direct-write fast path: pushes `bytes` into
/// the nonblocking socket until done or `WouldBlock`, draining written
/// prefixes in place (on return, `bytes` holds only the unwritten
/// tail).
///
/// # Errors
/// Hard IO failures (reset, broken pipe); the caller drops the
/// connection through the owning shard.
fn write_direct(stream: &TcpStream, bytes: &mut Vec<u8>) -> std::io::Result<()> {
    let mut pos = 0usize;
    let result = loop {
        if pos == bytes.len() {
            break Ok(());
        }
        match (&*stream).write(&bytes[pos..]) {
            Ok(0) => break Ok(()), // treat as a stall; the loop retries
            Ok(n) => pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        }
    };
    bytes.drain(..pos);
    result
}

/// The transport a parsed item travels on (a connection never mixes
/// framings mid-stream).
fn transport_code(item: &WorkItem) -> u8 {
    match item {
        WorkItem::JsonLine(_) => TRANSPORT_JSON,
        WorkItem::Desync { as_binary, .. } => {
            if *as_binary {
                TRANSPORT_BINARY
            } else {
                TRANSPORT_JSON
            }
        }
        _ => TRANSPORT_BINARY,
    }
}

/// Worker-side framing for one unit: feeds the raw bytes (and EOF) into
/// the connection's assembler, settles the transport, and accounts the
/// `parse` and `queue` stages. Returns the completed items, the settled
/// transport, and whether the peer negotiated packed response frames
/// (read from the assembler under the same lock).
///
/// The parser mutex is taken here and only here — the single in-flight
/// worker is the only thread that ever locks it, so this is a plain
/// uncontended acquire, not a synchronization point.
fn parse_unit(server: &Server, unit: &JobUnit) -> (Transport, bool, Vec<WorkItem>) {
    let metrics = server.metrics();
    let dequeued = metrics.now_nanos();
    let mut parser = unit.shared.parser.lock().unwrap_or_else(|e| e.into_inner());
    if !unit.raw.is_empty() {
        parser.asm.push(&unit.raw);
    }
    if unit.eof {
        parser.asm.push_eof();
    }
    let items = parser.asm.take_items();
    let packed = parser.asm.packed();
    if unit.shared.transport.load(Ordering::Relaxed) == TRANSPORT_UNKNOWN {
        if let Some(first) = items.first() {
            unit.shared
                .transport
                .store(transport_code(first), Ordering::Relaxed);
        }
    }
    let transport = match unit.shared.transport.load(Ordering::Relaxed) {
        TRANSPORT_JSON => Transport::Json,
        _ => Transport::Binary,
    };
    // Parse-stage samples: the first completed item closes out any
    // partial the assembler was holding (its latency is partial-start →
    // now); items completed within this same unit cost ~0 wall time.
    for idx in 0..items.len() {
        let nanos = if idx == 0 {
            parser
                .partial_since
                .map_or(0, |t| dequeued.saturating_sub(t))
        } else {
            0
        };
        metrics.stage(transport, Stage::Parse).record(nanos);
    }
    parser.partial_since = if parser.asm.has_partial() {
        // Keep the original stamp when no item completed: the partial
        // is still the same in-flight request.
        if items.is_empty() {
            parser.partial_since.or(Some(dequeued))
        } else {
            Some(dequeued)
        }
    } else {
        None
    };
    drop(parser);
    // Queue wait: dispatch stamp → this dequeue, per item.
    for _ in &items {
        metrics
            .stage(transport, Stage::Queue)
            .record(dequeued.saturating_sub(unit.queued_at));
    }
    (transport, packed, items)
}

/// Everything one shard needs, assembled before its thread starts so
/// all fallible setup happens up front.
struct ShardParts {
    poller: Poller,
    waker: Arc<Waker>,
    listener: Option<TcpListener>,
    sleeping: Arc<AtomicBool>,
    done_rx: mpsc::Receiver<Done>,
    incoming_rx: mpsc::Receiver<TcpStream>,
    signal: Arc<ShardSignal>,
}

/// What [`spawn`] hands back to the [`crate::ServerHandle`]: one join
/// handle and one waker per loop shard, index-aligned.
pub(crate) type SpawnedShards = (Vec<std::thread::JoinHandle<()>>, Vec<Arc<Waker>>);

/// Spawns the event front end: `cfg.loops` loop shards over the given
/// listeners, `cfg.workers` pool workers shared by all shards, and the
/// waker/shutdown plumbing the [`crate::ServerHandle`] drives.
///
/// `listeners` is either one listener **per shard** (all bound to the
/// same address via `SO_REUSEPORT` — the kernel spreads accepts) or a
/// **single** listener (shard 0 accepts and hands sockets round-robin
/// to its peers: the striped-accept fallback for platforms without
/// `SO_REUSEPORT`).
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
    let loops = cfg.loops.max(1);
    debug_assert!(
        listeners.len() == loops || listeners.len() == 1,
        "one listener per shard (SO_REUSEPORT) or a single striped one"
    );
    let striped = listeners.len() < loops;
    // Shared clock origin for the workers' completion stamps.
    let epoch = Instant::now();

    // All fallible setup first: a `?` here drops every half-built part
    // before any thread exists.
    let mut listeners = listeners.into_iter();
    let mut shards = Vec::with_capacity(loops);
    let mut links = Vec::with_capacity(loops);
    for _ in 0..loops {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);
        let listener = listeners.next();
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            poller.add(l.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        }
        let sleeping = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let (incoming_tx, incoming_rx) = mpsc::channel::<TcpStream>();
        let signal = Arc::new(ShardSignal {
            done_tx,
            waker: Arc::clone(&waker),
            sleeping: Arc::clone(&sleeping),
        });
        links.push(ShardLink {
            incoming: incoming_tx,
            waker: Arc::clone(&waker),
        });
        shards.push(ShardParts {
            poller,
            waker,
            listener,
            sleeping,
            done_rx,
            incoming_rx,
            signal,
        });
    }
    let links = Arc::new(links);

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    for _ in 0..cfg.workers.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            // Batch scheduling class: a waking worker no longer preempts
            // running clients mid-burst, so readiness accumulates and
            // both the shards' and the workers' batches grow (a real
            // effect only when cores are scarce; harmless otherwise).
            let _ = polling::sched::set_current_thread_batch();
            loop {
                let job = {
                    let guard = job_rx.lock().unwrap_or_else(|e| e.into_inner());
                    guard.recv()
                };
                match job {
                    Ok(job) => {
                        let mut units = Vec::new();
                        let mut urgent = false;
                        for unit in job.units {
                            let (transport, packed, items) = parse_unit(&server, &unit);
                            let (mut bytes, close) = run_job(&server, items, packed);
                            unit.shared
                                .last_done_ms
                                .store(epoch.elapsed().as_millis() as u64, Ordering::Relaxed);
                            let mut io_failed = false;
                            if unit.direct && !bytes.is_empty() {
                                let span = Span::start();
                                if write_direct(&unit.shared.stream, &mut bytes).is_err() {
                                    io_failed = true;
                                }
                                span.finish(server.metrics().stage(transport, Stage::Write));
                            }
                            if bytes.is_empty() && !close && !io_failed {
                                // The hot path: response fully on the wire.
                                // Clearing `busy` here (after the write, so
                                // the next job's bytes cannot overtake)
                                // completes the unit with nothing sent back
                                // to the shard at all — unless request
                                // bytes are already queued behind this job,
                                // in which case only a wake lets the shard
                                // dispatch them (Dekker pair with the
                                // pre-sleep scan; see `ShardSignal`).
                                unit.shared.busy.store(false, Ordering::SeqCst);
                                urgent |= unit.shared.has_pending.load(Ordering::SeqCst);
                                continue;
                            }
                            units.push(DoneUnit {
                                slot: unit.slot,
                                gen: unit.gen,
                                bytes,
                                close,
                                io_failed,
                            });
                        }
                        // Leftovers, closes, and failures need the shard
                        // promptly; fast-path completions at most need a
                        // wake when requests are queued behind them.
                        urgent |= !units.is_empty();
                        if !units.is_empty() && job.signal.done_tx.send(Done { units }).is_err() {
                            // That shard's loop is gone (poller failure or
                            // teardown); keep serving the other shards.
                            continue;
                        }
                        job.signal.notify(urgent);
                    }
                    Err(_) => return, // job channel closed: server stopped
                }
            }
        });
    }

    // The drain deadline is shared: whichever shard observes shutdown
    // first anchors it, and all shards converge on the same instant.
    let drain_anchor = Arc::new(Mutex::new(None::<Instant>));
    let mut joins = Vec::with_capacity(loops);
    let mut wakers = Vec::with_capacity(loops);
    for (shard, parts) in shards.into_iter().enumerate() {
        wakers.push(Arc::clone(&parts.waker));
        let state = EventLoop {
            server: Arc::clone(&server),
            poller: parts.poller,
            listener: parts.listener,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            shard,
            loops,
            striped,
            next_stripe: (shard + 1) % loops,
            peers: Arc::clone(&links),
            incoming_rx: parts.incoming_rx,
            job_tx: job_tx.clone(),
            done_rx: parts.done_rx,
            waker: parts.waker,
            sleeping: parts.sleeping,
            signal: parts.signal,
            metrics: server.metrics().shard(shard),
            epoch,
            cfg: cfg.clone(),
            shutdown: Arc::clone(&shutdown),
            drain_ms: Arc::clone(&drain_ms),
            drain_anchor: Arc::clone(&drain_anchor),
            scratch: vec![0u8; 64 << 10],
            staged: Vec::new(),
        };
        joins.push(std::thread::spawn(move || {
            // Same batch class as the workers: on core-starved hosts a
            // shard then wakes with fuller readiness batches instead of
            // preempting clients after every single request.
            let _ = polling::sched::set_current_thread_batch();
            state.run();
        }));
    }
    // Workers exit when the last shard drops its `job_tx` clone.
    drop(job_tx);
    Ok((joins, wakers))
}

struct EventLoop {
    server: Arc<Server>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: Vec<Option<EvConn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    /// This shard's index (metrics label; striping skips self-sends).
    shard: usize,
    /// Total shard count, for the striped-accept round-robin.
    loops: usize,
    /// Single-listener mode: the listener-owning shard deals accepted
    /// sockets to its peers instead of the kernel spreading them.
    striped: bool,
    /// Next shard in the striped round-robin.
    next_stripe: usize,
    /// Every shard's intake (index-aligned), for striped handoff.
    peers: Arc<Vec<ShardLink>>,
    /// Sockets handed to this shard by the striping accept shard.
    incoming_rx: mpsc::Receiver<TcpStream>,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Done>,
    waker: Arc<Waker>,
    sleeping: Arc<AtomicBool>,
    /// This shard's completion plumbing, attached to every job it
    /// dispatches.
    signal: Arc<ShardSignal>,
    /// This shard's labelled health series.
    metrics: ShardMetrics,
    epoch: Instant,
    cfg: EventConfig,
    shutdown: Arc<AtomicBool>,
    drain_ms: Arc<AtomicU64>,
    /// Globally shared drain deadline (see the module docs).
    drain_anchor: Arc<Mutex<Option<Instant>>>,
    scratch: Vec<u8>,
    /// Units staged by [`EventLoop::maybe_dispatch`] within the current
    /// iteration, shipped in batches by [`EventLoop::flush_staged`].
    staged: Vec<JobUnit>,
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
                // pause reads everywhere — already-read requests still
                // get answered and flushed. Keyed on the deadline, not
                // the listener: striped non-zero shards never had one.
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
                // Close connections as they quiesce; leave when all are
                // gone or the deadline passes (stragglers dropped).
                for slot in 0..self.conns.len() {
                    let done = matches!(&self.conns[slot], Some(c) if c.quiesced());
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
                    return; // dropping this shard's job_tx clone (last one out stops the workers)
                }
            }

            // Publish the intent to sleep, then take the final looks: a
            // worker that saw `sleeping == false` (and skipped its wake
            // syscall) must have completed before these checks, so the
            // done drain — or, for fast-path completions, the dispatch
            // scan over now-idle connections with queued bytes —
            // observes its effects; anything later sees `true` and
            // wakes.
            // Give every runnable client/worker a turn before
            // blocking: on core-starved hosts this coalesces their
            // writes so the next wait returns one large batch instead
            // of many single-event wakes (a no-op when idle).
            std::thread::yield_now();
            self.sleeping.store(true, Ordering::SeqCst);
            self.collect_incoming();
            let mut pending_total = 0u64;
            for slot in 0..self.conns.len() {
                let (dispatchable, reap) = match &self.conns[slot] {
                    Some(c) => {
                        pending_total += c.inbuf.len() as u64;
                        (
                            c.has_ingest() && !c.busy(),
                            c.peer_closed || c.close_after_flush,
                        )
                    }
                    None => (false, false),
                };
                if dispatchable {
                    self.maybe_dispatch(slot);
                    // Draining `inbuf` may lift the read pause (a deep
                    // pipeline past MAX_PENDING_BYTES is resumed here
                    // once fast-path completions shrink the queue);
                    // without the re-arm the connection would starve
                    // against a client that already sent everything.
                    self.update_interest(slot);
                }
                if reap {
                    // A gone peer whose last job completed on the
                    // worker fast path reaches quiescence without any
                    // further event; reap it here rather than waiting
                    // out the idle sweep.
                    self.maybe_close(slot);
                }
            }
            self.flush_staged();
            self.collect_done();
            // The depth gauge snapshots this iteration's scan (dispatch
            // may have drained some queues since, making it a slight
            // over-estimate — fine for a health gauge).
            self.metrics.pending_bytes.set(pending_total);
            let wait_start = Instant::now();
            let waited = self.poller.wait(&mut events, Some(TICK));
            self.metrics
                .epoll_wait_nanos
                .add(u64::try_from(wait_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            self.metrics.epoll_wakes.inc();
            self.sleeping.store(false, Ordering::SeqCst);
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
            self.collect_incoming();
            self.flush_staged();
            self.collect_done();
            self.sweep_timeouts();
        }
    }

    /// Registers sockets striped over from the accepting shard. During
    /// drain, late handoffs are dropped (reset) — same fate as unserved
    /// backlog entries on the closed listener.
    fn collect_incoming(&mut self) {
        while let Ok(stream) = self.incoming_rx.try_recv() {
            if self.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            self.register(stream);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.striped && self.loops > 1 {
                        let target = self.next_stripe;
                        self.next_stripe = (self.next_stripe + 1) % self.loops;
                        if target != self.shard {
                            match self.peers[target].incoming.send(stream) {
                                Ok(()) => {
                                    // Accepts are rare next to reads;
                                    // wake unconditionally rather than
                                    // extending the Dekker protocol to
                                    // the handoff.
                                    self.peers[target].waker.wake();
                                    continue;
                                }
                                // Peer shard is gone: serve it here.
                                Err(e) => self.register(e.0),
                            }
                            continue;
                        }
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return, // transient accept failure; retry on next event
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
        let conn = EvConn {
            shared: Arc::new(ConnShared {
                stream,
                busy: AtomicBool::new(false),
                has_pending: AtomicBool::new(false),
                last_done_ms: AtomicU64::new(self.epoch.elapsed().as_millis() as u64),
                parser: Mutex::new(Parser {
                    asm: Assembler::new(self.cfg.mode),
                    partial_since: None,
                }),
                transport: AtomicU8::new(TRANSPORT_UNKNOWN),
            }),
            inbuf: Vec::new(),
            eof_pending: false,
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
        let token = self.token(slot);
        let fd = self.conns[slot]
            .as_ref()
            .expect("just placed")
            .shared
            .stream
            .as_raw_fd();
        if self.poller.add(fd, token, Interest::READABLE).is_err() {
            self.close(slot);
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let mut dead = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if !conn.registered.readable {
                return; // readiness raced a pause; the re-arm will re-report
            }
            let mut budget = READ_BUDGET;
            loop {
                match (&conn.shared.stream).read(&mut self.scratch) {
                    Ok(0) => {
                        if !conn.peer_closed {
                            conn.peer_closed = true;
                            conn.eof_pending = true;
                        }
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        conn.inbuf.extend_from_slice(&self.scratch[..n]);
                        budget = budget.saturating_sub(n);
                        if budget == 0 {
                            break;
                        }
                        // A short read means the socket buffer is
                        // (momentarily) empty: skip the guaranteed
                        // EAGAIN syscall. Level-triggered epoll
                        // re-reports anything that arrives meanwhile.
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Reset or similar: the connection is gone.
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.has_ingest() {
                // Published before the `busy` check in maybe_dispatch
                // below: the Dekker ordering that guarantees either
                // this thread sees `busy == false` or the finishing
                // worker sees the flag.
                conn.shared.has_pending.store(true, Ordering::SeqCst);
            }
        }
        if dead {
            self.close(slot);
            return;
        }
        self.maybe_dispatch(slot);
        self.update_interest(slot);
        self.maybe_close(slot);
    }

    fn write_ready(&mut self, slot: usize) {
        let mut dead = false;
        {
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
                match (&conn.shared.stream).write(&conn.out[conn.outpos..]) {
                    Ok(0) => break,
                    Ok(n) => {
                        conn.outpos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.outpos > (1 << 20) {
                conn.out.drain(..conn.outpos);
                conn.outpos = 0;
            }
            if let Some(span) = flush_span {
                let transport = conn.transport();
                span.finish(self.server.metrics().stage(transport, Stage::Write));
            }
        }
        if dead {
            self.close(slot);
            return;
        }
        self.maybe_dispatch(slot);
        self.update_interest(slot);
        self.maybe_close(slot);
    }

    /// Stages the connection's queued raw bytes (up to
    /// [`MAX_JOB_BYTES`]) and any unshipped EOF for dispatch, unless a
    /// worker already owns it or backpressure gates it. Staged units
    /// ship when the iteration's events have all been handled
    /// ([`EventLoop::flush_staged`]), so one readiness batch becomes a
    /// handful of channel sends, not one per socket.
    fn maybe_dispatch(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.busy()
            || conn.close_after_flush
            || !conn.has_ingest()
            || conn.outstanding() > WRITE_BACKPRESSURE_BYTES
        {
            return;
        }
        let raw: Vec<u8> = if conn.inbuf.len() <= MAX_JOB_BYTES {
            std::mem::take(&mut conn.inbuf)
        } else {
            conn.inbuf.drain(..MAX_JOB_BYTES).collect()
        };
        // EOF rides along only once every preceding byte has shipped,
        // so the worker-side assembler sees it in order.
        let eof = conn.eof_pending && conn.inbuf.is_empty();
        if eof {
            conn.eof_pending = false;
        }
        self.metrics.dispatch_bytes.record(raw.len() as u64);
        // Relaxed is enough off the Dekker path: a worker reading a
        // stale `true` only issues a spurious wake, and `busy = true`
        // is read back by this thread alone (the job itself reaches the
        // worker through the channel, which synchronizes).
        conn.shared
            .has_pending
            .store(conn.has_ingest(), Ordering::Relaxed);
        conn.shared.busy.store(true, Ordering::Relaxed);
        // The fast path: with nothing backlogged, the worker is the
        // connection's only writer until its done lands, so it may push
        // the response into the socket itself.
        let direct = conn.outstanding() == 0;
        self.staged.push(JobUnit {
            slot,
            gen: self.gens[slot],
            raw,
            eof,
            queued_at: self.server.metrics().now_nanos(),
            shared: Arc::clone(&conn.shared),
            direct,
        });
    }

    /// Ships the staged units, spread over the pool: enough jobs that
    /// every worker can pull one, each capped at [`MAX_UNITS_PER_JOB`].
    fn flush_staged(&mut self) {
        while !self.staged.is_empty() {
            let take = self.staged.len().min(MAX_UNITS_PER_JOB);
            let units: Vec<JobUnit> = self.staged.drain(..take).collect();
            // A send failure means every worker died (only possible
            // during teardown); drop the connections rather than wedge
            // them.
            let job = Job {
                units,
                signal: Arc::clone(&self.signal),
            };
            if self.job_tx.send(job).is_err() {
                for slot in 0..self.conns.len() {
                    if matches!(&self.conns[slot], Some(c) if c.busy()) {
                        self.close(slot);
                    }
                }
                self.staged.clear();
                return;
            }
        }
    }

    fn collect_done(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            for unit in done.units {
                let slot = unit.slot;
                let current = slot < self.gens.len()
                    && self.gens[slot] == unit.gen
                    && self.conns[slot].is_some();
                if !current {
                    continue; // the connection closed while the job ran
                }
                if unit.io_failed {
                    // The worker's direct write hit a hard error; clear
                    // the in-flight flag and drop the connection.
                    let conn = self.conns[slot].as_mut().expect("open");
                    conn.shared.busy.store(false, Ordering::SeqCst);
                    self.close(slot);
                    continue;
                }
                {
                    let conn = self.conns[slot].as_mut().expect("open");
                    conn.shared.busy.store(false, Ordering::SeqCst);
                    conn.last_activity = Instant::now();
                    if conn.out.is_empty() {
                        conn.out = unit.bytes;
                        conn.outpos = 0;
                    } else {
                        conn.out.extend_from_slice(&unit.bytes);
                    }
                    if unit.close {
                        conn.close_after_flush = true;
                        conn.inbuf.clear();
                        conn.eof_pending = false;
                    }
                }
                self.write_ready(slot); // flush without another epoll round
                if self.conns[slot].is_some() {
                    self.maybe_dispatch(slot);
                    self.update_interest(slot);
                    self.maybe_close(slot);
                }
            }
        }
        self.flush_staged();
    }

    /// Closes connections with no byte movement in either direction for
    /// the idle timeout: quiet analysts are reclaimed silently (as on
    /// the pool front end) and stalled writers — a pipelining peer that
    /// stopped draining — are dropped instead of wedging resources.
    /// Connections with a job in flight are exempt; the job's completion
    /// refreshes their activity stamp. Sweeps only this shard's slab —
    /// a connection is owned by exactly one shard for its whole life.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let expired = match &self.conns[slot] {
                Some(conn) => {
                    // A fast-path completion crosses no channel, so the
                    // worker's stamp is the only record of the response
                    // it just delivered; idle means *both* the loop-side
                    // and worker-side clocks are stale.
                    let last_done = self.epoch
                        + Duration::from_millis(conn.shared.last_done_ms.load(Ordering::Relaxed));
                    let last = conn.last_activity.max(last_done);
                    !conn.busy() && now.duration_since(last) > self.cfg.idle_timeout
                }
                None => false,
            };
            if expired {
                self.metrics.sweep_evictions.inc();
                self.close(slot);
            }
        }
    }

    fn update_interest(&mut self, slot: usize) {
        let draining = self.shutdown.load(Ordering::SeqCst);
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let backpressured =
            conn.inbuf.len() >= MAX_PENDING_BYTES || conn.outstanding() > WRITE_BACKPRESSURE_BYTES;
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
            let fd = conn.shared.stream.as_raw_fd();
            let token = (slot as u64) | (u64::from(self.gens[slot]) << 32);
            if self.poller.modify(fd, token, desired).is_err() {
                self.close(slot);
            }
        }
    }

    /// Closes the connection if its stream is finished: everything
    /// flushed after a fatal item, or the peer is gone and no work
    /// remains.
    fn maybe_close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_ref() else {
            return;
        };
        let flushed = conn.outstanding() == 0;
        let fatal = conn.close_after_flush && !conn.busy() && flushed;
        let finished = conn.peer_closed && conn.quiesced();
        if fatal || finished {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.delete(conn.shared.stream.as_raw_fd());
            self.server.connection_closed();
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::Catalog;
    use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{DenseMatrix, Shape};
    use std::io::{BufRead, BufReader};

    fn test_server() -> Arc<Server> {
        let catalog = Arc::new(Catalog::new());
        let shape = Shape::new(vec![16, 16]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(shape);
        m.add_at(&[3, 9], 700).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(11))
            .unwrap();
        catalog.publish("city", PublishedRelease::from_sanitized(&out));
        Arc::new(Server::new(catalog, 1 << 22))
    }

    /// The `SO_REUSEPORT`-less fallback, driven directly: one listener,
    /// four shards. Shard 0 accepts and stripes sockets round-robin to
    /// its peers, so three of the four shards serve connections they
    /// never accepted — every round trip below crosses the handoff
    /// channel plus an unconditional peer wake.
    #[test]
    fn striped_accept_serves_connections_on_listenerless_shards() {
        let server = test_server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let drain_ms = Arc::new(AtomicU64::new(0));
        let cfg = EventConfig {
            workers: 2,
            loops: 4,
            mode: WireMode::Auto,
            idle_timeout: Duration::from_secs(30),
        };
        let (joins, wakers) = spawn(
            Arc::clone(&server),
            vec![listener],
            cfg,
            Arc::clone(&shutdown),
            drain_ms,
        )
        .expect("striped spawn");
        assert_eq!(joins.len(), 4);

        // More connections than shards: the round-robin wraps and every
        // shard (listener-owning or not) serves several.
        let req = serde_json::to_string(&Request::Query {
            release: "city".into(),
            lo: vec![0, 0],
            hi: vec![16, 16],
        })
        .unwrap();
        let mut conns = Vec::new();
        for _ in 0..12 {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            conns.push(stream);
        }
        let mut values = Vec::new();
        for stream in &conns {
            (&*stream).write_all(format!("{req}\n").as_bytes()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut answer = String::new();
            reader.read_line(&mut answer).unwrap();
            let Response::Value { value } =
                serde_json::from_str::<Response>(answer.trim()).unwrap()
            else {
                panic!("striped connection unanswered: {answer:?}");
            };
            values.push(value);
        }
        assert_eq!(values.len(), 12);
        assert!(values.windows(2).all(|w| w[0] == w[1]), "answers diverged");
        assert_eq!(server.metrics().queries.get(), 12);

        drop(conns);
        shutdown.store(true, Ordering::SeqCst);
        for w in &wakers {
            w.wake();
        }
        for j in joins {
            j.join().unwrap();
        }
    }
}
