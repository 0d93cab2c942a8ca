//! The untraced, timed runs: a closed loop over TCP connections against
//! the spawned front end, one request in flight per connection, all
//! driven from one client thread.

use crate::net::{self, Conn};
use crate::plans::{self, Enc};
use crate::stack::Stack;
use crate::trace::{quantile, Tracer};
use dpod_query::{Answer, QueryPlan};
use dpod_serve::protocol::{Request, Response};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Length of an analyst run's windows.
pub const WINDOW_S: f64 = 1.0;
/// Publish-and-batch cycles per `curator_epochs` window: two of each
/// mechanism.
pub const CYCLES_PER_WINDOW: usize = 6;

/// One stretch of a run; every timing figure is taken per window.
#[derive(Default)]
pub struct Window {
    pub secs: f64,
    /// Send-to-parsed-answer time per plan, in nanoseconds.
    pub latency_ns: Vec<f64>,
    pub publish_ms: Vec<f64>,
}

impl Window {
    pub fn plans_per_s(&self) -> f64 {
        self.latency_ns.len() as f64 / self.secs
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        quantile(&mut self.latency_ns.clone(), q) / 1e3
    }

    pub fn publish_ms(&self, q: f64) -> f64 {
        quantile(&mut self.publish_ms.clone(), q)
    }
}

/// The per-window figure at the better decile: the 90th percentile of a
/// higher-is-better figure, the 10th of a lower-is-better one. The
/// host's CPU speed swings by 20–50% over seconds, in bursts that can
/// last most of a run; the quietest windows are what repeat from run to
/// run.
pub fn better_decile(windows: &[Window], figure: impl Fn(&Window) -> f64, higher: bool) -> f64 {
    let mut values: Vec<f64> = windows.iter().map(figure).collect();
    quantile(&mut values, if higher { 0.9 } else { 0.1 })
}

/// Timings and counts of one run.
#[derive(Default)]
pub struct RunResult {
    /// Full windows only, unless the run was shorter than one window.
    pub windows: Vec<Window>,
    pub plans: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
}

impl RunResult {
    /// Closes `window` as a full one.
    fn close(&mut self, window: &mut Window, opened: &mut Instant) {
        window.secs = opened.elapsed().as_secs_f64();
        self.windows.push(std::mem::take(window));
        *opened = Instant::now();
    }

    /// Keeps the trailing partial window only when no full one exists.
    fn finish(&mut self, mut window: Window, opened: Instant, start: Instant) {
        if self.windows.is_empty() {
            window.secs = opened.elapsed().as_secs_f64();
            self.windows.push(window);
        }
        self.wall_s = start.elapsed().as_secs_f64();
    }
}

/// A request plus, for pool draws, its pool index.
pub struct Planned {
    /// Position in the stream (1-based where counted).
    pub seq: u64,
    pub pool: Option<usize>,
    pub req: Request,
}

/// Closed loop over one connection per entry of `encs`: request `i` goes
/// to connection `i mod encs.len()`, and a connection sends its next
/// request as soon as its answer is parsed. `check` sees every answer
/// after its latency is taken.
pub fn analyst(
    addr: SocketAddr,
    encs: &[Enc],
    seconds: f64,
    next: &mut dyn FnMut() -> Planned,
    check: &mut dyn FnMut(&Planned, Enc, &[u8]) -> bool,
) -> Result<RunResult, String> {
    let mut conns = encs
        .iter()
        .map(|&enc| Conn::connect(addr, enc))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = RunResult::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut inflight = Vec::with_capacity(conns.len());
    for conn in &mut conns {
        let planned = next();
        let t0 = Instant::now();
        conn.send(&planned.req)?;
        inflight.push(Some((planned, t0)));
    }
    while inflight.iter().any(Option::is_some) {
        for (conn, slot) in conns.iter_mut().zip(inflight.iter_mut()) {
            let Some((planned, t0)) = slot.take() else {
                continue;
            };
            let response = conn.recv();
            samples.push((
                start.elapsed().as_secs_f64(),
                t0.elapsed().as_nanos() as f64,
            ));
            out.plans += 1;
            out.attempted += 1;
            let ok = match &response {
                Ok(Response::Answer { .. }) => check(&planned, conn.enc, conn.body()),
                _ => false,
            };
            if !ok {
                out.failed += 1;
            }
            response?;
            if Instant::now() < deadline {
                let planned = next();
                let t0 = Instant::now();
                conn.send(&planned.req)?;
                *slot = Some((planned, t0));
            }
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.windows = by_time(&samples, WINDOW_S);
    Ok(out)
}

/// Splits `(completed at, latency)` samples into full windows of `secs`
/// (the whole run when it is shorter than one window).
fn by_time(samples: &[(f64, f64)], secs: f64) -> Vec<Window> {
    let end = samples.last().map_or(0.0, |s| s.0);
    let full = (end / secs).floor() as usize;
    if full == 0 {
        return vec![Window {
            secs: end.max(f64::MIN_POSITIVE),
            latency_ns: samples.iter().map(|s| s.1).collect(),
            publish_ms: Vec::new(),
        }];
    }
    let mut windows: Vec<Window> = (0..full)
        .map(|_| Window {
            secs,
            ..Window::default()
        })
        .collect();
    for &(t, lat) in samples {
        if let Some(w) = windows.get_mut((t / secs) as usize) {
            w.latency_ns.push(lat);
        }
    }
    windows
}

/// The answers the server must give to the batch after epoch `newest`,
/// from per-epoch `plan::execute` answers merged by
/// `merge_window_answers`, encoded as the batch connection's bodies.
pub fn curator_expected(stack: &Stack, newest: u64, enc: Enc) -> Result<[Vec<u8>; 3], String> {
    let refs = &stack.curator.refs;
    let window = |epochs: Vec<u64>, merge, pick: fn(&crate::curator::EpochRef) -> Answer| {
        let answers = epochs.iter().map(|e| pick(&refs[e])).collect();
        dpod_query::merge_window_answers(merge, &epochs, answers).map_err(|e| e.0)
    };
    let live: Vec<u64> = refs.keys().copied().collect();
    let lastk: Vec<u64> = live[live.len().saturating_sub(3)..].to_vec();
    let QueryPlan::Window {
        select: dpod_query::EpochSelector::Range { from, to },
        ..
    } = plans::window_range(newest)
    else {
        unreachable!("window_range builds a Range window")
    };
    let ranged: Vec<u64> = live
        .iter()
        .copied()
        .filter(|e| (from..=to).contains(e))
        .collect();
    let Request::Plan { plan: od, .. } = &plans::curator_plans(newest)[2] else {
        unreachable!("curator plans are plan requests")
    };
    let newest_matrix = refs
        .get(&newest)
        .ok_or("newest epoch has no reference")?
        .index
        .matrix();
    let answers = [
        window(lastk, dpod_query::WindowMerge::Sum, |r| r.marginal.clone())?,
        window(ranged, dpod_query::WindowMerge::PerEpoch, |r| {
            r.total.clone()
        })?,
        dpod_query::plan::execute(newest_matrix, od).map_err(|e| e.0)?,
    ];
    Ok(answers.map(|answer| net::expected_body(&Response::Answer { answer }, enc)))
}

/// Alternates one publish with one fixed batch of plans on a single
/// `DPRB` connection until the run time is up.
pub fn curator(
    stack: &mut Stack,
    addr: SocketAddr,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let enc = Enc::Binary;
    let mut conn = Conn::connect(addr, enc)?;
    let mut out = RunResult::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut window, mut opened, mut cycles) = (Window::default(), start, 0);
    while Instant::now() < deadline {
        let published = stack.publish(tracer)?;
        window.publish_ms.push(published.publish_ms);
        out.attempted += 1;
        if !published.round_trip_ok {
            out.failed += 1;
        }
        let newest = published.epoch;
        let expected = curator_expected(stack, newest, enc)?;
        let batch = plans::curator_plans(newest);
        for j in 0..plans::CURATOR_BATCH {
            let slot = plans::curator_slot(j);
            let t0 = Instant::now();
            conn.send(&batch[slot])?;
            let response = conn.recv();
            window.latency_ns.push(t0.elapsed().as_nanos() as f64);
            out.plans += 1;
            out.attempted += 1;
            let ok =
                matches!(response, Ok(Response::Answer { .. })) && conn.body() == expected[slot];
            if !ok {
                out.failed += 1;
            }
            response?;
        }
        cycles += 1;
        if cycles % CYCLES_PER_WINDOW == 0 {
            out.close(&mut window, &mut opened);
        }
    }
    out.finish(window, opened, start);
    Ok(out)
}
