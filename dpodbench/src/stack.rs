//! The serving stack one workload runs against — catalog, server,
//! curator — and the in-process request pipeline that warm-up and the
//! traced replay push requests through.

use crate::curator::{Curator, Published};
use crate::inputs::Inputs;
use crate::net;
use crate::plans::{self, Enc, ALL_ENCODINGS};
use crate::trace::{Tracer, ROOT};
use dpod_query::{QueryPlan, ReleaseIndex};
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{series, wire, Catalog, Server};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Engine budget of every workload: it holds every rebuild, index and
/// encoded answer a run makes. The engine evicts whole release entries
/// (rebuild, index and answers together), so a budget that holds only a
/// fraction of `analyst_cold`'s answers thrashes rebuilds: at warm-up
/// bytes + 8 MiB that workload ran 4–20k plans/s with p99 from 0.3 to
/// 7 ms across seeds.
pub const CACHE_BUDGET: usize = 1 << 30;
/// Epochs the curator publishes during set-up (two per mechanism).
pub const SEED_EPOCHS: u64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    Curator,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "analyst_hot" => Some(Workload::Hot),
            "analyst_cold" => Some(Workload::Cold),
            "curator_epochs" => Some(Workload::Curator),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "analyst_hot",
            Workload::Cold => "analyst_cold",
            Workload::Curator => "curator_epochs",
        }
    }

    /// The encodings of the run's connections.
    pub fn encodings(self) -> &'static [Enc] {
        match self {
            Workload::Hot => &[Enc::Binary, Enc::Packed],
            Workload::Cold => &[Enc::Json, Enc::Packed],
            Workload::Curator => &[Enc::Binary],
        }
    }
}

/// What one request through the pipeline produced.
pub struct Outcome {
    pub response: Response,
    pub request_bytes: usize,
    pub response_bytes: usize,
    /// Server-side parse of the request in its own encoding.
    pub parse_ns: u64,
    /// `Server::handle_encoded`.
    pub handle_ns: u64,
}

pub struct Stack {
    pub server: Arc<Server>,
    pub curator: Curator,
    /// Bench-side indexes of the analyst releases, built from the same
    /// catalog entries the server serves.
    analyst_index: HashMap<String, Arc<ReleaseIndex>>,
    /// Publishes made so far (set-up's seed epochs first).
    pub publishes: Vec<Published>,
    next_epoch: u64,
    /// Set after a publish: the next `Window` plan is the first one.
    first_window: bool,
    warm_requests: u64,
}

/// Request ids of warm-up requests start here; run requests count from 0.
pub const WARM_REQ_BASE: u64 = 1 << 48;

impl Stack {
    /// Builds the catalog and server, publishes the seed epochs through
    /// the curator path, and warms every layer the workload's run uses.
    pub fn build(
        inputs: &Inputs,
        workload: Workload,
        pool: &[Request],
        dir: PathBuf,
        tracer: &mut Tracer,
    ) -> Result<Stack, String> {
        let catalog = Arc::new(Catalog::new());
        let mut analyst_index = HashMap::new();
        for (name, release) in &inputs.analyst {
            catalog.publish(name, release.clone());
            let rebuilt = release
                .clone()
                .into_sanitized()
                .map_err(|e| e.to_string())?;
            analyst_index.insert(
                name.to_string(),
                Arc::new(ReleaseIndex::new(Arc::new(rebuilt))),
            );
        }
        let mut stack = Stack {
            server: Arc::new(Server::new(catalog, CACHE_BUDGET)),
            curator: Curator::new(inputs, dir),
            analyst_index,
            publishes: Vec::new(),
            next_epoch: 1,
            first_window: false,
            warm_requests: 0,
        };
        for _ in 0..SEED_EPOCHS {
            stack.publish(tracer)?;
        }
        // The warm set twice over on every encoding, so the miss and the
        // hit path both run, then one curator batch.
        let set = plans::warm_set();
        for _ in 0..2 {
            for enc in ALL_ENCODINGS {
                for req in &set {
                    stack.expect_answer(tracer, req, enc)?;
                }
            }
        }
        let batch = plans::curator_plans(stack.next_epoch - 1);
        for j in 0..plans::CURATOR_BATCH {
            stack.expect_answer(tracer, &batch[plans::curator_slot(j)], Enc::Binary)?;
        }
        if workload != Workload::Curator {
            stack.curator.retire_all(&stack.server);
        }
        if workload == Workload::Hot {
            for &enc in workload.encodings() {
                for req in pool {
                    stack.expect_answer(tracer, req, enc)?;
                }
            }
        }
        Ok(stack)
    }

    fn expect_answer(
        &mut self,
        tracer: &mut Tracer,
        req: &Request,
        enc: Enc,
    ) -> Result<(), String> {
        self.warm_requests += 1;
        let out = self.pipe(tracer, WARM_REQ_BASE + self.warm_requests, req, enc)?;
        match out.response {
            Response::Answer { .. } => Ok(()),
            other => Err(format!("warm-up request {req:?} failed: {other:?}")),
        }
    }

    /// Publishes the next epoch through the curator path.
    pub fn publish(&mut self, tracer: &mut Tracer) -> Result<&Published, String> {
        let epoch = self.next_epoch;
        let published = self.curator.publish(&self.server, epoch, tracer)?;
        self.next_epoch += 1;
        self.first_window = true;
        self.publishes.push(published);
        Ok(self.publishes.last().expect("just pushed"))
    }

    pub fn bench_index(&self, release: &str) -> Option<Arc<ReleaseIndex>> {
        if let Some(ix) = self.analyst_index.get(release) {
            return Some(Arc::clone(ix));
        }
        let epoch = series::split_epoch_name(release).1?;
        self.curator.refs.get(&epoch).map(|r| Arc::clone(&r.index))
    }

    /// Pushes one request through every layer in-process: client
    /// encode, server parse, plan key, `handle_encoded`, and on an
    /// encoded-memo miss the execute and encode it did, then the client's
    /// parse of the answer. Each call is a span under the request's root.
    pub fn pipe(
        &mut self,
        tracer: &mut Tracer,
        req_id: u64,
        req: &Request,
        enc: Enc,
    ) -> Result<Outcome, String> {
        let root = tracer.open("request", ROOT, req_id);
        let mut bytes = Vec::new();
        tracer.time("client.encode_request", root, req_id, || {
            net::encode_request(req, enc, &mut bytes)
        })?;
        let (parsed, parse_id) = match enc {
            Enc::Json => {
                let id = tracer.open("wire.parse_request_json", root, req_id);
                let parsed = std::str::from_utf8(&bytes[..bytes.len() - 1])
                    .map_err(|e| e.to_string())
                    .and_then(|line| {
                        serde_json::from_str::<Request>(line).map_err(|e| e.to_string())
                    });
                tracer.close(id);
                (parsed?, id)
            }
            Enc::Binary | Enc::Packed => {
                let id = tracer.open("wire.decode_request", root, req_id);
                let parsed = wire::decode_request(&bytes[4..]).map_err(|e| e.0);
                tracer.close(id);
                (parsed?, id)
            }
        };
        if enc != Enc::Json {
            // The JSON parser on this request's NDJSON form, so the parser
            // is measured on every workload's plan mix.
            let line = serde_json::to_string(&parsed).map_err(|e| e.to_string())?;
            tracer
                .time("wire.parse_request_json_shadow", root, req_id, || {
                    serde_json::from_str::<Request>(&line)
                })
                .map_err(|e| e.to_string())?;
        }
        let Request::Plan { release, plan } = &parsed else {
            return Err(format!("not a plan request: {parsed:?}"));
        };
        let window = matches!(plan, QueryPlan::Window { .. });
        if !window {
            tracer
                .time("serve.plan_key", root, req_id, || {
                    serde_json::to_string(plan)
                })
                .map_err(|e| e.to_string())?;
        }
        let hits_before = self.server.engine_stats().encoded_hits;
        let handle_id = tracer.open("serve.handle", root, req_id);
        let framed = self.server.handle_encoded(&parsed, enc.response());
        tracer.close(handle_id);
        let hit = self.server.engine_stats().encoded_hits > hits_before;
        let name = if window {
            if std::mem::take(&mut self.first_window) {
                "serve.window_first"
            } else {
                "serve.window_warm"
            }
        } else if hit {
            "serve.handle_hit"
        } else {
            "serve.handle_miss"
        };
        tracer.rename(handle_id, name);
        if !window && !hit {
            if let Some(index) = self.bench_index(release) {
                let answer = tracer.time("query.execute", root, req_id, || {
                    dpod_query::plan::execute_with(index.as_ref(), plan)
                });
                if let Ok(answer) = answer {
                    let resp = Response::Answer { answer };
                    tracer.time("wire.encode_response", root, req_id, || {
                        encode_response(&resp, enc)
                    });
                }
            }
        }
        let body = net::response_body(&framed, enc).to_vec();
        let response = tracer.time("client.decode_response", root, req_id, || {
            net::decode_response(&body, enc)
        })?;
        tracer.close(root);
        Ok(Outcome {
            response,
            request_bytes: bytes.len(),
            response_bytes: framed.len(),
            parse_ns: tracer.nanos(parse_id),
            handle_ns: tracer.nanos(handle_id),
        })
    }
}

/// Final socket bytes of `resp`, as the server's encoder produces them.
fn encode_response(resp: &Response, enc: Enc) -> Vec<u8> {
    let body = net::expected_body(resp, enc);
    match enc {
        Enc::Json => {
            let mut line = body;
            line.push(b'\n');
            line
        }
        Enc::Binary | Enc::Packed => {
            let mut out = Vec::with_capacity(body.len() + 4);
            wire::write_frame(&mut out, &body).expect("answers fit a frame");
            out
        }
    }
}
