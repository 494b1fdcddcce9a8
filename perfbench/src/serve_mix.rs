//! `serve_mix`: the daemon in-process (`ltsp_server::spawn` on an
//! ephemeral localhost port, 2 worker jobs) driven by 2 closed-loop
//! connections, each sending its next request only after the previous
//! answer arrived. Requests mix compile, verify and oracle 6:3:1. About 90%
//! draw from a hot set (the kernel library plus scheduling-heavy synthetic
//! kernels) that set-up has already served once, so they hit the cache;
//! the rest carry a fresh seeded random loop, so misses keep arriving in
//! steady state.
//!
//! Every distinct request's served answer is checked after the timed
//! section against a fresh in-process `Engine::handle`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ltsp_ir::SplitMix64;
use ltsp_server::{parse_request, spawn, Engine, EngineConfig, ServerConfig, ServerHandle};
use ltsp_telemetry::json::{self, escape, JsonValue};
use ltsp_telemetry::Telemetry;
use ltsp_workloads::{kernel_library, random_loop, scheduling_heavy};

use crate::check::{answer_of, split_response};
use crate::stats::{mix, Digest};
use crate::trace::Trace;
use crate::{Pass, Workload};

/// Closed-loop client connections, one per host core.
const CONNS: usize = 2;
const REQUESTS_PER_CONN: usize = 200;
/// Share of requests drawn from the hot set, percent.
const HOT_PCT: u64 = 90;
/// Scheduling-heavy synthetic kernels in the hot set.
const SYNTHETIC: usize = 8;
/// Node budget of oracle requests. Their wall-clock deadline is off, so
/// every answer is a function of the request alone.
const ORACLE_BUDGET: u64 = 20_000;
const OP_WEIGHTS: [(&str, u64); 3] = [("compile", 6), ("verify", 3), ("oracle", 1)];
const POLICY_TAGS: [&str; 4] = ["baseline", "l3", "fpl2", "hlo"];
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Cache budgets well below the daemon's defaults: fresh loops keep
/// arriving, so the caches fill and evict within the first seconds and
/// memory stays flat however long a run lasts. The hot set (a few hundred
/// KB) still fits many times over.
fn engine_config() -> EngineConfig {
    EngineConfig {
        compile_cache_bytes: 8 << 20,
        result_cache_bytes: 4 << 20,
        ..EngineConfig::default()
    }
}

/// Server-side phases from the wire `timings` object, with the per-layer
/// metric each one feeds.
const WIRE_PHASES: [(&str, &str); 10] = [
    ("parse_us", "ir.parse_us"),
    ("hlo_us", "hlo.us"),
    ("ddg_us", "ddg.us"),
    ("mrt_us", "pipeliner.mrt_us"),
    ("sched_us", "pipeliner.sched_us"),
    ("regalloc_us", "pipeliner.regalloc_us"),
    ("render_us", "server.render_us"),
    ("queue_wait_us", "server.queue_wait_us"),
    ("dispatch_us", "server.dispatch_us"),
    ("handler_us", "server.handler_us"),
];
const COMPILE_WIRE_PHASES: [&str; 5] = ["hlo_us", "ddg_us", "mrt_us", "sched_us", "regalloc_us"];

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the in-process daemon");
        writer
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("set read timeout");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone client socket"));
        Client { reader, writer }
    }

    /// Sends one line and reads one answer line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(resp),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// One request: the part its answer depends on (everything but `id` and
/// `timings`), and the full line sent.
struct Req {
    body: String,
    op: &'static str,
    line: String,
}

struct Reply {
    start: Instant,
    end: Instant,
    response: Result<String, String>,
}

/// Where a request came from, so the check can regenerate its body
/// instead of the run holding every body in memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Origin {
    Warm(usize),
    Pass { pass: usize, conn: usize, i: usize },
}

/// The answer served to each distinct request, checked against the local
/// engine after the timed section.
struct Seen {
    origin: Origin,
    answer: u64,
}

pub struct ServeMix {
    seed: u64,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    /// JSON-escaped loop texts of the hot set.
    hot: Vec<String>,
    seen: BTreeMap<u64, Seen>,
    failures: Vec<String>,
}

/// A request without its `id`; `policy` is used by compile requests only.
fn request_body(op: &str, text: &str, policy: &str) -> String {
    match op {
        "compile" => format!("\"op\":\"compile\",\"loop\":\"{text}\",\"policy\":\"{policy}\""),
        "verify" => format!("\"op\":\"verify\",\"loop\":\"{text}\""),
        _ => format!(
            "\"op\":\"oracle\",\"loop\":\"{text}\",\"budget\":{ORACLE_BUDGET},\"deadline_ms\":0"
        ),
    }
}

fn draw_op(rng: &mut SplitMix64) -> &'static str {
    let total: u64 = OP_WEIGHTS.iter().map(|w| w.1).sum();
    let mut pick = rng.next_below(total);
    for (op, w) in OP_WEIGHTS {
        if pick < w {
            return op;
        }
        pick -= w;
    }
    unreachable!("pick < total weight")
}

fn line(id: &str, body: &str, timings: bool) -> String {
    let t = if timings { ",\"timings\":true" } else { "" };
    format!("{{\"id\":\"{id}\",{body}{t}}}\n")
}

fn drive(client: &mut Client, reqs: &[Req]) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(reqs.len());
    for r in reqs {
        let start = Instant::now();
        let response = client.call(&r.line);
        let lost = response.is_err();
        replies.push(Reply {
            start,
            end: Instant::now(),
            response,
        });
        if lost {
            break;
        }
    }
    replies
}

impl ServeMix {
    /// One connection's requests for one pass.
    fn requests(&self, pass: usize, conn: usize, timings: bool) -> Vec<Req> {
        let mut rng = SplitMix64::new(mix(self.seed, (pass as u64) << 8 | conn as u64));
        (0..REQUESTS_PER_CONN)
            .map(|i| {
                let op = draw_op(&mut rng);
                let policy = POLICY_TAGS[rng.next_below(POLICY_TAGS.len() as u64) as usize];
                let body = if rng.next_below(100) < HOT_PCT {
                    let text = &self.hot[rng.next_below(self.hot.len() as u64) as usize];
                    request_body(op, text, policy)
                } else {
                    let text = escape(&random_loop(rng.next_u64()).to_string());
                    request_body(op, &text, policy)
                };
                let line = line(&format!("p{pass}c{conn}r{i}"), &body, timings);
                Req { body, op, line }
            })
            .collect()
    }

    /// The hot set, each loop as compile under every policy, verify and
    /// oracle: what set-up serves once before timing.
    fn warm_requests(&self) -> Vec<Req> {
        let ops = POLICY_TAGS
            .iter()
            .map(|policy| ("compile", *policy))
            .chain([("verify", ""), ("oracle", "")]);
        self.hot
            .iter()
            .flat_map(|text| {
                ops.clone()
                    .map(move |(op, policy)| (op, request_body(op, text, policy)))
            })
            .enumerate()
            .map(|(i, (op, body))| Req {
                line: line(&format!("w{i}"), &body, false),
                body,
                op,
            })
            .collect()
    }

    /// Books one answer: the first answer to each distinct request is kept
    /// for the local check, repeats must carry the same bytes. Returns the
    /// response's cache tag and answer digest, or `None` when the daemon
    /// did not serve the request.
    fn observe<'a>(&mut self, origin: Origin, req: &Req, resp: &'a str) -> Option<(&'a str, u64)> {
        let Some((_, cache, _)) = split_response(resp) else {
            self.failures
                .push(format!("malformed response: {}", resp.trim_end()));
            return None;
        };
        let answer = answer_of(resp).ok()?;
        let key = Digest::of(&req.body);
        match self.seen.get(&key) {
            Some(s) if s.answer != answer => self.failures.push(format!(
                "two different answers served to one request, the second: {}",
                resp.trim_end()
            )),
            Some(_) => {}
            None => {
                self.seen.insert(key, Seen { origin, answer });
            }
        }
        Some((cache, answer))
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const IDENTICAL_PASSES: bool = false;
    const CROSS_THREAD: bool = true;

    fn setup(seed: u64) -> Self {
        let server = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: CONNS,
            engine: engine_config(),
            ..ServerConfig::default()
        })
        .expect("bind the daemon on an ephemeral localhost port");
        let clients = (0..CONNS).map(|_| Client::connect(server.addr())).collect();
        let hot: Vec<String> = kernel_library()
            .into_iter()
            .map(|(_, lp)| lp)
            .chain((0..SYNTHETIC).map(|i| scheduling_heavy(&format!("syn{i}"), 3, 9 + i % 5)))
            .map(|lp| escape(&lp.to_string()))
            .collect();
        let mut w = ServeMix {
            seed,
            server: Some(server),
            clients,
            hot,
            seen: BTreeMap::new(),
            failures: Vec::new(),
        };
        // Serve the whole hot set once, so the timed section starts warm.
        let warm = w.warm_requests();
        let replies = drive(&mut w.clients[0], &warm);
        for (i, (req, reply)) in warm.iter().zip(&replies).enumerate() {
            let served = match &reply.response {
                Ok(resp) => w.observe(Origin::Warm(i), req, resp).is_some(),
                Err(_) => false,
            };
            if !served {
                w.failures.push(format!("warm-up request {i} not served"));
            }
        }
        w
    }

    fn pass(&mut self, index: usize, mut tr: Option<&mut Trace>) -> Pass {
        let batches: Vec<Vec<Req>> = (0..CONNS)
            .map(|c| self.requests(index, c, tr.is_some()))
            .collect();
        if let Some(t) = tr.as_deref_mut() {
            t.begin_pass(index);
        }
        let t0 = Instant::now();
        let replies: Vec<Vec<Reply>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&batches)
                .map(|(client, reqs)| s.spawn(move || drive(client, reqs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let end = Instant::now();

        let mut op_us = Vec::new();
        let mut failed = 0;
        let mut digest = Digest::default();
        let pass_span = tr.as_deref().and_then(Trace::pass_span);
        for (conn, (reqs, replies)) in batches.iter().zip(&replies).enumerate() {
            failed += (reqs.len() - replies.len()) as u64;
            let conn_span = tr.as_deref_mut().map(|t| {
                let first = replies.first().map_or(t0, |r| r.start);
                let last = replies.last().map_or(end, |r| r.end);
                t.record("serve.conn", first, last, pass_span, conn as u64)
            });
            for (i, (req, reply)) in reqs.iter().zip(replies).enumerate() {
                let us = reply.end.duration_since(reply.start).as_secs_f64() * 1e6;
                op_us.push(us);
                let resp = match &reply.response {
                    Ok(resp) => resp,
                    Err(e) => {
                        failed += 1;
                        self.failures.push(format!("connection {conn} lost: {e}"));
                        continue;
                    }
                };
                let origin = Origin::Pass {
                    pass: index,
                    conn,
                    i,
                };
                let Some((cache, answer)) = self.observe(origin, req, resp) else {
                    failed += 1;
                    continue;
                };
                digest.write_u64(answer);
                let Some(t) = tr.as_deref_mut() else { continue };
                let item = (conn * REQUESTS_PER_CONN + i) as u64;
                t.record("serve.request", reply.start, reply.end, conn_span, item);
                let class = match (req.op, cache) {
                    ("compile", "miss") => "server.miss",
                    ("compile", _) => "server.hit",
                    ("verify", _) => "server.verify",
                    _ => "server.oracle",
                };
                t.sample(class, us);
                t.add(
                    if cache == "miss" {
                        "cache.misses"
                    } else {
                        "cache.hits"
                    },
                    1.0,
                );
                book_wire_timings(t, resp);
            }
        }
        if let Some(t) = tr {
            t.end_pass_at(end);
        }
        Pass {
            wall_s: end.duration_since(t0).as_secs_f64(),
            attempted: (CONNS * REQUESTS_PER_CONN) as u64,
            op_us,
            failed,
            digest: digest.value(),
        }
    }

    fn check(&mut self) -> Vec<String> {
        // Regenerate each distinct request's body from where it was drawn.
        let warm = self.warm_requests();
        let mut batches: BTreeMap<(usize, usize), Vec<Req>> = BTreeMap::new();
        let mut todo: Vec<(String, u64)> = Vec::new();
        for s in self.seen.values() {
            let body = match s.origin {
                Origin::Warm(i) => warm[i].body.clone(),
                Origin::Pass { pass, conn, i } => batches
                    .entry((pass, conn))
                    .or_insert_with(|| self.requests(pass, conn, false))[i]
                    .body
                    .clone(),
            };
            todo.push((body, s.answer));
        }
        drop(batches);

        let engine = Engine::new(engine_config());
        let mut failures = std::mem::take(&mut self.failures);
        let chunk = todo.len().div_ceil(CONNS).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    let engine = &engine;
                    s.spawn(move || {
                        let tel = Telemetry::disabled();
                        let mut bad = Vec::new();
                        for (body, served) in part {
                            let line = format!("{{\"id\":\"check\",{body}}}");
                            let local = match parse_request(&line) {
                                Ok(req) => engine.handle(&req, &tel).render(),
                                Err(e) => {
                                    bad.push(format!("request does not parse: {}", e.message));
                                    continue;
                                }
                            };
                            if answer_of(&local) != Ok(*served) {
                                bad.push(format!(
                                    "served answer to {line} differs from the local engine's {local}"
                                ));
                            }
                        }
                        bad
                    })
                })
                .collect();
            for h in handles {
                failures.extend(h.join().expect("check thread panicked"));
            }
        });
        println!("serve_mix: {} distinct requests checked", todo.len());
        failures
    }
}

/// Folds a response's `timings` object into the server and compiler
/// layer sums.
fn book_wire_timings(t: &mut Trace, resp: &str) {
    let resp = resp.trim_end();
    let Some(obj) = resp
        .rfind(",\"timings\":{")
        .and_then(|i| resp[i + 11..].strip_suffix('}'))
        .and_then(|o| json::parse(o).ok())
    else {
        return;
    };
    let us = |k: &str| obj.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    t.add("server.requests", 1.0);
    for (wire, key) in WIRE_PHASES {
        t.add(key, us(wire));
    }
    t.add(
        "core.compile_us",
        COMPILE_WIRE_PHASES.iter().map(|k| us(k)).sum(),
    );
}
