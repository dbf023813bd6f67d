//! `serve_mix`: `serve_listener` on loopback TCP with two client
//! connections, each interleaving a fixed set of live sessions (closed
//! loop per connection, zero think time). Clients label by target
//! membership themselves and never send `target`, so the server runs no
//! evaluation scan.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_core::serve::{serve_listener, ServeConfig, SessionHost};
use aide_core::{SessionConfig, TargetQuery};
use aide_index::{ExtractionEngine, IndexKind};
use aide_util::json::Json;

use crate::data;
use crate::metrics::{Checks, Outcome};
use crate::session::{self, Labels, Plan, Run};
use crate::spans::Spans;
use crate::spec::Spec;
use crate::stats::{mean, median, quantile, ratio, us};
use crate::steer;

/// A request/response channel to a session host.
trait Transport {
    /// Sends one request frame and returns the response frame.
    fn request(&mut self, frame: &str) -> Result<String, String>;
}

/// One `aide-serve/1` TCP connection, hello frame consumed.
struct Tcp {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Tcp {
    fn connect(addr: SocketAddr) -> Result<Tcp, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut tcp = Tcp {
            reader,
            writer: stream,
            buf: String::new(),
        };
        let hello = tcp.read_line()?;
        if !hello.contains("\"hello\":\"aide-serve/1\"") {
            return Err(format!("unexpected hello frame {hello}"));
        }
        Ok(tcp)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Transport for Tcp {
    fn request(&mut self, frame: &str) -> Result<String, String> {
        // One write per frame: a split write would wait on delayed ACKs.
        self.buf.clear();
        self.buf.push_str(frame);
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .map_err(|e| e.to_string())?;
        self.read_line()
    }
}

/// The host called directly, without a socket.
struct InProcess<'a>(&'a SessionHost);

impl Transport for InProcess<'_> {
    fn request(&mut self, frame: &str) -> Result<String, String> {
        Ok(self.0.handle(frame))
    }
}

/// One session a connection runs: its index in the run, seed and target.
#[derive(Debug, Clone, Copy)]
struct Planned {
    idx: usize,
    seed: u64,
    target: usize,
}

/// A live session on a connection.
struct Live {
    plan: Planned,
    id: u64,
    points: Vec<Vec<f64>>,
    rounds_done: usize,
    total_labeled: u64,
    labels: Vec<Vec<bool>>,
}

/// A finished server session, kept for the in-process replay check.
#[derive(Debug, Clone)]
struct Finished {
    plan: Planned,
    labels: Vec<Vec<bool>>,
    sql: String,
}

/// A timed request: span name, start, end and round id.
type Timed = (&'static str, Instant, Instant, Option<u64>);

/// What one connection measured.
#[derive(Default)]
struct ConnLog {
    /// `create` round trips by session index.
    create_us: Vec<(usize, f64)>,
    /// `label` round trips by session index and round.
    label_us: Vec<(usize, usize, f64)>,
    /// `result` round trips by session index.
    result_us: Vec<(usize, f64)>,
    reply_bytes: u64,
    checks: Checks,
    finished: Vec<Finished>,
    spans: Vec<Timed>,
}

/// The fixed client schedule: session `i` runs on connection
/// `i % connections`, with its own seed and target `i % target_areas`.
fn schedule(spec: &Spec, seed: u64) -> Vec<Vec<Planned>> {
    let seeds = data::session_seeds(spec.sessions, seed);
    let mut per_conn = vec![Vec::new(); spec.connections];
    for (idx, &s) in seeds.iter().enumerate() {
        per_conn[idx % spec.connections].push(Planned {
            idx,
            seed: s,
            target: idx % spec.target_areas,
        });
    }
    per_conn
}

/// Parses a reply; a non-JSON or `"ok":false` frame is an error.
fn parse_ok(reply: &str) -> Result<Json, String> {
    let j = Json::parse(reply).map_err(|e| format!("bad reply JSON ({}): {reply}", e.message))?;
    if j.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(j)
    } else {
        Err(format!("error frame: {reply}"))
    }
}

/// The `point`s of a reply's `proposals`.
fn points(reply: &Json) -> Option<Vec<Vec<f64>>> {
    reply
        .get("proposals")?
        .as_array()?
        .iter()
        .map(|p| {
            p.get("point")?
                .as_array()?
                .iter()
                .map(Json::as_f64)
                .collect()
        })
        .collect()
}

fn num(j: &Json, key: &str) -> Option<u64> {
    j.get(key).and_then(Json::as_u64)
}

/// Drives one connection through its sessions, `live` at a time,
/// round-robin: each step sends one request for the next live session.
/// With `spanned`, every request is recorded as a span.
fn drive(
    t: &mut dyn Transport,
    plan: &[Planned],
    spec: &Spec,
    targets: &[TargetQuery],
    inject_fault: bool,
    spanned: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut queue = plan.iter().copied();
    let mut live: VecDeque<Live> = VecDeque::new();
    let mut fault_pending = inject_fault;
    loop {
        // Admit new sessions until `live` are in flight.
        while live.len() < spec.live_per_connection {
            let Some(p) = queue.next() else { break };
            let frame = format!(
                r#"{{"v":1,"op":"create","seed":{},"batch":{}}}"#,
                p.seed, spec.batch
            );
            let (reply, start, end) = timed(t, &frame);
            log.create_us.push((p.idx, us(end - start)));
            if spanned {
                log.spans.push(("serve.create", start, end, None));
            }
            let created = reply.and_then(|r| parse_ok(&r)).and_then(|j| {
                let id = num(&j, "session").ok_or("create reply without a session id")?;
                let pts = points(&j)
                    .filter(|p| !p.is_empty())
                    .ok_or("create proposed nothing")?;
                Ok((id, pts))
            });
            log.checks.check(created.is_ok(), || {
                format!("create {}: {:?}", p.idx, created.as_ref().err())
            });
            if let Ok((id, pts)) = created {
                live.push_back(Live {
                    plan: p,
                    id,
                    points: pts,
                    rounds_done: 0,
                    total_labeled: 0,
                    labels: Vec::new(),
                });
            }
        }
        let Some(mut s) = live.pop_front() else { break };
        if s.rounds_done < spec.rounds {
            let target = &targets[s.plan.target];
            let labels: Vec<bool> = s.points.iter().map(|p| target.contains(p)).collect();
            if std::mem::take(&mut fault_pending) {
                // The seeded corruption: one label short. The server must
                // refuse it with an error frame and keep the batch pending.
                let short = labels_frame(s.id, &labels[..labels.len() - 1]);
                let (reply, _, _) = timed(t, &short);
                let refused = reply.is_ok_and(|r| r.contains("\"error\":\"bad_labels\""));
                log.checks.check(false, || {
                    format!("injected fault, refused as bad_labels: {refused}")
                });
            }
            let frame = labels_frame(s.id, &labels);
            let (reply, start, end) = timed(t, &frame);
            let round = (s.plan.idx * spec.rounds + s.rounds_done) as u64;
            log.label_us
                .push((s.plan.idx, s.rounds_done, us(end - start)));
            if spanned {
                log.spans.push(("serve.label", start, end, Some(round)));
            }
            let expect_iter = s.rounds_done as u64;
            let prev = s.total_labeled;
            let checked = reply.and_then(|r| {
                log.reply_bytes += r.len() as u64;
                let j = parse_ok(&r)?;
                let new = num(&j, "new_samples").ok_or("no new_samples")?;
                let total = num(&j, "total_labeled").ok_or("no total_labeled")?;
                let pts = points(&j).ok_or("no proposals")?;
                let done = j.get("done").and_then(Json::as_bool).ok_or("no done")?;
                if num(&j, "iter") != Some(expect_iter)
                    || new > labels.len() as u64
                    || total != prev + new
                    || done != pts.is_empty()
                {
                    return Err(format!("label counts do not match the proposals: {r}"));
                }
                Ok((total, pts))
            });
            log.checks.check(checked.is_ok(), || {
                format!("label {}: {:?}", s.plan.idx, checked.as_ref().err())
            });
            s.labels.push(labels);
            s.rounds_done += 1;
            match checked {
                Ok((total, pts)) if !pts.is_empty() || s.rounds_done == spec.rounds => {
                    s.total_labeled = total;
                    s.points = pts;
                    live.push_back(s);
                }
                _ => {
                    // Nothing more to label: the session cannot go on.
                    log.checks
                        .check(false, || format!("session {} ended early", s.plan.idx));
                    close(t, &mut log, s.id);
                }
            }
            continue;
        }
        let frame = format!(r#"{{"v":1,"op":"result","session":{}}}"#, s.id);
        let (reply, start, end) = timed(t, &frame);
        log.result_us.push((s.plan.idx, us(end - start)));
        if spanned {
            log.spans.push(("serve.result", start, end, None));
        }
        let result = reply.and_then(|r| {
            let j = parse_ok(&r)?;
            if num(&j, "total_labeled") != Some(s.total_labeled) {
                return Err(format!("result disagrees with the label replies: {r}"));
            }
            j.get("sql")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "no sql".into())
        });
        log.checks.check(result.is_ok(), || {
            format!("result {}: {:?}", s.plan.idx, result.as_ref().err())
        });
        if let Ok(sql) = result {
            log.finished.push(Finished {
                plan: s.plan,
                labels: std::mem::take(&mut s.labels),
                sql,
            });
        }
        close(t, &mut log, s.id);
    }
    log
}

/// Records `t` under `key` unless a smaller time is already there.
fn keep_min<K: Ord>(best: &mut BTreeMap<K, f64>, key: K, t: f64) {
    let e = best.entry(key).or_insert(t);
    *e = e.min(t);
}

fn timed(t: &mut dyn Transport, frame: &str) -> (Result<String, String>, Instant, Instant) {
    let start = Instant::now();
    let reply = t.request(frame);
    (reply, start, Instant::now())
}

fn labels_frame(id: u64, labels: &[bool]) -> String {
    let body: Vec<&str> = labels
        .iter()
        .map(|&b| if b { "true" } else { "false" })
        .collect();
    format!(
        r#"{{"v":1,"op":"label","session":{id},"labels":[{}]}}"#,
        body.join(",")
    )
}

fn close(t: &mut dyn Transport, log: &mut ConnLog, id: u64) {
    let reply = t.request(&format!(r#"{{"v":1,"op":"close","session":{id}}}"#));
    let ok = reply.as_deref().is_ok_and(|r| parse_ok(r).is_ok());
    log.checks.check(ok, || format!("close {id}: {reply:?}"));
}

/// Runs every connection's schedule on its own thread, one transport
/// each; returns the connections' logs.
fn load_phase(
    transports: Vec<Box<dyn Transport + Send + '_>>,
    per_conn: &[Vec<Planned>],
    spec: &Spec,
    targets: &[TargetQuery],
    inject_fault: bool,
    spanned: bool,
) -> Vec<ConnLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .zip(per_conn)
            .enumerate()
            .map(|(c, (mut t, plan))| {
                scope.spawn(move || {
                    drive(
                        t.as_mut(),
                        plan,
                        spec,
                        targets,
                        inject_fault && c == 0,
                        spanned,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    })
}

/// Runs `serve_listener` on a loopback port for the duration of `body`,
/// then stops it: once `body` returns, the listener is switched to
/// non-blocking and woken by one last connection, so its accept loop
/// returns `WouldBlock` and its thread can be joined.
fn with_listener<T>(
    host: &Arc<SessionHost>,
    body: impl FnOnce(SocketAddr) -> T,
) -> Result<T, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let control = listener.try_clone().map_err(|e| e.to_string())?;
    let accept = {
        let host = Arc::clone(host);
        std::thread::spawn(move || serve_listener(listener, host))
    };
    let out = body(addr);
    control.set_nonblocking(true).map_err(|e| e.to_string())?;
    if let Ok(wake) = TcpStream::connect(addr) {
        // Reading its hello shows the accept loop took the connection.
        let _ = wake.set_read_timeout(Some(Duration::from_secs(5)));
        let _ = BufReader::new(wake).read_line(&mut String::new());
    }
    match accept.join() {
        Ok(Err(e)) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(out),
        Ok(other) => Err(format!("accept loop ended unexpectedly: {other:?}")),
        Err(_) => Err("the accept loop panicked".into()),
    }
}

fn host_config(spec: &Spec) -> ServeConfig {
    ServeConfig {
        batch: spec.batch,
        max_sessions: spec.connections * spec.live_per_connection + 1,
        ..ServeConfig::default()
    }
}

/// One load phase over TCP: a listener on `host`, every connection's
/// schedule, then the host's `stats`.
struct Pass {
    logs: Vec<ConnLog>,
    stats: Json,
}

fn tcp_pass(
    host: &Arc<SessionHost>,
    per_conn: &[Vec<Planned>],
    spec: &Spec,
    targets: &[TargetQuery],
    inject_fault: bool,
    spanned: bool,
) -> Result<Pass, String> {
    let logs = with_listener(host, |addr| {
        let mut transports: Vec<Box<dyn Transport + Send>> = Vec::new();
        for _ in per_conn {
            transports.push(Box::new(Tcp::connect(addr)?));
        }
        Ok::<_, String>(load_phase(
            transports,
            per_conn,
            spec,
            targets,
            inject_fault,
            spanned,
        ))
    })??;
    let stats = Json::parse(&host.handle(r#"{"v":1,"op":"stats"}"#)).map_err(|e| e.message)?;
    Ok(Pass { logs, stats })
}

/// Runs `serve_mix`: `spec.passes` identical passes, each on a fresh
/// host, so each round trip is timed as its fastest execution (see
/// `steer`); the traced run adds one pass that records spans.
pub fn run(
    spec: &Spec,
    seed: u64,
    data_path: &Path,
    trace: bool,
    inject_fault: bool,
) -> Result<Outcome, String> {
    let mut setup = data::SetupTimes::default();
    let view = Arc::new(aide_data::load_view(data_path).map_err(|e| e.to_string())?);
    let targets = data::targets(view.dims(), spec.size, spec.target_areas, seed);
    let per_conn = schedule(spec, seed);

    let mut peak_rss = 0.0;
    let mut passes = Vec::with_capacity(spec.passes);
    let mut in_process = Vec::new();
    let total = spec.passes.max(1) + usize::from(trace);
    for pass in 0..total {
        // Each pass runs on a fresh host, built by this pass's share of
        // the set-up repetitions; the traced pass's host is not timed.
        let host = if pass < spec.passes {
            let reps = data::reps_before(pass, spec.passes, spec.setup_reps);
            setup.run(data_path, reps, |view| {
                Arc::new(SessionHost::new(view, host_config(spec)))
            })?
        } else {
            Arc::new(SessionHost::new(
                aide_data::load_view(data_path).map_err(|e| e.to_string())?,
                host_config(spec),
            ))
        };
        let spanned = trace && pass + 1 == total;
        passes.push(tcp_pass(
            &host,
            &per_conn,
            spec,
            &targets,
            inject_fault && pass == 0,
            spanned,
        )?);
        if pass == 0 {
            // Later passes repeat the work on fresh hosts only to time it.
            peak_rss = steer::peak_rss_mb();
        }
        if trace && pass < spec.passes {
            // The traced run replays each TCP pass's schedule in-process
            // right after it, on a fresh host, so the handle() times and
            // the round trips they are subtracted from span the same
            // stretch of the run. One connection's schedule after the
            // other, on this thread: handle() uncontended.
            let fresh = SessionHost::new(
                aide_data::load_view(data_path).map_err(|e| e.to_string())?,
                host_config(spec),
            );
            for plan in &per_conn {
                in_process.push(drive(
                    &mut InProcess(&fresh),
                    plan,
                    spec,
                    &targets,
                    false,
                    false,
                ));
            }
        }
    }
    let mut spanned_pass = if trace { passes.pop() } else { None };
    let untraced = passes.len();

    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let mut best_label: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut best_create: BTreeMap<usize, f64> = BTreeMap::new();
    let mut best_result: BTreeMap<usize, f64> = BTreeMap::new();
    let mut sql_by_pass: Vec<BTreeMap<usize, String>> = Vec::new();
    let mut first_finished = Vec::new();
    for (p, pass) in passes.iter_mut().chain(spanned_pass.as_mut()).enumerate() {
        let spanned = p == untraced;
        let mut sql = BTreeMap::new();
        for log in &mut pass.logs {
            out.checks.merge(std::mem::take(&mut log.checks));
            for f in &log.finished {
                sql.insert(f.plan.idx, f.sql.clone());
            }
            if p == 0 {
                first_finished.extend(log.finished.iter().cloned());
            }
            for &(name, start, end, round) in &log.spans {
                spans.record(name, start, end, round);
            }
            if spanned {
                continue;
            }
            for &(idx, round, t) in &log.label_us {
                keep_min(&mut best_label, (idx, round), t);
            }
            for &(idx, t) in &log.create_us {
                keep_min(&mut best_create, idx, t);
            }
            for &(idx, t) in &log.result_us {
                keep_min(&mut best_result, idx, t);
            }
        }
        sql_by_pass.push(sql);
    }
    // Every pass must formulate the same query for every session.
    for (p, sql) in sql_by_pass.iter().enumerate().skip(1) {
        out.checks.check(sql == &sql_by_pass[0], || {
            format!("pass {p} formulated other queries than pass 0")
        });
    }
    first_finished.sort_by_key(|f| f.plan.idx);

    // Replay a seeded sample of the server sessions in-process, with the
    // same seed and labels: each must formulate the same SQL. The replays
    // also give the session-layer metrics; in the traced run a second
    // replay of the same sessions is traced.
    let replay_template = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let pick = (seed % spec.replay_one_in as u64) as usize;
    let sample: Vec<&Finished> = first_finished
        .iter()
        .filter(|f| f.plan.idx % spec.replay_one_in == pick)
        .collect();
    let replay = |traced: bool, spans: &mut Spans| -> Vec<Run> {
        sample
            .iter()
            .map(|f| {
                let plan = Plan {
                    view: &view,
                    template: &replay_template,
                    config: SessionConfig {
                        samples_per_iteration: spec.batch,
                        threads: 1,
                        ..SessionConfig::default()
                    },
                    target: &targets[f.plan.target],
                    seed: f.plan.seed,
                    rounds: f.labels.len(),
                    labels: Labels::Replay(&f.labels),
                    evaluate: !traced,
                };
                session::run(
                    plan,
                    traced.then_some(&mut *spans),
                    (f.plan.idx * spec.rounds) as u64,
                )
            })
            .collect()
    };
    let replays = replay(false, &mut spans);
    let traced_replays = if trace {
        replay(true, &mut spans)
    } else {
        Vec::new()
    };
    for (f, run) in sample.iter().zip(&replays) {
        out.checks.check(run.sql == f.sql, || {
            format!(
                "session {}: replay SQL {:?} != server SQL {:?}",
                f.plan.idx, run.sql, f.sql
            )
        });
    }
    out.checks
        .check(!replays.is_empty(), || "no session was replayed".into());
    steer::check_sessions(&replays, false, &mut out.checks);
    steer::check_sessions(&traced_replays, true, &mut out.checks);
    let untraced_replays = std::slice::from_ref(&replays);
    steer::session_metrics(
        &replays,
        untraced_replays,
        &traced_replays,
        &spans,
        &mut out,
    );
    out.checks.check(out.values["final_f"] >= spec.f_floor, || {
        format!(
            "mean final F {} below the floor {}",
            out.values["final_f"], spec.f_floor
        )
    });

    // End-to-end metrics come from the wire.
    let label_us: Vec<f64> = best_label.values().copied().collect();
    let create_us: Vec<f64> = best_create.values().copied().collect();
    let rounds = label_us.len() as f64;
    out.set("round_p50_ms", median(&label_us) / 1e3);
    out.set("round_p95_ms", quantile(&label_us, 0.95) / 1e3);
    out.set("first_batch_p50_ms", median(&create_us) / 1e3);
    // Throughput: the connections ran concurrently, so the load took as
    // long as the busiest connection's requests, each at its fastest.
    let mut busy_us = vec![0.0; spec.connections];
    let timed = best_create
        .iter()
        .chain(&best_result)
        .map(|(&idx, &t)| (idx, t));
    for (idx, t) in timed.chain(best_label.iter().map(|(&(idx, _), &t)| (idx, t))) {
        busy_us[idx % spec.connections] += t;
    }
    let busiest_s = busy_us.iter().copied().fold(0.0, f64::max) / 1e6;
    out.set("rounds_per_s", ratio(rounds, busiest_s));
    out.set("run.sessions", spec.sessions as f64);
    out.set("run.rounds", rounds);
    let first = &passes[0];
    let reply_bytes: u64 = first.logs.iter().map(|l| l.reply_bytes).sum();
    let first_rounds: usize = first.logs.iter().map(|l| l.label_us.len()).sum();
    out.set(
        "serve.reply_bytes_per_round",
        ratio(reply_bytes as f64, first_rounds as f64),
    );
    let hits = num(&first.stats, "cache_hits").unwrap_or(0) as f64;
    let misses = num(&first.stats, "cache_misses").unwrap_or(0) as f64;
    out.set(
        "serve.cache_entries",
        num(&first.stats, "cache_entries").unwrap_or(0) as f64,
    );
    out.set("serve.cache_hit_rate", ratio(hits, hits + misses));

    if let Some(spanned) = &spanned_pass {
        // The in-process replays: the handle() times, and the TCP round
        // trip minus them, each request again timed as its fastest
        // execution.
        let mut best_c: BTreeMap<usize, f64> = BTreeMap::new();
        let mut best_l: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut r = Vec::new();
        for log in in_process.drain(..) {
            out.checks.merge(log.checks);
            for (idx, t) in log.create_us {
                keep_min(&mut best_c, idx, t);
            }
            for (idx, round, t) in log.label_us {
                keep_min(&mut best_l, (idx, round), t);
            }
            r.extend(log.result_us.iter().map(|x| x.1));
        }
        let c: Vec<f64> = best_c.into_values().collect();
        let l: Vec<f64> = best_l.into_values().collect();
        out.set("serve.create_us_p50", median(&c));
        out.set("serve.label_us_p50", median(&l));
        out.set("serve.result_us_p50", median(&r));
        out.set("serve.transport_us_p50", median(&label_us) - median(&l));
        let labels_of = |pass: &Pass| -> Vec<f64> {
            pass.logs
                .iter()
                .flat_map(|log| log.label_us.iter().map(|x| x.2))
                .collect()
        };
        // Against the untraced pass just before it, the nearest in time.
        let last = &passes[passes.len() - 1];
        let overhead = ratio(median(&labels_of(spanned)), median(&labels_of(last))) - 1.0;
        out.set("trace.overhead_frac", overhead);
        out.notes.extend(serve_notes(&out, mean(&label_us)));
        out.notes.extend(steer::ledger_notes(&out));
        steer::write_spans(&spans, spec, seed, &mut out);
    }
    steer::setup_metrics(&setup, peak_rss, &mut out);
    Ok(out)
}

/// The wire-side ledger of one label round.
fn serve_notes(out: &Outcome, mean_label_us: f64) -> Vec<String> {
    let v = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
    vec![
        "serve ledger (label round, p50):".to_string(),
        format!(
            "  TCP round trip                     {:>9.1} us (mean {mean_label_us:.1} us)",
            1e3 * v("round_p50_ms")
        ),
        format!(
            "  handle() in-process                {:>9.1} us",
            v("serve.label_us_p50")
        ),
        format!(
            "  transport (framing, socket, JSON)  {:>9.1} us",
            v("serve.transport_us_p50")
        ),
        format!(
            "  reply bytes per round              {:>9.0}",
            v("serve.reply_bytes_per_round")
        ),
        format!(
            "  shared cache: {} entries, hit rate {:.3}",
            v("serve.cache_entries"),
            v("serve.cache_hit_rate")
        ),
        "session-layer ledger below comes from the in-process replays (private cache)".to_string(),
    ]
}
