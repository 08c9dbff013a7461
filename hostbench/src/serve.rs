//! `serve-mixed`: an in-process `Server` driven by an open loop, then a
//! closed one.
//!
//! A seeded schedule sends reads (BFS and SSSP on the `hot` graph from
//! seeded sources with repeats, coalesced BFS on the `churn` graph) and a
//! periodic `mutate` of `churn` over two connections, at two fixed offered
//! rates. Latency counts from each request's due time, so a stall is
//! charged to every request it delays. Each mutate retires the pooled
//! `churn` preparation, so the next `churn` read re-prepares it. The same
//! mix then runs closed-loop with a fixed window of outstanding requests
//! per connection; its completion rate is the peak rate.

use crate::inputs::{self, Input};
use crate::{stats, Ctx, Results, Scale};
use graffix::prelude::*;
use graffix_server::{run_direct, GraphRegistry, GraphSource, RunRequest, ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Fewest reads one phase measures: at least ten lie beyond its p90.
const MIN_READS: usize = 100;
/// One `mutate` of `churn` every this many scheduled events: six in the
/// shortest fixed phase (`low`, 25 req/s for a quarter of 25 s), so each
/// phase measures several invalidate → re-prepare stalls rather than one.
const MUTATE_EVERY: usize = 25;
/// Edges one mutate inserts.
const MUTATE_EDGES: usize = 16;
/// Server workers and client connections (at most the host's 2 cores).
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Share of the measured time each fixed-rate phase runs; the closed-loop
/// peak phase gets the rest.
const PHASE_SHARE: f64 = 0.25;
/// Requests the peak phase keeps outstanding on each connection.
const WINDOW: usize = 4;
/// A phase whose generator ran later than this at p99 is invalid.
const GEN_LATE_LIMIT_MS: f64 = 20.0;

struct Sizes {
    hot: usize,
    churn: usize,
    low_rps: f64,
    high_rps: f64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            hot: 1 << 13,
            churn: 1 << 12,
            low_rps: 25.0,
            high_rps: 50.0,
        },
        Scale::Toy => Sizes {
            hot: 1 << 8,
            churn: 1 << 8,
            low_rps: 200.0,
            high_rps: 400.0,
        },
    }
}

/// splitmix64: the schedule's seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Read {
    HotBfs(u32),
    HotSssp(u32),
    Churn,
}

#[derive(Clone, Debug)]
enum Event {
    Read(Read),
    Mutate(Vec<(u32, u32)>),
}

/// The request mix: which sources the hot reads draw from (repeats let
/// batching and source fusion act) and the churn graph's node range.
struct Mix {
    bfs_sources: Vec<u32>,
    sssp_sources: Vec<u32>,
    churn_nodes: u32,
}

impl Mix {
    /// Sources are drawn among `hot` vertices with outgoing arcs, so every
    /// traversal does real work.
    fn new(rng: &mut Rng, hot: &Csr, churn_nodes: u32) -> Mix {
        let roots: Vec<u32> = hot.real_nodes().filter(|&v| hot.degree(v) > 0).collect();
        let mut pick = |n: usize| {
            (0..n)
                .map(|_| roots[rng.below(roots.len() as u64) as usize])
                .collect()
        };
        Mix {
            bfs_sources: pick(48),
            sssp_sources: pick(12),
            churn_nodes,
        }
    }

    /// `n` scheduled events: 88% hot BFS, 2% hot SSSP, 10% churn BFS,
    /// with a mutate every [`MUTATE_EVERY`] events.
    fn schedule(&self, rng: &mut Rng, n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                if i % MUTATE_EVERY == MUTATE_EVERY / 4 {
                    let edges = (0..MUTATE_EDGES)
                        .map(|_| {
                            let u = rng.below(self.churn_nodes as u64) as u32;
                            let v = rng.below(self.churn_nodes as u64) as u32;
                            (u, v)
                        })
                        .collect();
                    return Event::Mutate(edges);
                }
                let r = rng.below(100);
                Event::Read(if r < 88 {
                    Read::HotBfs(
                        self.bfs_sources[rng.below(self.bfs_sources.len() as u64) as usize],
                    )
                } else if r < 90 {
                    Read::HotSssp(
                        self.sssp_sources[rng.below(self.sssp_sources.len() as u64) as usize],
                    )
                } else {
                    Read::Churn
                })
            })
            .collect()
    }
}

fn request_line(id: u64, event: &Event) -> String {
    match event {
        Event::Read(Read::HotBfs(s)) => {
            format!("{{\"id\":{id},\"graph\":\"hot\",\"algo\":\"bfs\",\"source\":{s}}}\n")
        }
        Event::Read(Read::HotSssp(s)) => {
            format!("{{\"id\":{id},\"graph\":\"hot\",\"algo\":\"sssp\",\"source\":{s}}}\n")
        }
        Event::Read(Read::Churn) => format!(
            "{{\"id\":{id},\"graph\":\"churn\",\"algo\":\"bfs\",\"technique\":\"coalescing\"}}\n"
        ),
        Event::Mutate(edges) => {
            let insert: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
            format!(
                "{{\"id\":{id},\"op\":\"mutate\",\"graph\":\"churn\",\"insert\":[{}]}}\n",
                insert.join(",")
            )
        }
    }
}

/// FNV-1a over a result excerpt's bytes.
fn digest(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The id of a response line, which the server writes first
/// (`{"id":N,...`), read without parsing the rest; `u64::MAX` if absent.
fn response_id(line: &str) -> u64 {
    line.strip_prefix("{\"id\":")
        .map(|rest| {
            rest.bytes()
                .take_while(u8::is_ascii_digit)
                .collect::<Vec<u8>>()
        })
        .and_then(|digits| String::from_utf8(digits).ok()?.parse().ok())
        .unwrap_or(u64::MAX)
}

/// A response line as the reader thread saw it.
struct Arrival {
    id: u64,
    at: Instant,
    line: String,
}

/// An outstanding closed-loop request: event, connection, send time and
/// whether the write succeeded.
type Pending = (Event, usize, Instant, bool);

/// A running server with its client connections.
struct Harness {
    server: Server,
    writers: Vec<TcpStream>,
    readers: Vec<JoinHandle<()>>,
    arrivals: Receiver<Arrival>,
    received: Arc<AtomicU64>,
    next_id: u64,
}

impl Harness {
    fn start(registry: GraphRegistry, cache_dir: std::path::PathBuf) -> io::Result<Harness> {
        let mut config = ServeConfig::local(registry);
        config.workers = WORKERS;
        config.engine_threads = 1;
        config.cache = CacheConfig::at(cache_dir);
        let server = Server::start(config)?;
        let addr: SocketAddr = server
            .local_addr()
            .ok_or_else(|| io::Error::other("server has no TCP address"))?;
        let (tx, arrivals) = channel();
        let received = Arc::new(AtomicU64::new(0));
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..CONNECTIONS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            writers.push(stream.try_clone()?);
            let tx = tx.clone();
            let received = Arc::clone(&received);
            readers.push(thread::spawn(move || {
                let mut lines = BufReader::new(stream);
                loop {
                    let mut line = String::new();
                    match lines.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    let at = Instant::now();
                    received.fetch_add(1, Ordering::SeqCst);
                    let id = response_id(&line);
                    if tx.send(Arrival { id, at, line }).is_err() {
                        break;
                    }
                }
            }));
        }
        Ok(Harness {
            server,
            writers,
            readers,
            arrivals,
            received,
            next_id: 1,
        })
    }

    /// Sends `events` on the schedule `start + i / rate` and collects every
    /// response.
    fn phase(&mut self, events: &[Event], rate: f64) -> Phase {
        let start = Instant::now() + Duration::from_millis(5);
        let first_id = self.next_id;
        let mut sent = Vec::with_capacity(events.len());
        let mut late_ms = Vec::with_capacity(events.len());
        let mut backlog = Vec::with_capacity(events.len());
        let base_received = self.received.load(Ordering::SeqCst);
        for (i, event) in events.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let id = self.next_id;
            self.next_id += 1;
            let line = request_line(id, event);
            let at = Instant::now();
            let ok = self.writers[i % CONNECTIONS]
                .write_all(line.as_bytes())
                .is_ok();
            late_ms.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            let done = self.received.load(Ordering::SeqCst) - base_received;
            backlog.push(i as u64 + 1 - done.min(i as u64 + 1));
            sent.push((due, at, ok));
        }
        let mut responses: HashMap<u64, Arrival> = HashMap::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while responses.len() < events.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.arrivals.recv_timeout(left) {
                Ok(a) if a.id >= first_id && a.id < first_id + events.len() as u64 => {
                    responses.insert(a.id, a);
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        let records = events
            .iter()
            .enumerate()
            .map(|(i, event)| {
                let (due, sent_at, sent_ok) = sent[i];
                let arrival = responses.remove(&(first_id + i as u64));
                Record::new(event, due, sent_at, sent_ok, arrival)
            })
            .collect();
        Phase {
            rate,
            records,
            late_ms,
            backlog,
        }
    }

    /// Closed loop: keeps [`WINDOW`] requests outstanding on every
    /// connection, each response releasing the next request on its
    /// connection, until `stop`; then drains. Latency counts from the send.
    /// Returns the records and the completions per second up to `stop`.
    fn closed_loop(
        &mut self,
        mut next: impl FnMut() -> Event,
        stop: Instant,
    ) -> (Vec<Record>, f64) {
        let start = Instant::now();
        let mut pending = HashMap::new();
        for conn in 0..CONNECTIONS {
            for _ in 0..WINDOW {
                self.send(conn, next(), &mut pending);
            }
        }
        let mut records = Vec::new();
        let mut completed = 0usize;
        while !pending.is_empty() {
            let Ok(a) = self.arrivals.recv_timeout(Duration::from_secs(30)) else {
                break;
            };
            let Some((event, conn, sent, ok)) = pending.remove(&a.id) else {
                continue;
            };
            if a.at <= stop {
                completed += 1;
            }
            records.push(Record::new(&event, sent, sent, ok, Some(a)));
            if Instant::now() < stop {
                self.send(conn, next(), &mut pending);
            }
        }
        for (event, _, sent, ok) in pending.into_values() {
            records.push(Record::new(&event, sent, sent, ok, None));
        }
        let secs = stop.saturating_duration_since(start).as_secs_f64();
        (records, completed as f64 / secs.max(1e-9))
    }

    /// Sends `event` on connection `conn` and files it under its id with
    /// the connection, the send time and whether the write succeeded.
    fn send(&mut self, conn: usize, event: Event, pending: &mut HashMap<u64, Pending>) {
        let id = self.next_id;
        self.next_id += 1;
        let line = request_line(id, &event);
        let at = Instant::now();
        let ok = self.writers[conn].write_all(line.as_bytes()).is_ok();
        pending.insert(id, (event, conn, at, ok));
    }

    fn stats(&mut self) -> Option<Json> {
        let id = self.next_id;
        self.next_id += 1;
        let line = format!("{{\"id\":{id},\"op\":\"stats\"}}\n");
        self.writers[0].write_all(line.as_bytes()).ok()?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            let a = self.arrivals.recv_timeout(left).ok()?;
            if a.id == id {
                return Json::parse(&a.line).ok();
            }
        }
    }

    /// Drains the server, closes the connections, joins every thread.
    fn stop(self) {
        self.server.shutdown();
        for w in &self.writers {
            let _ = w.shutdown(Shutdown::Both);
        }
        for r in self.readers {
            let _ = r.join();
        }
        self.server.join();
    }
}

/// One scheduled request and what came back.
struct Record {
    event: Event,
    due: Instant,
    sent: Instant,
    recv: Option<Instant>,
    ok: bool,
    /// Compact `result` excerpt of a successful read.
    result: Option<String>,
    error: Option<String>,
    queue_ms: f64,
    exec_ms: f64,
    pool_hit: bool,
    batch_size: u64,
    fused: bool,
    stages: Vec<String>,
}

impl Record {
    fn new(
        event: &Event,
        due: Instant,
        sent: Instant,
        sent_ok: bool,
        arrival: Option<Arrival>,
    ) -> Record {
        let mut r = Record {
            event: event.clone(),
            due,
            sent,
            recv: None,
            ok: false,
            result: None,
            error: None,
            queue_ms: 0.0,
            exec_ms: 0.0,
            pool_hit: false,
            batch_size: 0,
            fused: false,
            stages: Vec::new(),
        };
        let Some(a) = arrival.filter(|_| sent_ok) else {
            r.error = Some("no response".to_string());
            return r;
        };
        r.recv = Some(a.at);
        let Ok(doc) = Json::parse(&a.line) else {
            r.error = Some("unparseable response".to_string());
            return r;
        };
        r.ok = doc.get("ok") == Some(&Json::Bool(true));
        if !r.ok {
            r.error = doc
                .path(&["error", "kind"])
                .and_then(Json::as_str)
                .map(str::to_string);
            return r;
        }
        r.result = doc.get("result").map(Json::to_compact_string);
        let f = |k: &[&str]| doc.path(k).and_then(Json::as_f64).unwrap_or(0.0);
        r.queue_ms = f(&["serving", "queue_ms"]);
        r.exec_ms = f(&["serving", "exec_ms"]);
        r.pool_hit = doc.path(&["serving", "pool"]).and_then(Json::as_str) == Some("hit");
        r.batch_size = doc
            .path(&["serving", "batch", "size"])
            .and_then(Json::as_u64)
            .unwrap_or(0);
        r.fused = doc.path(&["serving", "batch", "fused"]) == Some(&Json::Bool(true));
        if let Some(stages) = doc.path(&["serving", "stages"]).and_then(Json::as_arr) {
            r.stages = stages
                .iter()
                .filter_map(|s| s.get("status").and_then(Json::as_str).map(str::to_string))
                .collect();
        }
        r
    }

    fn is_read(&self) -> bool {
        matches!(self.event, Event::Read(_))
    }

    /// Latency from due time; a failed request counts as infinitely late.
    fn latency_ms(&self) -> f64 {
        match (self.ok, self.recv) {
            (true, Some(at)) => at.saturating_duration_since(self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }
}

/// One open-loop phase at a fixed offered rate.
struct Phase {
    rate: f64,
    records: Vec<Record>,
    late_ms: Vec<f64>,
    backlog: Vec<u64>,
}

impl Phase {
    fn reads(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.is_read())
    }

    fn read_latencies(&self) -> Vec<f64> {
        self.reads().map(Record::latency_ms).collect()
    }

    /// Backlog growth: outstanding requests over the last third of the
    /// schedule minus those over the first third (means).
    fn backlog_growth(&self) -> f64 {
        let n = self.backlog.len();
        let third = (n / 3).max(1);
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64;
        mean(&self.backlog[n.saturating_sub(third)..]) - mean(&self.backlog[..third.min(n)])
    }
}

/// Checks every response of a phase: `ok:true`, and every hot read's
/// result equal to the excerpt computed directly in setup.
fn check_phase(res: &mut Results, phase: &Phase, oracle: &HashMap<Read, u64>, label: &str) {
    for r in &phase.records {
        let ok = match (&r.event, &r.result) {
            (_, _) if !r.ok => false,
            (Event::Read(read @ (Read::HotBfs(_) | Read::HotSssp(_))), Some(text)) => {
                oracle.get(read) == Some(&digest(text))
            }
            (Event::Read(_), None) => false,
            _ => true,
        };
        res.check(ok, || {
            format!(
                "{label}: {:?} failed ({})",
                r.event,
                r.error
                    .as_deref()
                    .unwrap_or("result differs from the direct run")
            )
        });
    }
}

fn hot_request(read: Read) -> RunRequest {
    let (algo, source) = match read {
        Read::HotBfs(s) => (Algo::Bfs, s),
        Read::HotSssp(s) => (Algo::Sssp, s),
        Read::Churn => unreachable!("the oracle covers hot reads only"),
    };
    RunRequest {
        id: 0,
        graph: "hot".to_string(),
        algo,
        source: Some(source),
        bc_sources: 4,
        technique: "exact".to_string(),
        threshold: None,
        direction: Direction::Push,
        baseline: Baseline::Lonestar,
        debug_sleep_ms: 0,
    }
}

/// Setup repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

pub fn run(ctx: &mut Ctx) -> io::Result<Results> {
    let mut res = Results::default();
    let size = sizes(ctx.scale);
    let specs = [
        Input {
            name: "hot",
            kind: GraphKind::Rmat,
            nodes: size.hot,
        },
        Input {
            name: "churn",
            kind: GraphKind::SocialTwitter,
            nodes: size.churn,
        },
    ];
    let paths = inputs::generate(&ctx.work, ctx.seed, &specs)?;
    let mut registry = GraphRegistry::new();
    registry.insert("hot", GraphSource::File(paths[0].clone()));
    registry.insert("churn", GraphSource::File(paths[1].clone()));
    let mut rng = Rng(ctx.seed ^ 0x5EED_0F5E_12E5);
    let hot = graffix::graph::serialize::open_mapped(&paths[0])?;
    let mix = Mix::new(&mut rng, &hot, size.churn as u32);
    drop(hot);
    let gpu = GpuConfig::k40c();

    // The digest oracle: every hot read's excerpt from a direct run.
    let mut oracle = HashMap::new();
    let mut sim_cycles = 0u64;
    let reads = mix
        .bfs_sources
        .iter()
        .map(|&s| Read::HotBfs(s))
        .chain(mix.sssp_sources.iter().map(|&s| Read::HotSssp(s)));
    for read in reads {
        if oracle.contains_key(&read) {
            continue;
        }
        let excerpt = run_direct(&hot_request(read), &registry, &gpu)
            .map_err(|e| io::Error::other(e.message))?;
        sim_cycles += excerpt
            .get("elapsed_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        oracle.insert(read, digest(&excerpt.to_compact_string()));
    }
    crate::probe::reset_peak_rss();

    // Setup: server start, connections, and one warm checkout per pool key
    // (`hot` exact, `churn` coalesced).
    let mut setup = Vec::new();
    let mut harness = None;
    for k in 0..SETUP_REPEATS {
        if let Some(h) = harness.take() {
            Harness::stop(h);
        }
        let cache_dir = ctx.work.join(format!("serve-cache-{k}"));
        let start = Instant::now();
        let mut h = Harness::start(registry.clone(), cache_dir)?;
        let warm = [
            Event::Read(Read::HotBfs(mix.bfs_sources[0])),
            Event::Read(Read::Churn),
        ];
        let phase = h.phase(&warm, 1e6);
        setup.push(start.elapsed().as_secs_f64());
        check_phase(&mut res, &phase, &oracle, "warm-up");
        harness = Some(h);
    }
    res.set_median("setup_s", &setup);
    let mut h = harness.expect("setup ran");
    let started = Instant::now();

    // Fixed rates: each phase runs PHASE_SHARE of the measured time, and
    // at least MIN_READS reads.
    let secs = ctx.seconds.as_secs_f64();
    let events_at = |rate: f64| ((rate * secs * PHASE_SHARE) as usize).max(MIN_READS * 6 / 5);
    // The traced run builds its spans after each phase, from the
    // responses, so tracing adds no work inside a phase; its overhead is
    // the recorder's time per request, spent between phases.
    let mut fixed = Vec::new();
    let mut span_s = 0.0;
    for (label, rate) in [("low", size.low_rps), ("high", size.high_rps)] {
        let events = mix.schedule(&mut rng, events_at(rate));
        let phase = h.phase(&events, rate);
        check_phase(&mut res, &phase, &oracle, label);
        if ctx.trace {
            let first_op = fixed
                .iter()
                .map(|(_, p): &(_, Phase)| p.records.len() as u64)
                .sum();
            let start = Instant::now();
            record_spans(&mut ctx.rec, &phase, first_op);
            span_s += start.elapsed().as_secs_f64();
        }
        fixed.push((label, phase));
    }

    // Peak: the same mix, closed-loop, for the rest of the measured time.
    // Its completion rate is throughput with the queue never empty, set by
    // execution, batching and the re-prepare stalls alike.
    let stop = (started + ctx.seconds).max(Instant::now() + ctx.seconds.mul_f64(PHASE_SHARE));
    // Schedules come in whole mutate periods, so the mix carries on
    // unbroken from one to the next.
    let mut queued = std::collections::VecDeque::new();
    let next = || {
        if queued.is_empty() {
            queued.extend(mix.schedule(&mut rng, 20 * MUTATE_EVERY));
        }
        queued.pop_front().expect("a non-empty schedule")
    };
    let (records, peak_rps) = h.closed_loop(next, stop);
    let peak = Phase {
        rate: peak_rps,
        records,
        late_ms: Vec::new(),
        backlog: Vec::new(),
    };
    check_phase(&mut res, &peak, &oracle, "peak");

    let stats_doc = h.stats();
    Harness::stop(h);

    // End to end: the read median at the low rate, where few reads queue
    // behind a stall, so it tracks the per-read cost; the stalls show in
    // the peak rate and in the high rate's per-layer p90.
    res.set_median("op_p50_ms", &fixed[0].1.read_latencies());
    res.set("ops_per_s", peak_rps, peak.records.len());
    res.set("sim_cycles", sim_cycles as f64, oracle.len());
    for (label, p) in &fixed {
        let lat = p.read_latencies();
        res.set_median(format!("server.read_p50_ms.{label}"), &lat);
        res.set(
            format!("server.read_p90_ms.{label}"),
            stats::percentile(&lat, 90.0),
            lat.len(),
        );
        let writes: Vec<f64> = p
            .records
            .iter()
            .filter(|r| !r.is_read())
            .map(Record::latency_ms)
            .collect();
        res.note(format!(
            "{label:<5} {:>6.1} req/s: read p50 {:>8.2} ms  p90 {:>8.2} ms (n={})  write p50 {:>8.2} ms (n={})  backlog growth {:.1}",
            p.rate,
            stats::median(&lat),
            stats::percentile(&lat, 90.0),
            lat.len(),
            stats::median(&writes),
            writes.len(),
            p.backlog_growth()
        ));
    }
    for (label, p) in &fixed {
        for (kind, want) in [("hot-bfs", 0), ("hot-sssp", 1), ("churn", 2)] {
            let of_kind = |r: &&Record| match r.event {
                Event::Read(Read::HotBfs(_)) => want == 0,
                Event::Read(Read::HotSssp(_)) => want == 1,
                Event::Read(Read::Churn) => want == 2,
                Event::Mutate(_) => false,
            };
            let lat: Vec<f64> = p.reads().filter(of_kind).map(Record::latency_ms).collect();
            let exec: Vec<f64> = p.reads().filter(of_kind).map(|r| r.exec_ms).collect();
            res.note(format!(
                "{label:<5} {kind:<8} latency p50 {:>8.2} ms p90 {:>8.2} ms, exec p50 {:>8.2} ms (n={})",
                stats::median(&lat),
                stats::percentile(&lat, 90.0),
                stats::median(&exec),
                lat.len()
            ));
        }
    }
    let peak_lat = peak.read_latencies();
    res.set(
        "server.read_p90_ms.peak",
        stats::percentile(&peak_lat, 90.0),
        peak_lat.len(),
    );
    res.note(format!(
        "peak  {peak_rps:>6.1} req/s closed-loop ({WINDOW} outstanding per connection): read p50 {:>8.2} ms  p90 {:>8.2} ms (n={})",
        stats::median(&peak_lat),
        stats::percentile(&peak_lat, 90.0),
        peak_lat.len()
    ));

    // Generator hygiene: a run whose generator fell behind is invalid.
    let late: Vec<f64> = fixed
        .iter()
        .flat_map(|(_, p)| p.late_ms.iter().copied())
        .collect();
    let late_p99 = stats::percentile(&late, 99.0);
    if late_p99 > GEN_LATE_LIMIT_MS {
        res.invalid = Some(format!(
            "load generator ran {late_p99:.1} ms late at p99 (limit {GEN_LATE_LIMIT_MS} ms)"
        ));
    }
    res.set("server.gen_late_ms.p99", late_p99, late.len());

    // Per layer, from each response's serving metadata.
    for (label, p) in &fixed {
        let ok_reads: Vec<&Record> = p.reads().filter(|r| r.ok).collect();
        let queue: Vec<f64> = ok_reads.iter().map(|r| r.queue_ms).collect();
        let exec: Vec<f64> = ok_reads.iter().map(|r| r.exec_ms).collect();
        let wire: Vec<f64> = ok_reads
            .iter()
            .filter_map(|r| {
                let rtt = r.recv?.saturating_duration_since(r.sent).as_secs_f64() * 1e3;
                Some(rtt - r.queue_ms - r.exec_ms)
            })
            .collect();
        res.set_median(format!("server.queue_checkout_ms.p50.{label}"), &queue);
        res.set(
            format!("server.queue_checkout_ms.p90.{label}"),
            stats::percentile(&queue, 90.0),
            queue.len(),
        );
        res.set_median(format!("server.exec_ms.p50.{label}"), &exec);
        res.set(
            format!("server.exec_ms.p90.{label}"),
            stats::percentile(&exec, 90.0),
            exec.len(),
        );
        res.set_median(format!("server.wire_ms.p50.{label}"), &wire);
        let writes: Vec<f64> = p
            .records
            .iter()
            .filter(|r| !r.is_read())
            .map(Record::latency_ms)
            .collect();
        res.set(
            format!("server.mutates.{label}"),
            writes.len() as f64,
            writes.len(),
        );
        res.set_median(format!("server.mutate_ms.p50.{label}"), &writes);
    }
    let all: Vec<&Record> = fixed.iter().flat_map(|(_, p)| p.records.iter()).collect();
    let reads: Vec<&&Record> = all.iter().filter(|r| r.is_read() && r.ok).collect();
    let misses: Vec<&&Record> = reads.iter().copied().filter(|r| !r.pool_hit).collect();
    res.set_median(
        "server.miss_ms.p50",
        &misses.iter().map(|r| r.queue_ms).collect::<Vec<_>>(),
    );
    let during: Vec<f64> = reads
        .iter()
        .filter(|r| matches!(r.event, Event::Read(Read::HotBfs(_) | Read::HotSssp(_))))
        .filter(|r| {
            misses.iter().any(
                |m| matches!((m.recv, r.recv), (Some(mr), Some(rr)) if r.sent < mr && m.sent < rr),
            )
        })
        .map(|r| r.latency_ms())
        .collect();
    res.set(
        "server.hot_read_p90_ms.during_miss",
        stats::percentile(&during, 90.0),
        during.len(),
    );
    let n_reads = reads.len().max(1) as f64;
    res.set(
        "server.pool_hit_ratio",
        reads.iter().filter(|r| r.pool_hit).count() as f64 / n_reads,
        reads.len(),
    );
    res.set(
        "server.batch_ratio",
        reads.iter().filter(|r| r.batch_size > 1).count() as f64 / n_reads,
        reads.len(),
    );
    res.set(
        "server.fused_saved",
        reads.iter().filter(|r| r.fused).count() as f64,
        reads.len(),
    );
    res.set(
        "server.rejected",
        all.iter()
            .filter(|r| r.error.as_deref() == Some("overloaded"))
            .count() as f64,
        all.len(),
    );
    let mut stage_counts: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &reads {
        for s in &r.stages {
            *stage_counts.entry(s.as_str()).or_default() += 1;
        }
    }
    let count = |k: &str| stage_counts.get(k).copied().unwrap_or(0) as f64;
    res.set("server.stage_hits", count("hit"), misses.len());
    res.set("server.stage_recomputed", count("recomputed"), misses.len());
    if let Some(doc) = stats_doc {
        let get = |k: &[&str]| doc.path(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        res.set(
            "server.invalidations",
            get(&["result", "pool", "invalidations"]),
            1,
        );
        res.set(
            "server.queue_peak",
            get(&["result", "metrics", "queue_peak"]),
            1,
        );
    }
    if ctx.trace {
        let requests: usize = fixed.iter().map(|(_, p)| p.records.len()).sum();
        res.set(
            "trace.overhead_ms",
            span_s * 1e3 / requests.max(1) as f64,
            requests,
        );
    }
    Ok(res)
}

/// Spans for a phase, from the client side: one per request from due time
/// to response, with the server's reported queue+checkout and execution
/// intervals as children (placed back from the response's arrival).
fn record_spans(rec: &mut crate::spans::Recorder, phase: &Phase, first_op: u64) {
    for (i, r) in phase.records.iter().enumerate() {
        let op = first_op + i as u64;
        let Some(recv) = r.recv else { continue };
        let name = match r.event {
            Event::Read(_) => "read",
            Event::Mutate(_) => "mutate",
        };
        let parent = rec.record(op, None, "harness", name, r.due, recv);
        if r.ok && r.is_read() {
            let exec_start = recv - Duration::from_secs_f64(r.exec_ms / 1e3).min(recv - r.sent);
            let queue_start =
                exec_start - Duration::from_secs_f64(r.queue_ms / 1e3).min(exec_start - r.sent);
            rec.record(
                op,
                parent,
                "server",
                "queue_checkout",
                queue_start,
                exec_start,
            );
            rec.record(op, parent, "server", "exec", exec_start, recv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ids_are_read_from_the_line_head() {
        assert_eq!(response_id("{\"id\":42,\"ok\":true}"), 42);
        assert_eq!(response_id("{\"ok\":true}"), u64::MAX);
    }
}
