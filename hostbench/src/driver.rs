//! The closed-loop driver. It owns the tick loop: it calls
//! `EventLoopServer::tick`, stamps every completed request with the
//! host time at the end of the tick that completed it, checks the
//! response against the script, and rolls rounds over (every client
//! disconnects, then a new server reconnects the whole population on
//! the same kernel with fresh seeded scripts).

use std::time::{Duration, Instant};

use iolite_core::{Fd, Journal, Kernel, Pid};
use iolite_http::{EventLoopServer, LoopStats};

use crate::report::peak_rss_mib;
use crate::workload::{Clients, Entry, Round, Spec};

/// Host clock that stops across round boundaries: clients disconnecting
/// and reconnecting (and the benchmark generating their next scripts)
/// are not serving time. Their cost shows in `setup_s` and in the traced
/// run's reconnect spans.
pub struct Clock {
    origin: Instant,
    paused: Duration,
    paused_at: Option<Instant>,
}

impl Clock {
    fn new() -> Clock {
        Clock {
            origin: Instant::now(),
            paused: Duration::ZERO,
            paused_at: None,
        }
    }

    /// Seconds since the clock started, minus paused time.
    pub fn now(&self) -> f64 {
        (self.origin.elapsed() - self.paused).as_secs_f64()
    }

    /// Stops the clock.
    pub fn pause(&mut self) {
        self.paused_at = Some(Instant::now());
    }

    /// Restarts the clock.
    pub fn resume(&mut self) {
        if let Some(at) = self.paused_at.take() {
            self.paused += at.elapsed();
        }
    }
}

/// Builds the kernel and the server for `round`, returning the host
/// seconds from machine creation until the server can take its first
/// request (corpus creation plus one socket per client).
pub fn setup(
    spec: &Spec,
    corpus: &iolite_trace::Workload,
    round: &Round,
    journal: bool,
) -> (EventLoopServer, f64) {
    let scripts = round.scripts.clone();
    let t0 = Instant::now();
    let (kernel, pid) = spec.build_kernel(corpus, journal);
    let server = EventLoopServer::new(kernel, pid, scripts, None, spec.loop_cfg());
    (server, t0.elapsed().as_secs_f64())
}

/// Completions a window reserves room for (untouched capacity costs
/// address space, not resident memory).
const WINDOW_RESERVE: usize = 1 << 22;

/// What a traced span covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `EventLoopServer::tick`.
    Tick,
    /// A round boundary: sockets closed, the next server built.
    Reconnect,
}

/// One host-clock span and the journal length when it ended.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covered.
    pub kind: SpanKind,
    /// Host seconds the span took.
    pub secs: f64,
    /// `kernel().journal().len()` at the end of the span.
    pub journal_len: usize,
}

/// Counters captured at a trace-window boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Cumulative loop counters.
    pub stats: LoopStats,
    /// Kernel mechanism metrics.
    pub metrics: iolite_core::Metrics,
    /// Unified-cache counters.
    pub cache: iolite_fs::CacheStats,
    /// Checksum-cache counters.
    pub cksum: iolite_net::CksumCacheStats,
    /// Journal length.
    pub journal_len: usize,
    /// Driver clock.
    pub at: f64,
}

/// A recorded stretch of closed-loop traffic.
pub struct Window {
    /// Driver clock at the window start.
    pub start: f64,
    /// Completion time (s, relative to start) of every request
    /// completed inside the window.
    pub done_at: Vec<f32>,
    /// `(completion time relative to start in s, latency in µs)` per
    /// request that has a latency sample.
    pub samples: Vec<(f32, f32)>,
    /// Cumulative loop counters at the window start.
    pub base: LoopStats,
    /// `(completions, simulated CPU seconds, memory high-water mark in
    /// MiB)` over the first `Spec::sim_requests` completions (rounded up
    /// to a tick). The work up to this point is fixed for a seed, so the
    /// memory mark is too.
    pub sim: Option<(u64, f64, f64)>,
}

/// The traced part of a run.
pub struct Trace {
    /// Spans recorded inside the trace window, in order.
    pub spans: Vec<Span>,
    /// Counters when the window opened.
    pub begin: Snapshot,
    /// Counters when it closed.
    pub end: Option<Snapshot>,
    /// Completions after which the window closes (at a tick end).
    target: u64,
    /// `KernelState::state_hash` when the window closed.
    pub hash: u64,
    /// The journal, taken (and recording stopped) when the window
    /// closed.
    pub journal: Option<Journal>,
}

/// Owns the server and the tick loop for one run.
pub struct Driver {
    spec: Spec,
    clients: Clients,
    server: Option<EventLoopServer>,
    idle_kernel: Option<Kernel>,
    pid: Pid,
    entries: Vec<Vec<Entry>>,
    cursor: Vec<usize>,
    seen: usize,
    last_done: Vec<f64>,
    done_stats: LoopStats,
    /// Driver clock.
    pub clock: Clock,
    /// Requests scripted across every round started.
    pub attempted: u64,
    /// Completions whose path or response length was wrong.
    pub wrong: u64,
    /// Rounds started.
    pub rounds: u64,
    /// Start no further round.
    stopping: bool,
    window: Option<Window>,
    trace: Option<Trace>,
    finished: bool,
}

/// Sums two rounds' loop counters (`max_inflight` takes the maximum).
pub fn add_stats(a: &LoopStats, b: &LoopStats) -> LoopStats {
    LoopStats {
        ticks: a.ticks + b.ticks,
        polls: a.polls + b.polls,
        poll_entries: a.poll_entries + b.poll_entries,
        completed: a.completed + b.completed,
        failed: a.failed + b.failed,
        blocked_io: a.blocked_io + b.blocked_io,
        max_inflight: a.max_inflight.max(b.max_inflight),
        response_bytes: a.response_bytes + b.response_bytes,
        cache_hits: a.cache_hits + b.cache_hits,
        remote_reads: a.remote_reads + b.remote_reads,
        remote_waits: a.remote_waits + b.remote_waits,
        remote_hits: a.remote_hits + b.remote_hits,
        puts: a.puts + b.puts,
        put_bytes: a.put_bytes + b.put_bytes,
        writebacks: a.writebacks + b.writebacks,
        remote_writes: a.remote_writes + b.remote_writes,
        cpu: a.cpu + b.cpu,
    }
}

impl Driver {
    /// Takes over a freshly set-up server whose scripts are `round`.
    pub fn new(spec: &Spec, clients: Clients, server: EventLoopServer, round: Round) -> Driver {
        let n = spec.clients;
        let attempted = round.len();
        Driver {
            spec: spec.clone(),
            clients,
            pid: server.pid(),
            server: Some(server),
            idle_kernel: None,
            entries: round.entries,
            cursor: vec![0; n],
            seen: 0,
            last_done: vec![0.0; n],
            done_stats: LoopStats::default(),
            clock: Clock::new(),
            attempted,
            wrong: 0,
            rounds: 1,
            stopping: false,
            window: None,
            trace: None,
            finished: false,
        }
    }

    /// The kernel (inside the server during a round).
    pub fn kernel(&self) -> &Kernel {
        match (&self.server, &self.idle_kernel) {
            (Some(s), _) => s.kernel(),
            (None, Some(k)) => k,
            (None, None) => unreachable!("the driver always holds a kernel"),
        }
    }

    /// Loop counters summed over every round so far.
    pub fn stats(&self) -> LoopStats {
        match &self.server {
            Some(s) => add_stats(&self.done_stats, s.stats()),
            None => self.done_stats,
        }
    }

    /// Requests that failed, never completed, or got a wrong response.
    pub fn failed(&self) -> u64 {
        let s = self.stats();
        s.failed + self.wrong + self.attempted.saturating_sub(s.completed + s.failed)
    }

    /// Whether the last round has finished.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether the unified cache is warm: filled to its budget, or
    /// holding every corpus file when the corpus is smaller than the
    /// budget; and, when the workload asks, whether the checksum cache
    /// has reached capacity (it has evicted).
    pub fn warm(&self) -> bool {
        let k = self.kernel();
        let full = k.cache.resident_bytes() >= k.cache.budget() / 50 * 49
            || k.cache.len() >= self.clients.paths().len();
        full && (!self.spec.warm_cksum || k.cksum.stats().evictions > 0)
    }

    /// Runs one tick plus its bookkeeping; rolls the round over when
    /// every client is done. Returns the driver clock at the tick end.
    pub fn step(&mut self) -> f64 {
        let Some(server) = self.server.as_mut() else {
            return self.clock.now();
        };
        let t0 = self.clock.now();
        server.tick();
        let t1 = self.clock.now();
        if let Some(trace) = self.trace.as_mut() {
            if trace.end.is_none() {
                trace.spans.push(Span {
                    kind: SpanKind::Tick,
                    secs: t1 - t0,
                    journal_len: journal_len(server.kernel()),
                });
            }
        }
        let done = server.completed_requests();
        for r in &done[self.seen..] {
            let c = r.conn;
            let e = self.entries[c][self.cursor[c]];
            self.cursor[c] += 1;
            if !self.clients.check(e, &r.path, r.bytes) {
                self.wrong += 1;
            }
            // A latency sample needs an earlier completion on the same
            // connection in this round: a round's first request also
            // waits out admission behind every other client.
            let prev = (self.cursor[c] > 1).then_some(self.last_done[c]);
            self.last_done[c] = t1;
            if let Some(w) = self.window.as_mut() {
                let t = (t1 - w.start) as f32;
                w.done_at.push(t);
                if let Some(prev) = prev {
                    w.samples.push((t, ((t1 - prev) * 1e6) as f32));
                }
            }
        }
        self.seen = done.len();
        let round_over = server.is_done();
        let now = self.stats();
        if let Some(w) = self.window.as_mut() {
            let n = now.completed - w.base.completed;
            if w.sim.is_none() && n >= self.spec.sim_requests {
                w.sim = Some((n, (now.cpu - w.base.cpu).as_secs(), peak_rss_mib()));
            }
        }
        if self
            .trace
            .as_ref()
            .is_some_and(|t| t.end.is_none() && now.completed - t.begin.stats.completed >= t.target)
        {
            self.end_trace(t1);
        }
        if round_over {
            self.rollover();
        }
        t1
    }

    /// Ends the current round (adds up its counters, closes every client
    /// socket) and, unless the run is stopping, starts the next.
    fn rollover(&mut self) {
        let Some(server) = self.server.take() else {
            return;
        };
        let t0 = Instant::now();
        self.clock.pause();
        let socks: Vec<Fd> = (0..server.conn_count()).map(|i| server.sock(i)).collect();
        let (report, mut kernel) = server.into_report();
        self.done_stats = add_stats(&self.done_stats, &report.stats);
        // Every client disconnects, unless the run ends here (the
        // kernel is about to be dropped).
        if !self.stopping {
            for s in socks {
                // A client socket is open until the driver closes it.
                if kernel.close_fd(self.pid, s).is_err() {
                    self.wrong += 1;
                }
            }
            let round = self.clients.next_round();
            self.attempted += round.len();
            self.rounds += 1;
            let server =
                EventLoopServer::new(kernel, self.pid, round.scripts, None, self.spec.loop_cfg());
            self.server = Some(server);
            self.entries = round.entries;
            self.cursor.fill(0);
            self.seen = 0;
        } else {
            self.idle_kernel = Some(kernel);
            self.finished = true;
        }
        self.clock.resume();
        let jl = journal_len(self.kernel());
        if let Some(trace) = self.trace.as_mut() {
            if trace.end.is_none() {
                trace.spans.push(Span {
                    kind: SpanKind::Reconnect,
                    secs: t0.elapsed().as_secs_f64(),
                    journal_len: jl,
                });
            }
        }
    }

    /// Closes the trace window: counters, the live state hash, and the
    /// journal (recording stops, so the rest of the run adds nothing).
    fn end_trace(&mut self, at: f64) {
        let end = self.snapshot(at);
        let hash = self.kernel().state_hash();
        let journal = self.kernel_mut().take_journal();
        if let Some(t) = self.trace.as_mut() {
            t.end = Some(end);
            t.hash = hash;
            t.journal = journal;
        }
    }

    fn kernel_mut(&mut self) -> &mut Kernel {
        match (&mut self.server, &mut self.idle_kernel) {
            (Some(s), _) => s.kernel_mut(),
            (None, Some(k)) => k,
            (None, None) => unreachable!("the driver always holds a kernel"),
        }
    }

    fn snapshot(&self, at: f64) -> Snapshot {
        let k = self.kernel();
        Snapshot {
            stats: self.stats(),
            metrics: k.metrics.clone(),
            cache: k.cache.stats(),
            cksum: k.cksum.stats(),
            journal_len: journal_len(k),
            at,
        }
    }

    /// Starts recording completions.
    pub fn open_window(&mut self) {
        self.window = Some(Window {
            start: self.clock.now(),
            // Reserved up front: growth by reallocation would make the
            // memory high-water mark step with throughput.
            done_at: Vec::with_capacity(WINDOW_RESERVE),
            samples: Vec::with_capacity(WINDOW_RESERVE),
            base: self.stats(),
            sim: None,
        });
    }

    /// Whether the open window has passed its `sim_rps` span (and read
    /// the memory mark).
    pub fn sim_span_done(&self) -> bool {
        self.window.as_ref().is_some_and(|w| w.sim.is_some())
    }

    /// Stops recording completions and returns what was recorded.
    pub fn close_window(&mut self) -> Option<Window> {
        self.window.take()
    }

    /// Opens the trace window now; it closes at the end of the tick
    /// that brings its completions to `requests`.
    pub fn start_trace(&mut self, requests: u64) {
        self.trace = Some(Trace {
            spans: Vec::new(),
            begin: self.snapshot(self.clock.now()),
            end: None,
            target: requests,
            hash: 0,
            journal: None,
        });
    }

    /// Whether a trace window was opened and has closed.
    pub fn trace_closed(&self) -> bool {
        self.trace.as_ref().is_some_and(|t| t.end.is_some())
    }

    /// The trace, once started.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Lets the current round run out and starts no other.
    pub fn finish(&mut self) {
        self.stopping = true;
        while !self.finished {
            self.step();
        }
    }

    /// Ticks until `cond` holds or `limit_s` of driver clock passes;
    /// returns whether `cond` held.
    pub fn run_until(&mut self, limit_s: f64, mut cond: impl FnMut(&Driver) -> bool) -> bool {
        let start = self.clock.now();
        while !self.finished {
            if cond(self) {
                return true;
            }
            if self.step() - start > limit_s {
                return cond(self);
            }
        }
        cond(self)
    }
}

fn journal_len(k: &Kernel) -> usize {
    k.journal().map_or(0, |j| j.len())
}
