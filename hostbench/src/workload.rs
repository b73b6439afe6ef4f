//! The traffic mixes: corpus, kernel size, client population, and the
//! seeded closed-loop client scripts, plus the response-length oracle
//! every completed request is checked against.

use std::collections::HashSet;

use iolite_core::{CostModel, Kernel, Pid};
use iolite_fs::{Policy, WritebackConfig};
use iolite_http::{created, response_header, EventLoopConfig};
use iolite_sim::SimRng;
use iolite_trace::{TraceSpec, Workload};

/// Names of every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOAD_NAMES: [&str; 3] = ["get_hot", "get_cold_wide", "put_mix"];

/// One traffic mix. The corpus is fixed per workload (its own seed);
/// the run's `--seed` drives only the client scripts and PUT bodies, so
/// seeds vary the request stream, not the document set.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Document corpus.
    pub corpus: TraceSpec,
    /// Seed of the corpus synthesis and of the synthetic file contents.
    pub corpus_seed: u64,
    /// Simulated machine RAM; the unified cache gets RAM minus the
    /// kernel reserve.
    pub ram_bytes: u64,
    /// Closed-loop clients, one connection each.
    pub clients: usize,
    /// `EventLoopConfig::admission_limit` (0 = unlimited).
    pub admission_limit: usize,
    /// Share of requests that are PUTs.
    pub put_ratio: f64,
    /// PUT bodies are 1..=`max_put_bytes` bytes.
    pub max_put_bytes: u64,
    /// Requests per client per round. A round is one server lifetime:
    /// every client connects, runs its script, and disconnects.
    pub reqs_per_round: usize,
    /// Warm-up also waits for the checksum cache to reach capacity.
    pub warm_cksum: bool,
    /// Write-back tuning installed before the corpus (`None` = kernel
    /// default, never armed by a read-only mix).
    pub writeback: Option<WritebackConfig>,
    /// Requests after warm-up over which `sim_rps` is taken (fixed, so
    /// the figure repeats exactly for a seed).
    pub sim_requests: u64,
    /// Completions the traced run records after warm-up.
    pub trace_requests: u64,
    /// Requests per client per round in the traced run (smaller than
    /// `reqs_per_round`: the journal holds every request's payload).
    pub trace_reqs_per_round: usize,
    /// Set-ups per sub-run; `setup_s` is the median of all of them.
    pub setup_repeats: usize,
}

/// The 512-file corpus of the event-loop benches: 24 MiB, Zipf s=1.0.
pub fn loop_512() -> TraceSpec {
    TraceSpec {
        name: "LOOP-512",
        files: 512,
        total_bytes: 24 << 20,
        requests: 100_000,
        mean_request_bytes: 16 << 10,
        zipf_s: 1.0,
        size_sigma: 1.2,
    }
}

/// The 10k-file corpus of the scale benches: 192 MiB, Zipf s=1.0.
pub fn scale_10k() -> TraceSpec {
    TraceSpec {
        name: "SCALE-10K",
        files: 10_000,
        total_bytes: 192 << 20,
        requests: 1_000_000,
        mean_request_bytes: 16 << 10,
        zipf_s: 1.0,
        size_sigma: 1.4,
    }
}

impl Spec {
    /// The named workload at full size.
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "get_hot",
            corpus: loop_512(),
            corpus_seed: 13,
            ram_bytes: 128 << 20,
            clients: 256,
            admission_limit: 0,
            put_ratio: 0.0,
            max_put_bytes: 32 << 10,
            reqs_per_round: 256,
            warm_cksum: false,
            writeback: None,
            sim_requests: 50_000,
            trace_requests: 32_768,
            trace_reqs_per_round: 64,
            setup_repeats: 50,
        };
        match name {
            "get_hot" => Some(base),
            "get_cold_wide" => Some(Spec {
                name: "get_cold_wide",
                corpus: scale_10k(),
                corpus_seed: 7,
                ram_bytes: 32 << 20,
                clients: 16_384,
                admission_limit: 2_048,
                reqs_per_round: 4,
                trace_reqs_per_round: 2,
                trace_requests: 16_384,
                sim_requests: 20_000,
                setup_repeats: 2,
                ..base
            }),
            "put_mix" => Some(Spec {
                name: "put_mix",
                clients: 1_024,
                put_ratio: 0.3,
                reqs_per_round: 8,
                trace_reqs_per_round: 8,
                trace_requests: 8_192,
                warm_cksum: true,
                writeback: Some(WritebackConfig::default_tuning()),
                sim_requests: 10_000,
                setup_repeats: 20,
                ..base
            }),
            _ => None,
        }
    }

    /// A tiny variant of the named workload with the same shape, for
    /// the benchmark's own smoke tests: a small corpus, few clients,
    /// and no checksum-cache warm-up (a tiny run never fills it).
    pub fn tiny(name: &str) -> Option<Spec> {
        let full = Spec::named(name)?;
        let mut corpus = full.corpus.clone();
        corpus.files /= 16;
        corpus.total_bytes /= 16;
        Some(Spec {
            corpus,
            ram_bytes: full.ram_bytes.min(16 << 20),
            clients: (full.clients / 64).max(8),
            admission_limit: full.admission_limit / 64,
            reqs_per_round: full.reqs_per_round.min(8),
            trace_reqs_per_round: full.trace_reqs_per_round.min(4),
            warm_cksum: false,
            sim_requests: 200,
            trace_requests: 200,
            setup_repeats: 2,
            ..full
        })
    }

    /// The event-loop configuration every run of this workload uses.
    pub fn loop_cfg(&self) -> EventLoopConfig {
        EventLoopConfig {
            drain_per_tick: 16 * 1024,
            admission_limit: self.admission_limit,
            max_ticks: u64::MAX,
            ..EventLoopConfig::default()
        }
    }

    /// The cost model (RAM sized per workload).
    pub fn cost(&self) -> CostModel {
        let mut cost = CostModel::pentium_ii_333();
        cost.ram_bytes = self.ram_bytes;
        cost
    }

    /// The cache policy (Flash-Lite's GDS).
    pub fn policy(&self) -> Policy {
        Policy::Gds
    }

    /// Synthesizes the corpus description.
    pub fn corpus(&self) -> Workload {
        Workload::synthesize(&self.corpus, self.corpus_seed)
    }

    /// Builds the server kernel: machine, optional journal, then
    /// [`Spec::populate`]. With `journal`, recording starts before the
    /// first journaled command, so the journal replays from
    /// `KernelState::new(self.cost(), self.policy())`.
    pub fn build_kernel(&self, corpus: &Workload, journal: bool) -> (Kernel, Pid) {
        let mut kernel = Kernel::with_policy(self.cost(), self.policy());
        if journal {
            kernel.start_journal();
        }
        let pid = self.populate(&mut kernel, corpus);
        (kernel, pid)
    }

    /// Installs the write-back tuning, spawns the server process, and
    /// creates the corpus files; returns the server pid.
    pub fn populate(&self, kernel: &mut Kernel, corpus: &Workload) -> Pid {
        if let Some(wb) = self.writeback {
            kernel.set_writeback(wb);
        }
        let pid = kernel.spawn("server");
        for f in corpus.files() {
            kernel.create_synthetic_file(&f.name, f.bytes, self.corpus_seed ^ f.bytes);
        }
        pid
    }
}

/// One scripted request: the corpus file and, for a PUT, its body
/// length (0 = GET).
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Index into the corpus.
    pub file: u32,
    /// PUT body length, or 0 for a GET.
    pub put_len: u32,
}

/// One round of client scripts: the strings handed to the server and
/// the same requests in checkable form.
pub struct Round {
    /// `scripts[c]` is client `c`'s request sequence.
    pub scripts: Vec<Vec<String>>,
    /// `entries[c][k]` describes `scripts[c][k]`.
    pub entries: Vec<Vec<Entry>>,
}

impl Round {
    /// Requests in the round.
    pub fn len(&self) -> u64 {
        self.entries.iter().map(|e| e.len() as u64).sum()
    }

    /// Whether the round has no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The client population: generates seeded rounds and knows every
/// response length a request may legally receive.
pub struct Clients {
    paths: Vec<String>,
    corpus: Workload,
    rng: SimRng,
    put_ratio: f64,
    max_put_bytes: u64,
    clients: usize,
    reqs_per_round: usize,
    /// Legal GET response lengths per file: the original document and
    /// every body any PUT to it has been scripted with so far.
    get_lens: Vec<HashSet<u64>>,
    put_resp_len: u64,
}

/// Header plus body length of a 200 response carrying `len` bytes.
fn get_response_len(len: u64) -> u64 {
    response_header(len, true).len() as u64 + len
}

impl Clients {
    /// The client population of `spec` for `seed`.
    pub fn new(spec: &Spec, corpus: Workload, seed: u64) -> Clients {
        let paths: Vec<String> = corpus.files().iter().map(|f| f.name.clone()).collect();
        let get_lens = corpus
            .files()
            .iter()
            .map(|f| HashSet::from([get_response_len(f.bytes)]))
            .collect();
        Clients {
            paths,
            corpus,
            rng: SimRng::new(seed ^ 0x686f_7374_6265_6e63),
            put_ratio: spec.put_ratio,
            max_put_bytes: spec.max_put_bytes,
            clients: spec.clients,
            reqs_per_round: spec.reqs_per_round,
            get_lens,
            put_resp_len: created(true).len() as u64,
        }
    }

    /// Corpus paths, by file index.
    pub fn paths(&self) -> &[String] {
        &self.paths
    }

    /// The next round's scripts (deterministic in the seed and the
    /// round's position in the sequence).
    pub fn next_round(&mut self) -> Round {
        let mut scripts = Vec::with_capacity(self.clients);
        let mut entries = Vec::with_capacity(self.clients);
        for _ in 0..self.clients {
            let mut s = Vec::with_capacity(self.reqs_per_round);
            let mut e = Vec::with_capacity(self.reqs_per_round);
            for _ in 0..self.reqs_per_round {
                let file = self.corpus.sample_request(&mut self.rng);
                let path = &self.paths[file];
                if self.put_ratio > 0.0 && self.rng.chance(self.put_ratio) {
                    let len = 1 + self.rng.next_below(self.max_put_bytes);
                    self.get_lens[file].insert(get_response_len(len));
                    s.push(format!("PUT {path} {len}"));
                    e.push(Entry {
                        file: file as u32,
                        put_len: len as u32,
                    });
                } else {
                    s.push(path.clone());
                    e.push(Entry {
                        file: file as u32,
                        put_len: 0,
                    });
                }
            }
            scripts.push(s);
            entries.push(e);
        }
        Round { scripts, entries }
    }

    /// Whether `bytes` is a legal response length for any request to
    /// `path` (for runs whose completions cannot be matched to scripts).
    pub fn check_any(&self, path: &str, bytes: u64) -> bool {
        match self.paths.iter().position(|p| p == path) {
            Some(i) => bytes == self.put_resp_len || self.get_lens[i].contains(&bytes),
            None => false,
        }
    }

    /// Whether a completed request's path and response length are
    /// legal for the scripted request `e`.
    pub fn check(&self, e: Entry, path: &str, bytes: u64) -> bool {
        if path != self.paths[e.file as usize] {
            return false;
        }
        if e.put_len > 0 {
            bytes == self.put_resp_len
        } else {
            self.get_lens[e.file as usize].contains(&bytes)
        }
    }
}
