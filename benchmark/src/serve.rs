//! `serve-open`: an open-loop, seeded request stream against a
//! `BatchingServer` over a CL4SRec model loaded from a checkpoint.
//!
//! The stream is taken from the dataset. A request's user is drawn in
//! proportion to that user's interaction count in the split, so busy users
//! repeat and hit the per-user state cache. A share of requests are writes:
//! they first append an interaction to the user's history — the user's own
//! held-out next item the first time, then an item drawn by its interaction
//! count — which forces a re-encode. Requests arrive in bursts of one to
//! [`clients`] at evenly spaced instants, at a fixed offered rate below
//! capacity: a burst exercises the server's batching, and the even spacing
//! keeps queueing out of the fixed-rate latency, so it measures the serving
//! path rather than the arrival process. Every request is timed from when
//! it was due, so a stall also counts against the requests queued behind
//! it. A stepped rate ladder then finds the highest rate whose latency tail
//! meets the repository's serving SLO target.
//!
//! Each client thread waits on one request at a time, so batches hold one
//! to [`clients`] rows: latency-bound shapes with little page churn.
//! Throughout, a [`KeepAwake`] spinner per CPU keeps the CPUs from halting
//! between requests.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::Rng;
use seqrec_eval::{SequenceScorer, StatefulScorer};
use seqrec_obs::metrics;
use seqrec_serve::service::rank;
use seqrec_serve::slo::SloPolicy;
use seqrec_serve::{
    AnyModel, BatchingServer, Recommendation, ScoringService, ServeClient, ServerConfig,
};
use seqrec_tensor::init::rng;
use serde::{Serialize, Value};

use crate::eval::{load, Loaded};
use crate::layers::{repeated_setup, OpWindow};
use crate::report::{obj, Report};
use crate::sys::KeepAwake;
use crate::{stats, RunArgs};

const K: usize = 10;
/// Client threads, as many as `bench_serve` runs by default, but never
/// more than the host's CPUs.
const MAX_CLIENTS: usize = 4;
/// Offered rate of the fixed-rate phase, requests per second: about a
/// quarter of the capacity the ladder measures on a 2-core host (about
/// 1.2k/s), so the phase stays below capacity with room for the host's
/// drift.
const RATE: f64 = 300.0;
/// The run is invalid when the generator's p99 lateness exceeds this share
/// of the latency limit at the fixed rate.
const MAX_LATENESS_SHARE: f64 = 0.5;
/// Share of requests that append an interaction first. No trace in the
/// repository gives a read/write mix; this is the workload's stated choice,
/// a minority so that reads, the common serving path, dominate.
const WRITE_SHARE: f64 = 0.1;
/// Every this-many-th fixed-rate request is compared with offline
/// `ScoringService::recommend`.
const PARITY_EVERY: usize = 50;
/// Sequential requests that warm the server up during set-up.
const WARM_UP_REQUESTS: usize = 32;
const LADDER_START: f64 = 2.0 * RATE;
const LADDER_STEP: f64 = 1.15;
const LADDER_RATES: usize = 10;
/// Times the whole ladder is run.
const LADDER_REPS: usize = 3;
/// Share of `--seconds` spent at the fixed rate; the rest goes to the
/// ladder (untraced) or to the traced copy of the fixed phase (traced).
const FIXED_SHARE: f64 = 0.5;
/// Requests per window of the windowed latency tail: one second at [`RATE`].
const TAIL_WINDOW: usize = 300;
/// In-process set-up repeats behind the `setup_s` median; each includes
/// the warm-up requests.
const SETUP_REPEATS: usize = 9;
/// In the traced phase, model calls are timed in alternating blocks of
/// this many requests, so traced and untraced requests see the same cache
/// state and host conditions for the overhead figure.
const TRACE_BLOCK: usize = 50;

/// The latency limit on a ladder rung's tail: the target of the
/// repository's default serving SLO (`SloPolicy::default`).
fn limit_ms() -> f64 {
    SloPolicy::default().target_us as f64 / 1e3
}

/// The client threads the generator runs.
fn clients() -> usize {
    MAX_CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A user is not requested again within this many requests: the requests
/// due within one latency limit at the ladder's top rate. So two requests
/// of one user are not in flight together, and the cache's hits and misses
/// do not depend on timing.
fn no_repeat() -> usize {
    let top_rate = LADDER_START * LADDER_STEP.powi(LADDER_RATES as i32);
    (top_rate * limit_ms() / 1e3).ceil() as usize
}

/// One generated request: whose, with which history, and when it is due
/// relative to the start of its phase.
struct Req {
    user: usize,
    history: Vec<u32>,
    due: Duration,
}

/// What the client saw for one request.
#[derive(Clone)]
struct Sample {
    due: Instant,
    /// When a client thread was free to take the request.
    taken: Instant,
    sent: Instant,
    done: Instant,
    recs: Option<Vec<Recommendation>>,
    /// Whether model calls were being timed when the request was taken.
    traced: bool,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }
    /// How long after its due time the request was sent, including any
    /// wait for a free client thread: the backlog.
    fn backlog_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
    /// The generator's own delay: sent after the later of the due time and
    /// the moment a client thread was free (timer and wake-up latency).
    fn lateness_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due.max(self.taken)).as_secs_f64() * 1e3
    }
}

/// Draws indices in proportion to their weights.
struct Weighted {
    cdf: Vec<f64>,
}

impl Weighted {
    fn new(weights: impl Iterator<Item = usize>) -> Weighted {
        let mut acc = 0.0;
        let cdf = weights
            .map(|w| {
                acc += w as f64;
                acc
            })
            .collect();
        Weighted { cdf }
    }

    fn draw(&self, r: &mut impl Rng) -> usize {
        let x = r.gen::<f64>() * self.cdf.last().expect("weights");
        self.cdf.partition_point(|&c| c <= x).min(self.cdf.len() - 1)
    }
}

/// The seeded request generator: user and item popularity from the split,
/// a no-repeat window, and the users' evolving histories.
struct Stream {
    users: Weighted,
    /// Item ids start at 1; index 0 has weight 0.
    items: Weighted,
    histories: Vec<Vec<u32>>,
    next_items: Vec<Option<u32>>,
    recent: VecDeque<usize>,
    no_repeat: usize,
    burst: usize,
    r: seqrec_tensor::init::TensorRng,
}

impl Stream {
    fn new(split: &seqrec_data::Split, seed: u64) -> Stream {
        let n = split.num_users();
        let mut item_counts = vec![0usize; split.num_items() + 1];
        for seq in split.train_sequences() {
            for &i in seq {
                item_counts[i as usize] += 1;
            }
        }
        let no_repeat = no_repeat();
        Stream {
            users: Weighted::new((0..n).map(|u| split.user_items(u).len())),
            items: Weighted::new(item_counts.into_iter()),
            histories: (0..n).map(|u| split.test_input(u)).collect(),
            next_items: (0..n).map(|u| Some(split.test_target(u))).collect(),
            recent: VecDeque::with_capacity(no_repeat),
            no_repeat,
            burst: clients(),
            r: rng(seed ^ 0x5e7e),
        }
    }

    fn next_user(&mut self) -> usize {
        loop {
            let user = self.users.draw(&mut self.r);
            if !self.recent.contains(&user) {
                if self.recent.len() == self.no_repeat {
                    self.recent.pop_front();
                }
                self.recent.push_back(user);
                return user;
            }
        }
    }

    /// `n` requests at `rate` per second, in bursts of one to `burst`
    /// (equally likely) sharing a due time; the second value counts the
    /// writes among them.
    fn phase(&mut self, n: usize, rate: f64) -> (Vec<Req>, usize) {
        let gap = (1 + self.burst) as f64 / 2.0 / rate;
        let mut at = 0.0f64;
        let mut left_in_burst = 0;
        let mut writes = 0;
        let reqs = (0..n)
            .map(|_| {
                if left_in_burst == 0 {
                    at += gap;
                    left_in_burst = self.r.gen_range(1..=self.burst);
                }
                left_in_burst -= 1;
                let user = self.next_user();
                if self.r.gen::<f64>() < WRITE_SHARE {
                    let item = match self.next_items[user].take() {
                        Some(held_out) => held_out,
                        None => self.items.draw(&mut self.r) as u32,
                    };
                    self.histories[user].push(item);
                    writes += 1;
                }
                Req {
                    user,
                    history: self.histories[user].clone(),
                    due: Duration::from_secs_f64(at),
                }
            })
            .collect();
        (reqs, writes)
    }
}

/// A model wrapper that, while `on`, times the two calls the server makes
/// into the model: `encode_users` (the cache-miss path of
/// `ScoringService::encode_batch`) and `score_states` (`score_encoded`).
struct Timed {
    model: AnyModel,
    on: Arc<AtomicBool>,
    calls: Arc<Mutex<Vec<Call>>>,
    /// Score rows kept for timing `rank` afterwards.
    kept_scores: Arc<Mutex<Vec<Vec<Vec<f32>>>>>,
}

#[derive(Clone, Copy)]
struct Call {
    encode: bool,
    start: Instant,
    end: Instant,
    rows: usize,
}

const KEPT_SCORE_CALLS: usize = 200;

impl Timed {
    fn record(&self, encode: bool, start: Instant, rows: usize) {
        let call = Call { encode, start, end: Instant::now(), rows };
        self.calls.lock().expect("call log poisoned").push(call);
    }
}

impl SequenceScorer for Timed {
    fn num_items(&self) -> usize {
        self.model.num_items()
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.model.score_full_catalog(users, inputs)
    }
}

impl StatefulScorer for Timed {
    fn state_dim(&self) -> usize {
        self.model.state_dim()
    }
    fn encode_users(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        if !self.on.load(Ordering::Relaxed) {
            return self.model.encode_users(users, inputs);
        }
        let start = Instant::now();
        let out = self.model.encode_users(users, inputs);
        self.record(true, start, users.len());
        out
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        if !self.on.load(Ordering::Relaxed) {
            return self.model.score_states(states);
        }
        let start = Instant::now();
        let out = self.model.score_states(states);
        self.record(false, start, out.len());
        let mut kept = self.kept_scores.lock().expect("score log poisoned");
        if kept.len() < KEPT_SCORE_CALLS {
            kept.push(out.clone());
        }
        out
    }
}

struct Served {
    data: Loaded<()>,
    server: BatchingServer,
    stream: Stream,
    on: Arc<AtomicBool>,
    calls: Arc<Mutex<Vec<Call>>>,
    kept_scores: Arc<Mutex<Vec<Vec<Vec<f32>>>>>,
}

fn setup(seed: u64) -> Served {
    let mut model = None;
    let data = load(seed, |bytes| {
        model = Some(AnyModel::load_from_bytes(bytes).expect("checkpoint round trip"));
    });
    let on = Arc::new(AtomicBool::new(false));
    let calls = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
    let kept_scores = Arc::new(Mutex::new(Vec::new()));
    let timed = Timed {
        model: model.expect("checkpoint loaded"),
        on: Arc::clone(&on),
        calls: Arc::clone(&calls),
        kept_scores: Arc::clone(&kept_scores),
    };
    let server = BatchingServer::spawn(timed, ServerConfig::default());
    let client = server.client();
    for u in 0..WARM_UP_REQUESTS {
        client.recommend(u, &data.split.test_input(u), K).expect("warm-up request served");
    }
    let stream = Stream::new(&data.split, seed);
    Served { data, server, stream, on, calls, kept_scores }
}

/// Sends `reqs` on their schedule from [`clients`] threads and returns one
/// sample per request, in request order. With `trace`, model-call timing is
/// switched on for alternate blocks of [`TRACE_BLOCK`] requests.
fn drive(
    client: &ServeClient,
    reqs: &[Req],
    keep_recs: impl Fn(usize) -> bool + Sync,
    trace: Option<&AtomicBool>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let clients = clients();
    let mut per_thread: Vec<Vec<(usize, Sample)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let client = client.clone();
                let next = &next;
                let keep_recs = &keep_recs;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(reqs.len() / clients + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let taken = Instant::now();
                        let traced = trace.is_some_and(|on| {
                            let traced = (i / TRACE_BLOCK) % 2 == 1;
                            on.store(traced, Ordering::Relaxed);
                            traced
                        });
                        let due = t0 + req.due;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let recs = client.recommend(req.user, &req.history, K);
                        let done = Instant::now();
                        let ok = recs.is_some();
                        let recs = if keep_recs(i) || !ok { recs } else { Some(Vec::new()) };
                        out.push((i, Sample { due, taken, sent, done, recs, traced }));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all: Vec<(usize, Sample)> = per_thread.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, s)| s).collect()
}

/// A rung of the rate ladder passes when its latency tail meets the limit,
/// no request failed, and the backlog did not grow: the last tenth of the
/// rung was not sent later than the limit.
fn rung_passes(samples: &[Sample]) -> bool {
    if samples.iter().any(|s| s.recs.is_none()) {
        return false;
    }
    let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let last: Vec<f64> = samples[samples.len() * 9 / 10..].iter().map(Sample::backlog_ms).collect();
    stats::tail(&lat).value <= limit_ms() && stats::median(&last) <= limit_ms()
}

/// The rate actually served over a rung: requests per second from the
/// first due time to the last reply.
fn achieved_rate(samples: &[Sample]) -> f64 {
    let first = samples.iter().map(|s| s.due).min().expect("requests");
    let last = samples.iter().map(|s| s.done).max().expect("requests");
    samples.len() as f64 / (last - first).as_secs_f64()
}

/// Capacity: the ladder is run [`LADDER_REPS`] times, each time over
/// [`LADDER_RATES`] rates climbing by [`LADDER_STEP`] from [`LADDER_START`],
/// every repetition's rates offset from the last by a further
/// `LADDER_STEP^(1/LADDER_REPS)`, so that together they probe a grid that
/// much finer. A repetition's capacity is the achieved rate of its highest
/// rung below its first failure; the reported capacity is the median over
/// repetitions, so one slow spell of the host moves it little. Every rung
/// runs, whatever passes, so a run sends a fixed number of requests.
/// Returns the capacity, the requests sent and those that failed.
fn capacity(
    sv: &mut Served,
    client: &ServeClient,
    rung_s: f64,
    info: &mut Vec<Value>,
) -> (f64, usize, usize) {
    let mut caps = Vec::with_capacity(LADDER_REPS);
    let mut sent = 0;
    let mut failed_reqs = 0;
    for rep in 0..LADDER_REPS {
        let offset = LADDER_STEP.powf(rep as f64 / LADDER_REPS as f64);
        let mut cap = 0.0;
        let mut failed = false;
        for i in 0..LADDER_RATES {
            let rate = LADDER_START * offset * LADDER_STEP.powi(i as i32);
            let n = ((rate * rung_s).round() as usize).max(100);
            let (reqs, _) = sv.stream.phase(n, rate);
            let samples = drive(client, &reqs, |_| false, None);
            sent += samples.len();
            failed_reqs += samples.iter().filter(|s| s.recs.is_none()).count();
            let ok = rung_passes(&samples);
            failed |= !ok;
            if !failed {
                cap = achieved_rate(&samples);
            }
            info.push(obj(vec![("rate", rate.to_value()), ("pass", ok.to_value())]));
            // Let the server drain before the next rung.
            std::thread::sleep(Duration::from_millis(20));
        }
        caps.push(cap);
    }
    (stats::median(&caps), sent, failed_reqs)
}

/// Offline reference for the sampled requests: a fresh `ScoringService`
/// over the in-memory model must return the same top-K, bit for bit.
fn check_parity(data: &Loaded<()>, reqs: &[Req], samples: &[Sample], r: &mut Report) -> usize {
    let mut offline = ScoringService::new(ByRef(&data.in_memory));
    let mut checked = 0;
    for (i, (req, s)) in reqs.iter().zip(samples).enumerate() {
        if i % PARITY_EVERY != 0 {
            continue;
        }
        let want = offline.recommend(&[req.user], &[req.history.as_slice()], K).remove(0);
        let got = s.recs.as_deref().unwrap_or(&[]);
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits());
        r.check(same, || {
            format!("request {i} (user {}): served top-{K} differs from offline", req.user)
        });
        checked += 1;
    }
    checked
}

/// Borrows the in-memory model as a scorer for the offline reference.
struct ByRef<'a>(&'a cl4srec::Cl4sRec);

impl SequenceScorer for ByRef<'_> {
    fn num_items(&self) -> usize {
        self.0.num_items()
    }
    fn score_full_catalog(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<Vec<f32>> {
        self.0.score_full_catalog(users, inputs)
    }
}

impl StatefulScorer for ByRef<'_> {
    fn state_dim(&self) -> usize {
        self.0.state_dim()
    }
    fn encode_users(&self, users: &[usize], inputs: &[&[u32]]) -> Vec<f32> {
        self.0.encode_users(users, inputs)
    }
    fn score_states(&self, states: &[f32]) -> Vec<Vec<f32>> {
        self.0.score_states(states)
    }
}

struct Phase {
    reqs: Vec<Req>,
    samples: Vec<Sample>,
    writes: usize,
    hits: u64,
    misses: u64,
    batches: u64,
}

/// Runs `n` requests at [`RATE`], counting cache and batch activity.
fn fixed_phase(sv: &mut Served, client: &ServeClient, n: usize, trace: bool) -> Phase {
    let (reqs, writes) = sv.stream.phase(n, RATE);
    let (h0, m0, b0) = (
        metrics::SERVE_CACHE_HITS.get(),
        metrics::SERVE_CACHE_MISSES.get(),
        metrics::SERVE_BATCHES.get(),
    );
    let on = trace.then_some(sv.on.as_ref());
    let samples = drive(client, &reqs, |i| i % PARITY_EVERY == 0, on);
    sv.on.store(false, Ordering::Relaxed);
    Phase {
        writes,
        hits: metrics::SERVE_CACHE_HITS.get() - h0,
        misses: metrics::SERVE_CACHE_MISSES.get() - m0,
        batches: metrics::SERVE_BATCHES.get() - b0,
        reqs,
        samples,
    }
}

/// The latency tail of the fixed-rate phase: the tail (as [`stats::tail`]
/// picks it) of each window of [`TAIL_WINDOW`] consecutive requests, then
/// the median over windows. A host stall confined to a few seconds moves
/// this much less than one percentile over the whole phase.
fn windowed_tail(lat: &[f64]) -> stats::Tail {
    let per: Vec<stats::Tail> = lat.chunks_exact(TAIL_WINDOW).map(stats::tail).collect();
    let values: Vec<f64> = per.iter().map(|t| t.value).collect();
    let first = per.first().expect("at least one tail window");
    stats::Tail { value: stats::median(&values), ..*first }
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::latency_ms).collect()
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let awake = KeepAwake::start();
    let (mut sv, setup_s, setup_times) = repeated_setup(SETUP_REPEATS, || setup(args.seed));
    let client = sv.server.client();
    let n_fixed = ((args.seconds as f64 * FIXED_SHARE * RATE).round() as usize).max(500);
    report.info("dataset", format!("beauty@{}", crate::eval::SCALE));
    report.info("users", sv.data.split.num_users());
    report.info("items", sv.data.split.num_items());
    report.info("offered_rate_per_s", RATE);
    report.info("clients", clients());
    report.info("latency_limit_ms", limit_ms());
    report.info("no_repeat_window", no_repeat());
    report.info("idle_spinners", awake.spinners());
    report.info("setup_repeats_s", &setup_times);

    let spin_before = awake.usage();
    let window = OpWindow::open();
    let fixed = fixed_phase(&mut sv, &client, n_fixed, false);
    let mut counts = window.close(n_fixed as u64);
    // The spinners fill the host's idle time; their usage is not the
    // serving path's.
    counts.stats.usage = counts.stats.usage.since(&awake.usage().since(&spin_before));

    let failed = fixed.samples.iter().filter(|s| s.recs.is_none()).count();
    let lateness: Vec<f64> = fixed.samples.iter().map(Sample::lateness_ms).collect();
    let late_p99 = stats::quantile(&stats::sorted(&lateness), 0.99);
    let limit = limit_ms();
    report.check(late_p99 <= MAX_LATENESS_SHARE * limit, || {
        format!("generator p99 lateness {late_p99:.3} ms exceeds {MAX_LATENESS_SHARE} of the {limit} ms limit")
    });
    let parity_checked = check_parity(&sv.data, &fixed.reqs, &fixed.samples, report);
    report.info("parity_samples", parity_checked);
    report.info("generator_lateness_p99_ms", late_p99);
    let backlog: Vec<f64> = fixed.samples.iter().map(Sample::backlog_ms).collect();
    report.info("backlog_p99_ms", stats::quantile(&stats::sorted(&backlog), 0.99));
    report.info("write_share", fixed.writes as f64 / n_fixed as f64);
    report.info("cache_hits", fixed.hits);
    report.info("cache_misses", fixed.misses);
    counts.report_info(report);

    let lat = latencies(&fixed.samples);
    let first_due = fixed.samples.first().map(|s| s.due).expect("requests");
    let last_done = fixed.samples.iter().map(|s| s.done).max().expect("requests");
    let rest_s = args.seconds as f64 * (1.0 - FIXED_SHARE);
    let mut attempted = n_fixed;
    let mut failed_total = failed;

    if !args.trace {
        let mut rungs = Vec::new();
        let rung_s = rest_s / (LADDER_RATES * LADDER_REPS) as f64;
        let (cap, ladder_sent, ladder_failed) = capacity(&mut sv, &client, rung_s, &mut rungs);
        attempted += ladder_sent;
        failed_total += ladder_failed;
        report.info_value("ladder", Value::Array(rungs));
        report.check(cap > 0.0, || format!("no ladder rate from {LADDER_START}/s met the limit"));
        let tail = windowed_tail(&lat);
        report.info("latency_p99_whole_phase_ms", stats::quantile(&stats::sorted(&lat), 0.99));
        report.metric("setup_s", setup_s, "s");
        report.metric(
            "throughput_per_s",
            (n_fixed - failed) as f64 / (last_done - first_due).as_secs_f64(),
            "1/s",
        );
        report.metric("latency_p50_ms", stats::median(&lat), "ms");
        report.metric("latency_tail_ms", tail.value, "ms");
        report.info("latency_tail_windows", lat.len() / TAIL_WINDOW);
        report.metric("cpu_ms_per_op", counts.stats.usage.cpu_s() * 1e3 / n_fixed as f64, "ms");
        report.metric("peak_rss_mib", counts.stats.usage.max_rss_kib as f64 / 1024.0, "MiB");
        report.metric("capacity_rps", cap, "1/s");
        crate::report_tail_info(report, &tail);
    } else {
        // The fixed-rate phase again, with the model calls timed in
        // alternate blocks of requests.
        let n_traced = ((rest_s * RATE).round() as usize).max(500);
        sv.calls.lock().expect("call log poisoned").clear();
        metrics::SERVE_QUEUE_DEPTH.reset();
        let traced = fixed_phase(&mut sv, &client, n_traced, true);
        attempted += n_traced;
        failed_total += traced.samples.iter().filter(|s| s.recs.is_none()).count();
        let calls = std::mem::take(&mut *sv.calls.lock().expect("call log poisoned"));
        let kept = std::mem::take(&mut *sv.kept_scores.lock().expect("score log poisoned"));
        report_layers(report, &sv, &fixed, &traced, &calls, &kept, &counts);
        check_parity(&sv.data, &traced.reqs, &traced.samples, report);
    }
    report.attempted = attempted as u64;
    report.failed = failed_total as u64;
}

#[allow(clippy::too_many_arguments)]
fn report_layers(
    r: &mut Report,
    sv: &Served,
    untraced: &Phase,
    traced: &Phase,
    calls: &[Call],
    kept: &[Vec<Vec<f32>>],
    counts: &crate::layers::OpCounts,
) {
    let ms = |c: &Call| (c.end - c.start).as_secs_f64() * 1e3;
    let encodes: Vec<&Call> = calls.iter().filter(|c| c.encode).collect();
    let scores: Vec<&Call> = calls.iter().filter(|c| !c.encode).collect();
    let enc_ms: Vec<f64> = encodes.iter().map(|c| ms(c)).collect();
    let score_ms: Vec<f64> = scores.iter().map(|c| ms(c)).collect();
    let topk_ms: Vec<f64> = kept
        .iter()
        .map(|rows| {
            let t = Instant::now();
            std::hint::black_box(rank(rows, K));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let topk_p50 = stats::median(&topk_ms);

    // A traced request belongs to the last batch whose scoring ended after
    // it was sent and before its reply; the batch started at its encode call
    // when it had misses.
    let mut waits = Vec::with_capacity(traced.samples.len());
    let mut explained = 0.0;
    let mut total = 0.0;
    for s in traced.samples.iter().filter(|s| s.traced) {
        let idx = calls.partition_point(|c| c.end <= s.done);
        let Some(bi) = (0..idx).rev().find(|&i| !calls[i].encode) else { continue };
        let score = &calls[bi];
        if score.end < s.sent {
            continue; // served while timing was being switched
        }
        let enc = (bi > 0 && calls[bi - 1].encode).then(|| &calls[bi - 1]);
        let batch_start = enc.map_or(score.start, |e| e.start);
        let wait = batch_start.saturating_duration_since(s.sent).as_secs_f64() * 1e3;
        waits.push(wait);
        explained += s.backlog_ms() + wait + enc.map_or(0.0, ms) + ms(score) + topk_p50;
        total += s.latency_ms();
    }

    r.metric("models.encode_ms_per_call", stats::median(&enc_ms), "ms");
    r.metric(
        "models.encode_rows_per_call",
        stats::mean(&encodes.iter().map(|c| c.rows as f64).collect::<Vec<_>>()),
        "rows",
    );
    r.metric("tensor.catalog_score_ms_per_call", stats::median(&score_ms), "ms");
    r.metric("tensor.topk_ms_per_call", topk_p50, "ms");
    let (hits, misses) = (untraced.hits + traced.hits, untraced.misses + traced.misses);
    r.metric("serve.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    r.metric(
        "serve.batch_rows_mean",
        traced.samples.len() as f64 / traced.batches.max(1) as f64,
        "rows",
    );
    r.metric(
        "serve.queue_depth_p99",
        metrics::SERVE_QUEUE_DEPTH.quantile(0.99).unwrap_or(0) as f64,
        "requests",
    );
    r.metric("serve.wait_ms_p50", stats::median(&waits), "ms");
    counts.report_counts(r);
    r.metric("serve.cache_hits", hits as f64, "count");
    r.metric("serve.cache_misses", misses as f64, "count");
    r.metric("data.generate_s", sv.data.generate_s, "s");
    r.metric("models.checkpoint_load_ms", sv.data.load_ms, "ms");
    r.metric("bench.coverage_pct", 100.0 * explained / total, "%");
    r.info("traced_requests_attributed", waits.len());
    let p50 = |traced_block: bool| {
        let lat: Vec<f64> = traced
            .samples
            .iter()
            .filter(|s| s.traced == traced_block)
            .map(Sample::latency_ms)
            .collect();
        stats::median(&lat)
    };
    r.metric("bench.trace_overhead_pct", 100.0 * (p50(true) / p50(false) - 1.0), "%");
}
