//! Measurement shared by the workloads: per-layer clocks for traced ops,
//! the set-up repeats, and the per-op counts read around the op loop.

use std::time::Instant;

use seqrec_obs::metrics;
use seqrec_tensor::{linalg, Tensor};

use crate::report::Report;
use crate::stats;
use crate::sys::{Window, WindowStats};

/// Times of one op, split by the layer function that ran, in ms. Layers
/// are timed from the benchmark, around calls into each crate's public API.
pub struct LayerClock {
    pub names: &'static [&'static str],
    /// `per_op[layer][op]`
    per_op: Vec<Vec<f64>>,
    current: Vec<f64>,
}

impl LayerClock {
    pub fn new(names: &'static [&'static str], ops: usize) -> Self {
        LayerClock {
            names,
            per_op: names.iter().map(|_| Vec::with_capacity(ops)).collect(),
            current: vec![0.0; names.len()],
        }
    }

    /// Adds the time since `since` to layer `layer` of the current op.
    pub fn lap(&mut self, layer: usize, since: Instant) {
        self.current[layer] += since.elapsed().as_secs_f64() * 1e3;
    }

    /// Starts a lap when `clock` is present: untraced ops read no clock.
    pub fn start(clock: &Option<&mut LayerClock>) -> Option<Instant> {
        clock.as_ref().map(|_| Instant::now())
    }

    /// [`LayerClock::lap`] for an optional clock and start.
    pub fn lap_opt(clock: &mut Option<&mut LayerClock>, layer: usize, since: Option<Instant>) {
        if let (Some(c), Some(t)) = (clock.as_deref_mut(), since) {
            c.lap(layer, t);
        }
    }

    /// Closes the current op.
    pub fn op_done(&mut self) {
        for (col, v) in self.per_op.iter_mut().zip(self.current.iter_mut()) {
            col.push(*v);
            *v = 0.0;
        }
    }

    /// Median per-op time of one layer.
    pub fn median_ms(&self, name: &str) -> f64 {
        let i = self.names.iter().position(|n| *n == name).expect("known layer name");
        stats::median(&self.per_op[i])
    }

    /// Total layer time over all ops, in ms.
    pub fn total_ms(&self) -> f64 {
        self.per_op.iter().flatten().sum()
    }
}

/// Runs `once` `repeats` times, returning the last result and the median
/// wall time in seconds. Set-up is repeated so that `setup_s` is a median,
/// not one noisy sample; each repeat drops the previous one's products.
pub fn repeated_setup<T>(repeats: usize, mut once: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        last = Some(once());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up repeat"), stats::median(&times), times)
}

/// Counter and rusage readings around the timed op loop.
pub struct OpWindow {
    window: Window,
    flops: u64,
    calls: u64,
    nodes: u64,
    live_level: i64,
}

/// What happened during the op loop, per op.
pub struct OpCounts {
    pub stats: WindowStats,
    pub gemm_flops: f64,
    pub gemm_calls: f64,
    pub tape_nodes: f64,
    pub minflt: f64,
    pub live_peak_mib: f64,
}

impl OpWindow {
    /// Opens the window. The live-tensor gauge's high-water mark is reset
    /// here, so its peak covers the op loop only.
    pub fn open() -> Self {
        let live_level = metrics::TENSOR_LIVE_BYTES.get();
        metrics::TENSOR_LIVE_BYTES.reset();
        OpWindow {
            window: Window::open(),
            flops: metrics::GEMM_FLOPS.get(),
            calls: metrics::GEMM_CALLS.get(),
            nodes: metrics::TAPE_NODES.get(),
            live_level,
        }
    }

    pub fn close(self, ops: u64) -> OpCounts {
        let stats = self.window.close();
        let per = |n: u64| n as f64 / ops.max(1) as f64;
        let peak = metrics::TENSOR_LIVE_BYTES.peak() + self.live_level;
        // Put the level back where it was before the reset.
        metrics::TENSOR_LIVE_BYTES.add(self.live_level);
        OpCounts {
            gemm_flops: per(metrics::GEMM_FLOPS.get() - self.flops),
            gemm_calls: per(metrics::GEMM_CALLS.get() - self.calls),
            tape_nodes: per(metrics::TAPE_NODES.get() - self.nodes),
            minflt: per(stats.usage.minflt),
            live_peak_mib: peak as f64 / (1024.0 * 1024.0),
            stats,
        }
    }
}

impl OpCounts {
    /// The per-op counts every workload reports in its traced run.
    pub fn report_counts(&self, r: &mut Report) {
        let u = &self.stats.usage;
        r.metric("tensor.gemm_flops_per_op", self.gemm_flops, "flop");
        r.metric("tensor.gemm_calls_per_op", self.gemm_calls, "count");
        r.metric("tensor.tape_nodes_per_op", self.tape_nodes, "count");
        r.metric("proc.minflt_per_op", self.minflt, "count");
        r.metric("proc.sys_cpu_pct", 100.0 * u.sys_s / u.cpu_s().max(1e-9), "%");
        r.metric("tensor.live_peak_mib", self.live_peak_mib, "MiB");
    }

    /// Facts about the op loop every run records in its context line.
    pub fn report_info(&self, r: &mut Report) {
        let u = &self.stats.usage;
        r.info("op_loop_wall_s", self.stats.wall_s);
        r.info("cpu_user_s", u.user_s);
        r.info("cpu_sys_s", u.sys_s);
        r.info("minflt_per_op", self.minflt);
        r.info("host_steal_pct", self.stats.steal_pct);
        r.info("voluntary_ctx_switches", u.vol_cs);
        r.info("involuntary_ctx_switches", u.invol_cs);
    }
}

/// What a closed-loop op loop measured.
pub struct OpLoop<R> {
    /// Each op's result, in op order.
    pub results: Vec<R>,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    pub counts: OpCounts,
}

/// Runs `ops` ops back to back, timing each, with the counters read around
/// the whole loop. A traced run alternates traced
/// and untraced ops, so the two are compared under the same conditions for
/// the overhead figure; `op` gets the clock on traced ops only.
pub fn run_ops<R>(
    ops: usize,
    trace: bool,
    clock: &mut LayerClock,
    mut op: impl FnMut(usize, Option<&mut LayerClock>) -> R,
) -> OpLoop<R> {
    let mut results = Vec::with_capacity(ops);
    let mut untraced_ms = Vec::with_capacity(ops);
    let mut traced_ms = Vec::with_capacity(ops);
    let window = OpWindow::open();
    for i in 0..ops {
        let traced = trace && i % 2 == 1;
        let t0 = Instant::now();
        results.push(op(i, traced.then_some(&mut *clock)));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
    }
    let counts = window.close(ops as u64);
    OpLoop { results, untraced_ms, traced_ms, counts }
}

impl<R> OpLoop<R> {
    /// Every op's time: the untraced ops', then the traced ops'.
    pub fn op_ms(&self) -> Vec<f64> {
        self.untraced_ms.iter().chain(&self.traced_ms).copied().collect()
    }

    /// The end-to-end metrics of a closed-loop workload, each op handling
    /// `items_per_op` sequences (train) or users (eval).
    pub fn report_end_to_end(&self, r: &mut Report, setup_s: f64, items_per_op: usize) {
        let op_ms = self.op_ms();
        let p50 = stats::median(&op_ms);
        let tail = stats::tail(&op_ms);
        // Rates are over the whole op loop: the host's speed drifts over
        // tens of seconds, and a sum follows the drift smoothly where a
        // median jumps between its slow and its fast phase.
        let ops_per_s = op_ms.len() as f64 * 1e3 / op_ms.iter().sum::<f64>();
        let usage = &self.counts.stats.usage;
        r.metric("setup_s", setup_s, "s");
        r.metric("throughput_per_s", items_per_op as f64 * ops_per_s, "1/s");
        r.metric("latency_p50_ms", p50, "ms");
        r.metric("latency_tail_ms", tail.value, "ms");
        r.metric("cpu_ms_per_op", usage.cpu_s() * 1e3 / op_ms.len() as f64, "ms");
        r.metric("peak_rss_mib", usage.max_rss_kib as f64 / 1024.0, "MiB");
        // A closed loop's capacity is the op rate it sustains back to back.
        r.metric("capacity_rps", ops_per_s, "1/s");
        crate::report_tail_info(r, &tail);
        r.info("op_ms", &op_ms);
    }

    /// The per-layer medians, the counts, and how well the layers cover
    /// the traced ops and what tracing costs.
    pub fn report_layers(&self, r: &mut Report, clock: &LayerClock) {
        for name in clock.names {
            r.metric(name, clock.median_ms(name), "ms");
        }
        self.counts.report_counts(r);
        let traced_total: f64 = self.traced_ms.iter().sum();
        r.metric("bench.coverage_pct", 100.0 * clock.total_ms() / traced_total, "%");
        let overhead = stats::median(&self.traced_ms) / stats::median(&self.untraced_ms) - 1.0;
        r.metric("bench.trace_overhead_pct", 100.0 * overhead, "%");
    }
}

/// GFLOP/s of the public GEMM at one shape, as `a[m,k] · b` with `b` laid
/// out `[k,n]` (`nt = false`) or `[n,k]` (`nt = true`): the median of
/// `reps` calls.
pub fn gemm_gflops(m: usize, k: usize, n: usize, nt: bool, reps: usize) -> f64 {
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len).map(|i| ((i * 31 + salt) % 17) as f32 * 0.01 - 0.08).collect()
    };
    let a = Tensor::from_vec([m, k], fill(m * k, 1));
    let b = if nt {
        Tensor::from_vec([n, k], fill(n * k, 2))
    } else {
        Tensor::from_vec([k, n], fill(k * n, 2))
    };
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let c = if nt { linalg::matmul_nt(&a, &b) } else { linalg::matmul_nn(&a, &b) };
        std::hint::black_box(&c);
        secs.push(t.elapsed().as_secs_f64());
    }
    2.0 * (m * k * n) as f64 / stats::median(&secs) / 1e9
}
