//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! seqrec-repobench --workload <train-cl4srec|eval-catalog|serve-open> --seed N
//!                  --seconds S --trace <0|1> [--commit C] [--source-digest D]
//! ```
//!
//! An untraced `train-cl4srec` run starts its replica processes with the
//! same flags plus `--replica 1`; each prints one line of numbers instead.
//!
//! Prints a context line (fingerprint, checks, facts about the run) and,
//! last, the result line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones.

mod eval;
mod layers;
mod report;
mod serve;
mod stats;
mod sys;
mod train;

use report::{obj, render, Report};
use serde::{Serialize, Value};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Set in a replica process of an untraced `train-cl4srec` run.
    replica: bool,
    commit: String,
    source_digest: String,
}

const WORKLOADS: [&str; 3] = ["train-cl4srec", "eval-catalog", "serve-open"];

/// Every per-layer metric, with its unit, as `BENCHMARK.json` lists them.
/// A traced run reports all of them; a layer its workload never calls
/// reads 0 and is named in the context's `not_on_path`.
const PER_LAYER: [(&str, &str); 33] = [
    ("data.batch_ms", "ms"),
    ("models.next_item_fwd_ms", "ms"),
    ("core.augment_ms", "ms"),
    ("models.contrastive_fwd_ms", "ms"),
    ("core.ntxent_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.optim_ms", "ms"),
    ("tensor.gemm_gflops.train", "GFLOP/s"),
    ("data.inputs_ms_per_batch", "ms"),
    ("models.encode_ms_per_batch", "ms"),
    ("tensor.catalog_score_ms_per_batch", "ms"),
    ("eval.rank_ms_per_batch", "ms"),
    ("tensor.gemm_gflops.catalog", "GFLOP/s"),
    ("models.encode_ms_per_call", "ms"),
    ("models.encode_rows_per_call", "rows"),
    ("tensor.catalog_score_ms_per_call", "ms"),
    ("tensor.topk_ms_per_call", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.queue_depth_p99", "requests"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("tensor.gemm_flops_per_op", "flop"),
    ("tensor.gemm_calls_per_op", "count"),
    ("tensor.tape_nodes_per_op", "count"),
    ("proc.minflt_per_op", "count"),
    ("proc.sys_cpu_pct", "%"),
    ("tensor.live_peak_mib", "MiB"),
    ("data.generate_s", "s"),
    ("models.checkpoint_load_ms", "ms"),
    ("bench.coverage_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// The public GEMM at the dominant shapes: the encoder's projections at
/// training shape (`[B·T, d] · [d, d]`, B = 256, T = 50, d = 64) and the
/// catalog scoring of one eval batch (`[256, d] · [items, d]ᵀ` over a
/// 5k-item catalog). Timed in every traced run, outside the op loop.
fn report_gemm(r: &mut Report) {
    r.metric(
        "tensor.gemm_gflops.train",
        layers::gemm_gflops(256 * 50, 64, 64, false, 20),
        "GFLOP/s",
    );
    r.metric("tensor.gemm_gflops.catalog", layers::gemm_gflops(256, 64, 5314, true, 20), "GFLOP/s");
}

/// Orders the traced run's metrics as [`PER_LAYER`] does, filling layers
/// the workload does not call with 0.
fn complete_per_layer(r: &mut Report) {
    let mut measured: Vec<report::Metric> = std::mem::take(&mut r.metrics);
    let mut not_on_path = Vec::new();
    for (name, unit) in PER_LAYER {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => r.metrics.push(measured.swap_remove(i)),
            None => {
                not_on_path.push(name);
                r.metric(name, 0.0, unit);
            }
        }
    }
    let extra: Vec<String> = measured.iter().map(|m| m.name.clone()).collect();
    assert!(extra.is_empty(), "metrics missing from PER_LAYER: {extra:?}");
    r.info("not_on_path", &not_on_path);
}

fn parse_args() -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        replica: false,
        commit: "unknown".into(),
        source_digest: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = num(&value)?,
            "--seconds" => a.seconds = num(&value)?,
            "--trace" => a.trace = num(&value)? != 0,
            "--replica" => a.replica = num(&value)? != 0,
            "--commit" => a.commit = value,
            "--source-digest" => a.source_digest = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.replica && (a.workload != "train-cl4srec" || a.trace) {
        return Err("--replica applies to untraced train-cl4srec runs only".into());
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

pub fn report_tail_info(r: &mut Report, tail: &stats::Tail) {
    r.info("latency_tail_percentile", tail.percentile);
    r.info("latency_tail_samples", tail.samples);
    r.info("latency_tail_beyond", tail.beyond);
}

fn fingerprint(a: &RunArgs) -> Value {
    let (avx2, fma) = sys::has_avx2_fma();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", nproc.to_value()),
        ("pool_size", rayon::current_num_threads().to_value()),
        ("pool_source", "SEQREC_THREADS=1 set by the workload".to_value()),
        ("cpu_model", sys::cpu_model().to_value()),
        ("avx2", avx2.to_value()),
        ("fma", fma.to_value()),
        ("allocator", sys::allocator().to_value()),
        ("commit", a.commit.to_value()),
        ("source_digest", a.source_digest.to_value()),
    ])
}

fn main() {
    // Every workload runs the rayon pool at one thread: on a 2-core host a
    // larger pool oversubscribes the cores (the calling thread computes
    // too) and adds scheduling noise without adding speed. Set before
    // anything touches the pool.
    std::env::set_var("SEQREC_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("seqrec-repobench: {e}");
            std::process::exit(2);
        }
    };
    let pool = rayon::current_num_threads();
    assert_eq!(pool, 1, "the rayon pool must run at one thread");
    if args.replica {
        train::replica(&args);
        return;
    }

    let mut report = Report::default();
    let speed_before = sys::HostSpeed::probe();
    let host = sys::Window::open();
    match args.workload.as_str() {
        "train-cl4srec" => train::run(&args, &mut report),
        "eval-catalog" => eval::run(&args, &mut report),
        "serve-open" => serve::run(&args, &mut report),
        _ => unreachable!("workload validated by parse_args"),
    }
    if args.trace {
        report_gemm(&mut report);
        complete_per_layer(&mut report);
    }
    let whole = host.close();
    for (key, speed) in
        [("host_speed_before", speed_before), ("host_speed_after", sys::HostSpeed::probe())]
    {
        let fields =
            obj(vec![("alu_ms", speed.alu_ms.to_value()), ("fault_us", speed.fault_us.to_value())]);
        report.info_value(key, fields);
    }
    report.info("run_wall_s", whole.wall_s);
    report.info("run_host_steal_pct", whole.steal_pct);
    report.info("run_voluntary_ctx_switches", whole.usage.vol_cs);
    report.info("run_involuntary_ctx_switches", whole.usage.invol_cs);

    let context = obj(vec![
        ("workload", args.workload.to_value()),
        ("seed", args.seed.to_value()),
        ("seconds", args.seconds.to_value()),
        ("trace", args.trace.to_value()),
        ("fingerprint", fingerprint(&args)),
        ("info", Value::Object(report.info.clone())),
        ("check_failures", report.check_failures.to_value()),
    ]);
    println!("{}", render(&obj(vec![("context", context)])));
    println!("{}", render(&report.result_json()));
}
