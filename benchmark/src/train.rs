//! `train-cl4srec`: one op is one optimizer step of the ICDE joint
//! objective (Eq. 16) — next-item BCE plus λ·NT-Xent over two augmented
//! views, `Tape::backward`, then Adam — at paper shapes (batch 256, T = 50,
//! the small encoder) on the synthetic Beauty preset.
//!
//! Untraced ops call [`Cl4sRec::joint_loss`], the objective
//! `Cl4sRec::fit_joint` optimises; an untraced run spreads them over
//! [`REPLICAS`] processes. Traced ops compose the same objective from the
//! public functions of each layer so that each can be timed; a traced run
//! checks on an extra batch that the two compositions give bit-identical
//! losses and gradients.

use std::process::{Command, Stdio};
use std::time::Instant;

use cl4srec::augment::AugmentationSet;
use cl4srec::model::{Cl4sRec, Cl4sRecConfig};
use cl4srec::nt_xent;
use rand::RngCore;
use seqrec_data::batch::{
    epoch_batches, next_item_batch, pad_left, NegativeSampler, NextItemBatch,
};
use seqrec_data::synthetic::{generate_dataset, SyntheticConfig};
use seqrec_data::Split;
use seqrec_tensor::init::{rng, TensorRng};
use seqrec_tensor::nn::{HasParams, Step};
use seqrec_tensor::optim::{Adam, AdamConfig};
use seqrec_tensor::{Gradients, Var};

use serde::{Serialize, Value};

use crate::layers::{run_ops, LayerClock};
use crate::report::{obj, Report};
use crate::sys::Usage;
use crate::{stats, RunArgs};

/// Dataset scale: the step's cost does not depend on the catalog, so the
/// smallest preset scale that still has many full batches keeps set-up short.
/// The dataset is the preset's own (fixed generator seed), so every seed
/// does the same set-up work; `--seed` draws the model, batch order,
/// augmentations and negatives.
const SCALE: f64 = 0.1;
const BATCH: usize = 256;
const LAMBDA: f32 = 0.1;
/// Nominal optimizer steps per second of `--seconds`, so a run does a fixed
/// amount of work.
const OPS_PER_SECOND: f64 = 0.7;
/// The step count never goes below this, whatever `--seconds`: enough for a
/// latency tail with ten samples beyond it ([`stats::tail`]).
const MIN_OPS: usize = stats::MIN_TAIL_SAMPLES;

const LAYERS: &[&str] = &[
    "data.batch_ms",
    "models.next_item_fwd_ms",
    "core.augment_ms",
    "models.contrastive_fwd_ms",
    "core.ntxent_ms",
    "tensor.backward_ms",
    "tensor.optim_ms",
];
const DATA: usize = 0;
const NEXT_FWD: usize = 1;
const AUGMENT: usize = 2;
const CL_FWD: usize = 3;
const NTXENT: usize = 4;
const BACKWARD: usize = 5;
const OPTIM: usize = 6;

struct Trainer {
    split: Split,
    model: Cl4sRec,
    augs: AugmentationSet,
    adam: Adam,
    sampler: NegativeSampler,
    r: TensorRng,
    /// User ids of every full batch the run will train on, in order.
    batches: Vec<Vec<usize>>,
    generate_s: f64,
}

fn setup(seed: u64, batches_needed: usize) -> Trainer {
    let t = Instant::now();
    let split = Split::leave_one_out(&generate_dataset(&SyntheticConfig::beauty(SCALE)));
    let generate_s = t.elapsed().as_secs_f64();

    let model = Cl4sRec::new(Cl4sRecConfig::small(split.num_items()), seed);
    let augs = AugmentationSet::paper_full(0.6, 0.5, 0.5, model.mask_token());
    let users: Vec<usize> =
        (0..split.num_users()).filter(|&u| split.train_sequence(u).len() >= 2).collect();
    // Only full batches, so that every op has the same shape.
    let mut batches = Vec::with_capacity(batches_needed);
    let mut epoch = 0;
    while batches.len() < batches_needed {
        batches.extend(
            epoch_batches(&users, BATCH, seed + epoch).into_iter().filter(|b| b.len() == BATCH),
        );
        epoch += 1;
    }
    batches.truncate(batches_needed);
    let mut tr = Trainer {
        sampler: NegativeSampler::new(split.num_items(), seed ^ 0x7c4),
        split,
        model,
        augs,
        adam: Adam::new(AdamConfig { lr: 1e-3, ..AdamConfig::default() }),
        r: rng(seed),
        batches,
        generate_s,
    };
    tr.op(0, None); // warm-up
    tr
}

/// The tape variable of one parameter of `model`, bound to `step`.
fn param_var(model: &Cl4sRec, step: &mut Step, name: &str) -> Var {
    let mut var = None;
    model.visit(&mut |p| {
        if p.name() == name {
            var = Some(p.var(step));
        }
    });
    var.unwrap_or_else(|| panic!("CL4SRec has no parameter {name}"))
}

/// The joint loss composed from each layer's public functions, timed per
/// layer into `clock` — the same tape operations, in the same order, as
/// [`Cl4sRec::joint_loss`].
fn traced_joint_loss(
    model: &Cl4sRec,
    augs: &AugmentationSet,
    r: &mut TensorRng,
    step: &mut Step,
    batch: &NextItemBatch,
    seqs: &[&[u32]],
    clock: &mut LayerClock,
) -> Var {
    let t0 = Instant::now();
    let next = model.sasrec().next_item_loss(step, batch, true, r);
    clock.lap(NEXT_FWD, t0);

    let t0 = Instant::now();
    let t = model.config().encoder.max_len;
    let aug_base = r.next_u64();
    let n = seqs.len();
    let (mut ids1, mut ids2) = (Vec::with_capacity(n * t), Vec::with_capacity(n * t));
    let (mut valid1, mut valid2) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for (i, seq) in seqs.iter().enumerate() {
        let mut ri = rng(aug_base ^ i as u64);
        let (view1, view2) = augs.two_views(seq, &mut ri);
        let (i1, v1) = pad_left(&view1, t);
        let (i2, v2) = pad_left(&view2, t);
        ids1.extend(i1);
        ids2.extend(i2);
        valid1.push(v1);
        valid2.push(v2);
    }
    clock.lap(AUGMENT, t0);

    let t0 = Instant::now();
    let enc = model.sasrec().encoder();
    let repr1 = enc.user_repr(step, &ids1, &valid1, true, r);
    let repr2 = enc.user_repr(step, &ids2, &valid2, true, r);
    let mut project = |x: Var| {
        let w = param_var(model, step, "cl4srec.proj.weight");
        let y = step.tape.matmul_last(x, w);
        let b = param_var(model, step, "cl4srec.proj.bias");
        step.tape.add_bias(y, b)
    };
    let z1 = project(repr1);
    let z2 = project(repr2);
    clock.lap(CL_FWD, t0);

    let t0 = Instant::now();
    let cl = nt_xent(step, z1, z2, model.config().tau);
    clock.lap(NTXENT, t0);

    let weighted = step.tape.scale(cl, LAMBDA);
    step.tape.add(next, weighted)
}

impl Trainer {
    /// One optimizer step on batch `i`; returns the loss.
    fn op(&mut self, i: usize, clock: Option<&mut LayerClock>) -> f32 {
        let t0 = Instant::now();
        let seqs: Vec<&[u32]> =
            self.batches[i].iter().map(|&u| self.split.train_sequence(u)).collect();
        let t = self.model.config().encoder.max_len;
        let batch = next_item_batch(&seqs, t, &mut self.sampler);
        let mut step = Step::new();
        let Some(clock) = clock else {
            let loss = self.model.joint_loss(
                &mut step,
                &batch,
                &seqs,
                &self.augs,
                LAMBDA,
                true,
                &mut self.r,
            );
            let grads = step.tape.backward(loss);
            self.adam.step_with_stats(&mut self.model, &step, &grads);
            return step.tape.value(loss).item();
        };
        clock.lap(DATA, t0);
        let loss = traced_joint_loss(
            &self.model,
            &self.augs,
            &mut self.r,
            &mut step,
            &batch,
            &seqs,
            clock,
        );
        let t0 = Instant::now();
        let grads = step.tape.backward(loss);
        clock.lap(BACKWARD, t0);
        let t0 = Instant::now();
        self.adam.step_with_stats(&mut self.model, &step, &grads);
        clock.lap(OPTIM, t0);
        clock.op_done();
        step.tape.value(loss).item()
    }

    /// Runs batch `i` through both compositions on the same rng state and
    /// reports any difference in loss or gradient bits.
    fn check_composition(&mut self, i: usize, report: &mut Report) {
        let seqs: Vec<&[u32]> =
            self.batches[i].iter().map(|&u| self.split.train_sequence(u)).collect();
        let t = self.model.config().encoder.max_len;
        let batch = next_item_batch(&seqs, t, &mut self.sampler);

        let mut r_plain = self.r.clone();
        let mut plain = Step::new();
        let plain_loss = self.model.joint_loss(
            &mut plain,
            &batch,
            &seqs,
            &self.augs,
            LAMBDA,
            true,
            &mut r_plain,
        );
        let plain_grads = plain.tape.backward(plain_loss);

        let mut clock = LayerClock::new(LAYERS, 1);
        let mut traced = Step::new();
        let traced_loss = traced_joint_loss(
            &self.model,
            &self.augs,
            &mut self.r,
            &mut traced,
            &batch,
            &seqs,
            &mut clock,
        );
        let traced_grads = traced.tape.backward(traced_loss);

        let (a, b) = (plain.tape.value(plain_loss).item(), traced.tape.value(traced_loss).item());
        report.check(a.to_bits() == b.to_bits(), || {
            format!("traced joint loss {b} differs from Cl4sRec::joint_loss {a}")
        });
        let differing =
            differing_grads(&self.model, (&plain, &plain_grads), (&traced, &traced_grads));
        report.check(differing.is_empty(), || {
            format!("traced gradients differ from Cl4sRec::joint_loss for {differing:?}")
        });
        report.check(self.r.clone().next_u64() == r_plain.next_u64(), || {
            "traced composition consumed the rng differently".into()
        });
    }
}

fn differing_grads(model: &Cl4sRec, a: (&Step, &Gradients), b: (&Step, &Gradients)) -> Vec<String> {
    let mut out = Vec::new();
    model.visit(&mut |p| {
        let bits = |g: Option<&seqrec_tensor::Tensor>| {
            g.map(|t| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        if bits(p.grad(a.0, a.1)) != bits(p.grad(b.0, b.1)) {
            out.push(p.name().to_string());
        }
    });
    out
}

/// Checks that the loss is finite at every step and that its mean over the
/// last quarter of the steps is below that over the first; returns the
/// number of non-finite losses.
fn check_losses(losses: &[f64], report: &mut Report) -> u64 {
    let quarter = (losses.len() / 4).max(1);
    let start = stats::mean(&losses[..quarter]);
    let end = stats::mean(&losses[losses.len() - quarter..]);
    report.check(end < start, || {
        format!("loss did not fall: first-quarter mean {start}, last {end}")
    });
    losses.iter().filter(|l| !l.is_finite()).count() as u64
}

fn total_ops(args: &RunArgs) -> usize {
    ((args.seconds as f64 * OPS_PER_SECOND).round() as usize).max(MIN_OPS)
}

pub fn run(args: &RunArgs, report: &mut Report) {
    report.info("dataset", format!("beauty@{SCALE}"));
    report.info("batch", BATCH);
    if args.trace {
        run_traced(args, report);
    } else {
        run_replicas(args, report);
    }
}

/// The traced run: one process, traced and untraced steps alternating.
fn run_traced(args: &RunArgs, report: &mut Report) {
    let ops = total_ops(args);
    // Batch 0 is the warm-up step, ops use batches 1..=ops, and the
    // composition check runs on the last batch after the timed ops.
    let mut tr = setup(args.seed, ops + 2);
    report.info("users", tr.split.num_users());
    report.info("items", tr.split.num_items());
    let mut clock = LayerClock::new(LAYERS, ops);
    let run = run_ops(ops, true, &mut clock, |i, clock| tr.op(i + 1, clock));
    tr.check_composition(ops + 1, report);
    let losses: Vec<f64> = run.results.iter().map(|&l| f64::from(l)).collect();
    report.attempted = ops as u64;
    report.failed = check_losses(&losses, report);
    run.counts.report_info(report);
    run.report_layers(report, &clock);
    report.metric("data.generate_s", tr.generate_s, "s");
}

/// Processes an untraced run's steps are split over. Each runs one seeded
/// set-up, the work a training process does before its first step, then the
/// same steps; `setup_s` is the median of their set-up times and every other
/// metric the median over processes (the tail: over their pooled steps).
/// Set-up is not repeated within a process because the steps' cost depends
/// on the heap's history: after one set-up, glibc hands each step's freed
/// memory back to the kernel (about 230k page faults per step), while after
/// several in-process set-ups most processes kept it (about 22k).
const REPLICAS: usize = 3;

/// What one replica process measured, passed to the parent as one line of
/// numbers.
struct Replica {
    setup_s: f64,
    users: usize,
    items: usize,
    usage: Usage,
    steal_pct: f64,
    op_ms: Vec<f64>,
    losses: Vec<f64>,
}

impl Replica {
    fn to_line(&self) -> String {
        let u = &self.usage;
        let head = [
            self.setup_s,
            self.users as f64,
            self.items as f64,
            u.user_s,
            u.sys_s,
            u.minflt as f64,
            u.max_rss_kib as f64,
            u.vol_cs as f64,
            u.invol_cs as f64,
            self.steal_pct,
            self.op_ms.len() as f64,
        ];
        let all: Vec<String> =
            head.iter().chain(&self.op_ms).chain(&self.losses).map(f64::to_string).collect();
        all.join(" ")
    }

    fn parse(line: &str) -> Option<Replica> {
        let v: Vec<f64> = line.split_whitespace().map(str::parse).collect::<Result<_, _>>().ok()?;
        let n = *v.get(10)? as usize;
        if v.len() != 11 + 2 * n {
            return None;
        }
        Some(Replica {
            setup_s: v[0],
            users: v[1] as usize,
            items: v[2] as usize,
            usage: Usage {
                user_s: v[3],
                sys_s: v[4],
                minflt: v[5] as u64,
                max_rss_kib: v[6] as u64,
                vol_cs: v[7] as u64,
                invol_cs: v[8] as u64,
            },
            steal_pct: v[9],
            op_ms: v[11..11 + n].to_vec(),
            losses: v[11 + n..].to_vec(),
        })
    }

    fn info(&self) -> Value {
        let steps = self.op_ms.len() as f64;
        obj(vec![
            ("setup_s", self.setup_s.to_value()),
            ("cpu_user_s", self.usage.user_s.to_value()),
            ("cpu_sys_s", self.usage.sys_s.to_value()),
            ("minflt_per_op", (self.usage.minflt as f64 / steps).to_value()),
            ("host_steal_pct", self.steal_pct.to_value()),
            ("voluntary_ctx_switches", self.usage.vol_cs.to_value()),
            ("involuntary_ctx_switches", self.usage.invol_cs.to_value()),
            ("op_ms", self.op_ms.to_value()),
        ])
    }
}

/// Steps each replica process runs.
fn replica_steps(args: &RunArgs) -> usize {
    total_ops(args).div_ceil(REPLICAS)
}

/// The body of a replica process (`--replica`): one set-up, then the
/// untraced steps; prints a [`Replica`] line.
pub fn replica(args: &RunArgs) {
    let steps = replica_steps(args);
    let t = Instant::now();
    let mut tr = setup(args.seed, steps + 1);
    let setup_s = t.elapsed().as_secs_f64();
    let mut clock = LayerClock::new(LAYERS, 0);
    let run = run_ops(steps, false, &mut clock, |i, clock| tr.op(i + 1, clock));
    let line = Replica {
        setup_s,
        users: tr.split.num_users(),
        items: tr.split.num_items(),
        usage: run.counts.stats.usage,
        steal_pct: run.counts.stats.steal_pct,
        op_ms: run.op_ms(),
        losses: run.results.iter().map(|&l| f64::from(l)).collect(),
    };
    println!("{}", line.to_line());
}

/// The untraced run: [`REPLICAS`] replica processes, one after another.
fn run_replicas(args: &RunArgs, report: &mut Report) {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let replicas: Vec<Replica> = (0..REPLICAS)
        .map(|i| {
            let out = Command::new(&exe)
                .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .args(["--replica", "1"])
                .stderr(Stdio::inherit())
                .output()
                .expect("replica process starts");
            assert!(out.status.success(), "replica process {i} failed: {}", out.status);
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .last()
                .and_then(Replica::parse)
                .unwrap_or_else(|| panic!("replica process {i} printed no result: {text:?}"))
        })
        .collect();

    report.info("users", replicas[0].users);
    report.info("items", replicas[0].items);
    report.info_value("replicas", Value::Array(replicas.iter().map(Replica::info).collect()));
    let mut failed = 0;
    for r in &replicas {
        failed += check_losses(&r.losses, report);
    }
    report.attempted = replicas.iter().map(|r| r.op_ms.len() as u64).sum();
    report.failed = failed;

    let median_of =
        |f: &dyn Fn(&Replica) -> f64| stats::median(&replicas.iter().map(f).collect::<Vec<_>>());
    let ops_per_s = |r: &Replica| r.op_ms.len() as f64 * 1e3 / r.op_ms.iter().sum::<f64>();
    let pooled: Vec<f64> = replicas.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    let tail = stats::tail(&pooled);
    report.metric("setup_s", median_of(&|r| r.setup_s), "s");
    report.metric("throughput_per_s", BATCH as f64 * median_of(&ops_per_s), "1/s");
    report.metric("latency_p50_ms", median_of(&|r| stats::median(&r.op_ms)), "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric(
        "cpu_ms_per_op",
        median_of(&|r| r.usage.cpu_s() * 1e3 / r.op_ms.len() as f64),
        "ms",
    );
    let peak_kib = replicas.iter().map(|r| r.usage.max_rss_kib).max().unwrap_or(0);
    report.metric("peak_rss_mib", peak_kib as f64 / 1024.0, "MiB");
    // A closed loop's capacity is the op rate it sustains back to back.
    report.metric("capacity_rps", median_of(&ops_per_s), "1/s");
    crate::report_tail_info(report, &tail);
}
