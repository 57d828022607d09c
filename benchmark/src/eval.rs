//! `eval-catalog`: full-catalog ranking (§4.1.2) with a CL4SRec model
//! loaded from a checkpoint. One op is one batch of 256 users: build their
//! test inputs, encode them (`encode_users`), score every item
//! (`score_states`) and rank each user's target among the items they have
//! not interacted with — what `seqrec_eval::evaluate` does per batch.
//!
//! The encoder runs forward only: no tape gradients, dropout, augmentation
//! or optimizer, so a training-only change should leave this flat.

use std::time::Instant;

use cl4srec::model::{Cl4sRec, Cl4sRecConfig};
use seqrec_data::synthetic::{generate_dataset, SyntheticConfig};
use seqrec_data::Split;
use seqrec_eval::{
    evaluate, rank_of_target, EvalOptions, EvalTarget, MetricsAccumulator, StatefulScorer, PAPER_KS,
};
use seqrec_models::checkpoint;

use crate::layers::{repeated_setup, run_ops, LayerClock};
use crate::report::Report;
use crate::RunArgs;

/// Dataset scale: Beauty at this scale keeps a catalog of more than 5k
/// items after 5-core filtering. The dataset is the preset's own (fixed
/// generator seed); `--seed` draws the model and the order of the users.
pub const SCALE: f64 = 0.5;
const BATCH: usize = 256;
/// Nominal batches per second of `--seconds`, so a run does a fixed amount
/// of work.
const OPS_PER_SECOND: f64 = 3.8;
/// The op count never goes below this, whatever `--seconds`: enough for a
/// latency tail with ten samples beyond it ([`crate::stats::tail`]).
const MIN_OPS: usize = crate::stats::MIN_TAIL_SAMPLES;
/// In-process set-up repeats behind the `setup_s` median; each includes
/// one warm-up batch. Unlike train's steps, the batches fault as many pages
/// after one set-up as after nine (about 54k per batch), so repeating it in
/// the process leaves the ops as they are.
const SETUP_REPEATS: usize = 9;
/// Leading batches whose HR/NDCG are compared with `evaluate` on the
/// in-memory model.
const PARITY_BATCHES: usize = 2;
/// Users whose ranks are checked against a brute-force ranking.
const BRUTE_FORCE_USERS: usize = 16;

const LAYERS: &[&str] = &[
    "data.inputs_ms_per_batch",
    "models.encode_ms_per_batch",
    "tensor.catalog_score_ms_per_batch",
    "eval.rank_ms_per_batch",
];
const INPUTS: usize = 0;
const ENCODE: usize = 1;
const SCORE: usize = 2;
const RANK: usize = 3;

/// Data set-up shared with `serve-open`: the dataset, an initialised
/// model and the same model loaded back from its checkpoint bytes.
pub struct Loaded<M> {
    pub split: Split,
    pub in_memory: Cl4sRec,
    pub loaded: M,
    pub generate_s: f64,
    pub load_ms: f64,
}

pub fn load<M>(seed: u64, from_bytes: impl FnOnce(&[u8]) -> M) -> Loaded<M> {
    let t = Instant::now();
    let split = Split::leave_one_out(&generate_dataset(&SyntheticConfig::beauty(SCALE)));
    let generate_s = t.elapsed().as_secs_f64();
    let in_memory = Cl4sRec::new(Cl4sRecConfig::small(split.num_items()), seed);
    let bytes = checkpoint::save_to_vec(&in_memory);
    let t = Instant::now();
    let loaded = from_bytes(&bytes);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    Loaded { split, in_memory, loaded, generate_s, load_ms }
}

struct Evaluator {
    data: Loaded<Cl4sRec>,
    batches: Vec<Vec<usize>>,
}

impl Evaluator {
    /// One batch: returns the batch's accumulator and each user's rank.
    fn op(&self, i: usize, mut clock: Option<&mut LayerClock>) -> (MetricsAccumulator, Vec<usize>) {
        let split = &self.data.split;
        let model = &self.data.loaded;
        let users = &self.batches[i % self.batches.len()];

        let t0 = LayerClock::start(&clock);
        let inputs: Vec<Vec<u32>> = users.iter().map(|&u| split.test_input(u)).collect();
        let refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
        LayerClock::lap_opt(&mut clock, INPUTS, t0);

        let t0 = LayerClock::start(&clock);
        let states = model.encode_users(users, &refs);
        LayerClock::lap_opt(&mut clock, ENCODE, t0);

        let t0 = LayerClock::start(&clock);
        let scores = model.score_states(&states);
        LayerClock::lap_opt(&mut clock, SCORE, t0);

        let t0 = LayerClock::start(&clock);
        let mut acc = MetricsAccumulator::new(&PAPER_KS);
        let ranks: Vec<usize> = users
            .iter()
            .zip(&scores)
            .map(|(&u, s)| rank_of_target(s, split.test_target(u), &split.user_items(u)))
            .collect();
        for &rank in &ranks {
            acc.push(rank);
        }
        LayerClock::lap_opt(&mut clock, RANK, t0);
        if let Some(c) = clock {
            c.op_done();
        }
        (acc, ranks)
    }
}

fn setup(seed: u64) -> Evaluator {
    let data = load(seed, |bytes| {
        checkpoint::load_from_bytes::<Cl4sRec>(bytes).expect("checkpoint round trip")
    });
    let mut users: Vec<usize> = (0..data.split.num_users()).collect();
    let mut r = seqrec_tensor::init::rng(seed);
    for i in (1..users.len()).rev() {
        users.swap(i, rand::Rng::gen_range(&mut r, 0..=i));
    }
    // Only full batches, so that every op has the same shape.
    let batches: Vec<Vec<usize>> =
        users.chunks(BATCH).filter(|c| c.len() == BATCH).map(<[usize]>::to_vec).collect();
    let ev = Evaluator { data, batches };
    ev.op(0, None); // warm-up
    ev
}

/// The rank of `target` by brute force: sort every candidate by score
/// (descending; ties placed above the target) and find its position.
fn brute_force_rank(scores: &[f32], target: u32, history: &[u32]) -> usize {
    let mut candidates: Vec<(f32, bool)> = (1..scores.len())
        .filter(|&i| i == target as usize || !history.contains(&(i as u32)))
        .map(|i| (scores[i], i == target as usize))
        .collect();
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    candidates.iter().position(|c| c.1).expect("target is a candidate")
}

/// Output checks, run after the timed ops.
fn check(ev: &Evaluator, parity: &MetricsAccumulator, first_ranks: &[usize], r: &mut Report) {
    let split = &ev.data.split;
    let users: Vec<usize> = ev.batches[..PARITY_BATCHES].concat();
    let opts = EvalOptions { batch_size: BATCH, ks: PAPER_KS.to_vec(), users: Some(users) };
    let reference = evaluate(&ev.data.in_memory, split, EvalTarget::Test, &opts);
    let got = parity.finish();
    for (name, a, b) in [
        ("HR@10", got.hr_at(10), reference.hr_at(10)),
        ("NDCG@10", got.ndcg_at(10), reference.ndcg_at(10)),
    ] {
        r.check(a.to_bits() == b.to_bits(), || {
            format!("{name} of the loaded model {a} differs from the in-memory model's {b}")
        });
    }
    r.info("parity_hr10", got.hr_at(10));
    r.info("parity_ndcg10", got.ndcg_at(10));

    // Scores of a user sample against a naive dot product with every item
    // embedding, and their ranks against a brute-force ranking.
    let model = &ev.data.loaded;
    let users = &ev.batches[0][..BRUTE_FORCE_USERS];
    let inputs: Vec<Vec<u32>> = users.iter().map(|&u| split.test_input(u)).collect();
    let refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
    let states = model.encode_users(users, &refs);
    let scores = model.score_states(&states);
    let table = model.sasrec().encoder().item_embedding().table().value().data().to_vec();
    let d = model.state_dim();
    for (j, &u) in users.iter().enumerate() {
        let state = &states[j * d..(j + 1) * d];
        let worst = (1..scores[j].len())
            .map(|i| {
                let naive: f64 = state
                    .iter()
                    .zip(&table[i * d..(i + 1) * d])
                    .map(|(a, b)| f64::from(a * b))
                    .sum();
                (f64::from(scores[j][i]) - naive).abs() / (1.0 + naive.abs())
            })
            .fold(0.0f64, f64::max);
        r.check(worst <= 1e-4, || format!("user {u}: catalog score off a naive dot by {worst}"));
        let brute = brute_force_rank(&scores[j], split.test_target(u), &split.user_items(u));
        r.check(brute == first_ranks[j], || {
            format!("user {u}: rank {} but brute force gives {brute}", first_ranks[j])
        });
    }
}

pub fn run(args: &RunArgs, report: &mut Report) {
    let ops = ((args.seconds as f64 * OPS_PER_SECOND).round() as usize).max(MIN_OPS);
    let (ev, setup_s, setup_times) = repeated_setup(SETUP_REPEATS, || setup(args.seed));
    report.info("dataset", format!("beauty@{SCALE}"));
    report.info("users", ev.data.split.num_users());
    report.info("items", ev.data.split.num_items());
    report.info("batch", BATCH);
    report.info("setup_repeats_s", &setup_times);

    let mut clock = LayerClock::new(LAYERS, ops);
    let run = run_ops(ops, args.trace, &mut clock, |i, clock| ev.op(i, clock));
    report.attempted = ops as u64;
    let mut parity = MetricsAccumulator::new(&PAPER_KS);
    for (acc, _) in &run.results[..PARITY_BATCHES] {
        parity.merge(acc);
    }
    check(&ev, &parity, &run.results[0].1, report);
    run.counts.report_info(report);
    if args.trace {
        run.report_layers(report, &clock);
        report.metric("data.generate_s", ev.data.generate_s, "s");
        report.metric("models.checkpoint_load_ms", ev.data.load_ms, "ms");
    } else {
        run.report_end_to_end(report, setup_s, BATCH);
    }
}
