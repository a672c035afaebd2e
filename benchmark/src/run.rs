//! The round driver: runs a workload's rounds, takes the end-to-end
//! measurements around them from outside, and — in the traced pass —
//! records spans, runs the twins and assembles the per-layer table.

use std::ops::Range;
use std::time::Instant;

use crate::harness::{
    median, quantile_sorted, reset_peak_rss, settle_threads, status_kb, tail, AllocCount, CpuSpent,
    CpuWindow, Placement,
};
use crate::json::{obj, Value};
use crate::layers::SpanStats;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::trace::{self, Span};
use crate::workload::{Ledger, Sizes, Tally, Variant, Workload, PLATFORM};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seeds the input generator only.
    pub seed: u64,
    /// How long the run measures; sets the number of fixed-size rounds.
    pub seconds: u64,
    /// Traced pass (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// One tiny round, every check, no result file.
    pub smoke: bool,
    /// Test hook: corrupt the reference reply of this op.
    pub corrupt_op: Option<usize>,
}

/// A finished run of one workload.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Every reply matched and every whole-run check held.
    pub correct: bool,
    /// Checked ops.
    pub attempted: u64,
    /// Ops with a wrong, missing or duplicated reply.
    pub failed: u64,
    /// The pass's metrics in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Everything else worth keeping: rounds, sample counts, flags.
    pub detail: Value,
}

/// The loaded phase of one instance, measured from outside.
struct Loaded {
    tally: Tally,
    wall_ns: u64,
    cpu: CpuSpent,
    process_allocs: AllocCount,
    generator_allocs: AllocCount,
}

impl Loaded {
    fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.tally.attempted().max(1) as f64
    }
    fn cpu_ns_per_op(&self) -> f64 {
        self.per_op(self.cpu.process.run_ns)
    }
}

fn measure_loaded<W: Workload>(
    w: &mut W,
    inputs: &W::Inputs,
    ops: Range<usize>,
    latencies: Option<&mut Vec<u64>>,
) -> Loaded {
    // The /proc reads of the CPU window allocate, so the allocation
    // snapshots sit inside it and the clock inside those.
    let cpu = CpuWindow::open();
    let (p0, g0) = (AllocCount::process(), AllocCount::this_thread());
    let started = Instant::now();
    let tally = w.loaded(inputs, ops, latencies);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let (p1, g1) = (AllocCount::process(), AllocCount::this_thread());
    Loaded {
        tally,
        wall_ns,
        cpu: cpu.close(wall_ns),
        process_allocs: p1.since(p0),
        generator_allocs: g1.since(g0),
    }
}

/// One round: a fresh instance, warm-up, solo, loaded, teardown.
struct Round {
    setup_s: f64,
    /// `VmHWM` when the round ended, and whether the watermark was
    /// restarted when it began.
    peak_rss_kb: u64,
    own_peak: bool,
    /// Median per-op latency of the solo phase, ns.
    solo_p50_ns: u64,
    loaded: Loaded,
    /// Ascending submit→reply latencies of the loaded phase (traced
    /// rounds only).
    loaded_ns: Vec<u64>,
    /// All phases.
    tally: Tally,
    ledger: Ledger,
    placement: Placement,
    spans: Vec<Span>,
}

/// Runs one round. The solo phase's per-op latencies are appended to
/// `solo_samples`, which the caller sized and touched up front: a
/// buffer growing round by round would show as creeping RSS.
fn round<W: Workload>(
    inputs: &W::Inputs,
    sizes: Sizes,
    traced: bool,
    solo_samples: &mut Vec<u32>,
) -> Round {
    if traced {
        trace::enable(sizes.solo * W::SPANS_PER_OP);
    }
    let own_peak = reset_peak_rss();
    let started = Instant::now();
    let mut w = W::setup(inputs, Variant::Default);
    let placement = settle_threads();
    trace::set_recording(false);
    let mut tally = Tally::default();
    for op in 0..sizes.warmup {
        tally.add(w.solo(inputs, op));
    }
    let setup_s = started.elapsed().as_secs_f64();

    trace::set_recording(traced);
    let first_sample = solo_samples.len();
    for op in sizes.warmup..sizes.warmup + sizes.solo {
        let t = Instant::now();
        tally.add(w.solo(inputs, op));
        solo_samples.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
    }
    trace::set_recording(false);
    let mine = &mut solo_samples[first_sample..];
    mine.sort_unstable();
    let solo_p50_ns = u64::from(
        mine.get(mine.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0),
    );
    if traced {
        // A traced op's wall time includes its shadows; the op spans
        // carry the traced latency instead.
        solo_samples.truncate(first_sample);
    }

    let mut loaded_ns = Vec::with_capacity(if traced { sizes.loaded } else { 0 });
    let loaded = measure_loaded(
        &mut w,
        inputs,
        sizes.warmup + sizes.solo..sizes.total(),
        traced.then_some(&mut loaded_ns),
    );
    loaded_ns.sort_unstable();
    tally.add(loaded.tally);
    let ledger = w.finish(inputs, sizes.total() as u64);
    Round {
        peak_rss_kb: status_kb("VmHWM").unwrap_or(0),
        own_peak,
        setup_s,
        solo_p50_ns,
        loaded,
        loaded_ns,
        tally,
        ledger,
        placement,
        spans: if traced { trace::take() } else { Vec::new() },
    }
}

impl Round {
    /// The nine end-to-end values of this round, in catalogue order.
    fn end_to_end(&self) -> [f64; 9] {
        let ops = self.tally.attempted().max(1) as f64;
        let device_us = PLATFORM.us_from_cycles(self.tally.cycles);
        [
            self.setup_s,
            self.solo_p50_ns as f64 / 1e3,
            self.loaded.tally.ok as f64 * 1e9 / self.loaded.wall_ns.max(1) as f64,
            self.loaded.cpu_ns_per_op(),
            self.loaded.per_op(self.loaded.process_allocs.allocs),
            self.loaded.per_op(self.loaded.process_allocs.bytes),
            self.peak_rss_kb as f64,
            self.tally.cycles as f64 / ops,
            (device_us + self.ledger.link_virtual_us as f64) / ops,
        ]
    }
}

/// Rounds per second of `--seconds`: a round is sized to about a sixth
/// of a second on the reference box. Many short rounds rather than few
/// long ones, because each fresh host draws its own heap and cache
/// layout and a round's throughput moves by several percent with it;
/// the median over sixty draws is what repeats.
const ROUNDS_PER_SECOND: u64 = 6;

/// Runs one workload.
pub fn execute<W: Workload>(opts: &Options) -> Outcome {
    let sizes = W::sizes(opts.smoke);
    let mut inputs = W::inputs(opts.seed, sizes);
    if let Some(op) = opts.corrupt_op {
        W::corrupt(&mut inputs, op);
    }
    let fingerprint = W::fingerprint(&inputs);
    // The number of fixed-size rounds depends on `--seconds` and
    // nothing else, which is what lets count and memory metrics repeat
    // exactly. The traced pass makes a third as many pairs of
    // (reference, traced) rounds; the rest of its time goes to twins.
    let rounds = match (opts.smoke, opts.trace) {
        (true, _) => 1,
        (false, false) => (opts.seconds * ROUNDS_PER_SECOND) as usize,
        (false, true) => (opts.seconds * ROUNDS_PER_SECOND / 3).max(1) as usize,
    };
    // Written once so every page is resident before the first round.
    let mut solo_samples = vec![1u32; rounds * sizes.solo];
    solo_samples.clear();
    let budget = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut extras: Vec<(&'static str, f64)> = Vec::new();

    if opts.trace {
        // Reference and traced rounds alternate, so the overhead is a
        // difference between neighbours.
        for _ in 0..rounds {
            plain.push(round::<W>(&inputs, sizes, false, &mut solo_samples));
            traced.push(round::<W>(&inputs, sizes, true, &mut solo_samples));
        }
        if let Some((variant, metric)) = W::TWIN {
            extras.push((metric, twin_cpu_delta::<W>(&inputs, sizes, variant)));
        }
        extras.extend(W::extras(&inputs, sizes));
    } else {
        for done in 0..rounds {
            // A box much slower than the reference stops early rather
            // than overrun its caller; the result says how many rounds
            // it got.
            if done >= 2 && budget.elapsed().as_secs() > 2 * opts.seconds {
                break;
            }
            plain.push(round::<W>(&inputs, sizes, false, &mut solo_samples));
        }
    }

    let all = plain.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|r| r.tally.attempted()).sum();
    let failed: u64 = all.clone().map(|r| r.tally.failed).sum();
    let violations: Vec<Value> = all
        .clone()
        .filter_map(|r| r.ledger.violation.clone())
        .map(Value::from)
        .collect();
    let correct = failed == 0 && violations.is_empty();

    let per_round: Vec<[f64; 9]> = plain.iter().map(Round::end_to_end).collect();
    let e2e: Vec<(&'static str, f64)> = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let column: Vec<f64> = per_round.iter().map(|r| r[i]).collect();
            (m.name, median(&column))
        })
        .collect();

    let mut solo_all: Vec<u64> = solo_samples.iter().map(|ns| u64::from(*ns)).collect();
    solo_all.sort_unstable();
    let solo_tail = tail(&solo_all);
    let mut detail = vec![
        ("rounds", Value::from(plain.len())),
        ("traced_rounds", Value::from(traced.len())),
        (
            "round_sizes",
            obj([
                ("warmup", Value::from(sizes.warmup)),
                ("solo", Value::from(sizes.solo)),
                ("loaded", Value::from(sizes.loaded)),
            ]),
        ),
        (
            "input_fingerprint",
            Value::from(format!("{fingerprint:016x}")),
        ),
        (
            "pinned",
            Value::from(all.clone().all(|r| r.placement.pinned)),
        ),
        (
            "sched_batch",
            Value::from(all.clone().all(|r| r.placement.batch)),
        ),
        (
            "peak_rss_per_round",
            Value::from(plain.iter().all(|r| r.own_peak)),
        ),
        (
            "cpu_basis",
            Value::from(plain.first().map_or("none", |r| r.loaded.cpu.basis)),
        ),
        ("violations", Value::Arr(violations)),
        (
            "rss_at_end_kb",
            obj(["VmHWM", "VmRSS", "RssAnon", "RssFile"]
                .map(|field| (field, Value::from(status_kb(field).unwrap_or(0))))),
        ),
        (
            "solo_tail",
            obj([
                ("percentile", Value::from(solo_tail.percentile)),
                ("us", Value::from(solo_tail.value as f64 / 1e3)),
                ("samples", Value::from(solo_tail.samples)),
            ]),
        ),
        (
            "per_round",
            Value::Arr(
                per_round
                    .iter()
                    .map(|r| {
                        obj(END_TO_END
                            .iter()
                            .zip(r)
                            .map(|(m, v)| (m.name, Value::from(*v))))
                    })
                    .collect(),
            ),
        ),
    ];

    let metrics = if opts.trace {
        let layer = per_layer(&plain, &traced, &extras, &solo_all);
        detail.push((
            "end_to_end_reference",
            obj(e2e.iter().map(|(n, v)| (*n, Value::from(*v)))),
        ));
        if let Some(first) = traced.first() {
            detail.push(("trace", trace_excerpt(&first.spans, W::NAME, opts.seed)));
        }
        layer
    } else {
        e2e
    };
    Outcome {
        workload: W::NAME,
        correct,
        attempted,
        failed,
        metrics,
        detail: obj(detail),
    }
}

/// Spans of the first ops of a traced round, as the trace file.
fn trace_excerpt(spans: &[Span], workload: &str, seed: u64) -> Value {
    const OPS_WRITTEN: u32 = 500;
    let first_op = spans.first().map_or(0, |s| s.op);
    let keep = spans
        .iter()
        .position(|s| s.op >= first_op + OPS_WRITTEN)
        .unwrap_or(spans.len());
    trace::to_json(&spans[..keep], workload, seed, spans.len())
}

/// CPU per op of the default instance minus that of its twin, on the
/// same loaded ops, alternating so drift hits both sides alike.
fn twin_cpu_delta<W: Workload>(inputs: &W::Inputs, sizes: Sizes, variant: Variant) -> f64 {
    const PAIRS: usize = 3;
    let chunk = (sizes.loaded / 2).max(1);
    let mut default = W::setup(inputs, Variant::Default);
    let mut twin = W::setup(inputs, variant);
    settle_threads();
    for op in 0..sizes.warmup {
        default.solo(inputs, op);
        twin.solo(inputs, op);
    }
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let mut next = sizes.warmup;
    for _ in 0..PAIRS {
        let ops = next..next + chunk;
        next += chunk;
        with.push(measure_loaded(&mut default, inputs, ops.clone(), None).cpu_ns_per_op());
        without.push(measure_loaded(&mut twin, inputs, ops, None).cpu_ns_per_op());
    }
    default.finish(inputs, next as u64);
    twin.finish(inputs, next as u64);
    median(&with) - median(&without)
}

/// Assembles the per-layer table of the traced pass.
fn per_layer(
    plain: &[Round],
    traced: &[Round],
    extras: &[(&'static str, f64)],
    solo_all: &[u64],
) -> Vec<(&'static str, f64)> {
    let mut table: Vec<(&'static str, Vec<f64>)> =
        PER_LAYER.iter().map(|m| (m.name, Vec::new())).collect();
    // A zero is "this round has no sample for it", never a sample:
    // metrics come from several sources and an untouched source must
    // not drag a median down. A metric with no samples prints 0.
    let mut put = |name: &'static str, value: f64| {
        let slot = table.iter_mut().find(|(n, _)| *n == name);
        let (_, values) = slot.unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        if value != 0.0 {
            values.push(value);
        }
    };
    let solo_p50_ns = quantile_sorted(solo_all, 0.5) as f64;
    let span_cost_ns = trace::span_cost_ns();
    for r in traced {
        let stats = SpanStats::new(&r.spans, span_cost_ns);
        for (name, value) in stats.metrics() {
            put(name, value);
        }
        for (name, value) in &r.ledger.layers {
            put(name, *value);
        }
        let l = &r.loaded;
        let workers = l.cpu.process.since(l.cpu.generator);
        put(
            "host.dispatch.worker_cpu_ns_per_op",
            l.per_op(workers.run_ns),
        );
        put(
            "host.dispatch.generator_cpu_ns_per_op",
            l.per_op(l.cpu.generator.run_ns),
        );
        put("host.dispatch.wakeups_per_op", l.per_op(workers.slices));
        put(
            "host.dispatch.worker_allocs_per_op",
            l.per_op(l.process_allocs.allocs - l.generator_allocs.allocs),
        );
        put(
            "bench.loaded.p99_us",
            quantile_sorted(&r.loaded_ns, 0.99) as f64 / 1e3,
        );
        put("trace.spans_recorded", r.spans.len() as f64);
        if solo_p50_ns > 0.0 {
            let traced_p50 = quantile_sorted(&stats.op_durations, 0.5) as f64;
            put(
                "trace.overhead_pct",
                (traced_p50 - solo_p50_ns) / solo_p50_ns * 100.0,
            );
            put(
                "bench.solo.ledger_gap_pct",
                (stats.ledger_ns() - solo_p50_ns) / solo_p50_ns * 100.0,
            );
        }
    }
    // Teardown statistics of the reference rounds are the same counts;
    // they add samples where the traced rounds left none.
    for r in plain {
        for (name, value) in &r.ledger.layers {
            put(name, *value);
        }
    }
    put(
        "bench.solo.p99_us",
        quantile_sorted(solo_all, 0.99) as f64 / 1e3,
    );
    for (name, value) in extras {
        put(name, *value);
    }
    let mut out: Vec<(&'static str, f64)> = table
        .into_iter()
        .map(|(name, values)| {
            (
                name,
                if values.is_empty() {
                    0.0
                } else {
                    median(&values)
                },
            )
        })
        .collect();
    // Derived from two medians rather than measured per round.
    let get = |out: &[(&'static str, f64)], name: &str| {
        out.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let (run_ns, insns) = (
        get(&out, "rbpf.vm.run_ns"),
        get(&out, "rbpf.vm.insns_per_op"),
    );
    if insns > 0.0 {
        if let Some(slot) = out.iter_mut().find(|(n, _)| *n == "rbpf.vm.ns_per_insn") {
            slot.1 = run_ns / insns;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// The flags this binary was compiled with.
pub const RUSTFLAGS: &str = env!("FC_BENCH_RUSTFLAGS");
/// The flag that makes two builds of one source agree (README).
pub const ALIGN_FLAG: &str = "align-all-functions=6";

/// Whether the build is layout-robust.
pub fn aligned_build() -> bool {
    RUSTFLAGS.contains(ALIGN_FLAG)
}

fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Short commit id of the tree the binary was built from, or `nogit`.
pub fn git_sha() -> String {
    git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "nogit".to_owned())
}

/// Who and what produced a result.
pub fn provenance(opts: &Options) -> Value {
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    obj([
        ("git_sha", Value::from(git_sha())),
        ("dirty", dirty.map_or(Value::Null, Value::from)),
        ("rustc", Value::from(env!("FC_BENCH_RUSTC"))),
        ("rustflags", Value::from(RUSTFLAGS)),
        ("nproc", Value::from(u64::from(crate::harness::cpu_count()))),
        (
            "fixed_address_space",
            Value::from(crate::harness::fix_address_space()),
        ),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("trace", Value::from(opts.trace)),
        ("smoke", Value::from(opts.smoke)),
    ])
}

impl Outcome {
    /// The one-line summary the caller's contract asks for.
    pub fn summary(&self) -> Value {
        obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "metrics",
                obj(self.metrics.iter().map(|(name, value)| {
                    (
                        *name,
                        obj([
                            ("value", Value::from(*value)),
                            ("unit", Value::from(unit_of(name).unwrap_or(""))),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!(
                "{:<18} {:<42} {:>16.4} {}\n",
                self.workload,
                name,
                value,
                unit_of(name).unwrap_or("")
            ));
        }
        if let Some(fingerprint) = self.detail.get("input_fingerprint").and_then(Value::as_str) {
            out.push_str(&format!(
                "{:<18} input_fingerprint {fingerprint}\n",
                self.workload
            ));
        }
        out.push_str(&format!(
            "{:<18} attempted {} failed {} correct {}\n",
            self.workload, self.attempted, self.failed, self.correct
        ));
        out
    }

    /// The result file: summary, provenance and detail.
    pub fn result_file(&self, opts: &Options) -> Value {
        let Value::Obj(mut members) = self.summary() else {
            unreachable!("summary is an object");
        };
        members.insert(0, ("workload".to_owned(), Value::from(self.workload)));
        members.push(("provenance".to_owned(), provenance(opts)));
        // The trace goes to a file of its own.
        let detail = match &self.detail {
            Value::Obj(d) => Value::Obj(d.iter().filter(|(k, _)| k != "trace").cloned().collect()),
            other => other.clone(),
        };
        members.push(("detail".to_owned(), detail));
        Value::Obj(members)
    }
}
