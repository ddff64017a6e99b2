//! Table 3: model processing throughput (packets/s and connections/s) of
//! CLAP vs Baseline #2 (Kitsune), single-threaded as in the paper's
//! one-logical-core setup (§4.4) — plus the fused-vs-unfused inference
//! engine comparison for this reproduction.
//!
//! ```text
//! cargo run -p bench --release --bin exp_throughput -- [--preset quick|ci|paper|scale]
//!     [--threads N] [--shards N] [--quant int8] [--json PATH]
//!     [--check-against REFERENCE.json] [--max-regress 0.20]
//!     [--max-regress-speedup 0.30] [--max-regress-sharded 0.35]
//!     [--max-regress-quant 0.30] [--min-quant-speedup X]
//!     [--min-shard-scaling X]
//!     [--churn-flows N] [--churn-packets N] [--resident f32|int8]
//!     [--max-regress-scale 0.35] [--max-grow-bytes-per-flow 0.25]
//!     [--max-bytes-per-flow BYTES] [--max-telemetry-overhead X]
//!     [--overload-policy block|drop-newest|degrade[:K]] [--fault-plan SPEC]
//!     [--require-no-shed]
//! ```
//!
//! The run also measures the **telemetry tax**: the per-packet streaming
//! engine with live counter cells and stage histograms attached versus
//! detached (the median over many alternating attached/detached pairs),
//! recorded as `telemetry_overhead` = 1 − attached ÷ detached pps.
//! Counters are always compiled in; building with
//! `--features telemetry` additionally pays the 1-in-32 sampled stage
//! clocks, and that build is the one CI gates with
//! `--max-telemetry-overhead` (absolute budget, no reference record
//! needed — both numbers come from one process so machine speed cancels
//! out). The measured sharded run's per-shard counter deltas and stage
//! latency summaries land in the JSON as `shard_telemetry`.
//!
//! `--preset scale` (or an explicit `--churn-flows N`) additionally runs
//! the **churn phase**: `traffic_gen::churn`'s elephant/mice workload —
//! heavy-tailed flow sizes, high arrival rate, a plateau of `--churn-flows`
//! (default 1M) concurrent flows — streamed through one `StreamScorer`
//! whose per-flow state is held in the int8 resident form (`--resident`
//! overrides). The phase records `flows_peak`, sustained `scale_pps`,
//! measured heap `bytes_per_flow` and the eviction counters in the JSON
//! report. Gates: `scale_pps` is machine-relative and gated like the other
//! throughput numbers (`--max-regress-scale` vs the reference record);
//! `bytes_per_flow` is pure data-structure layout, gated both relative to
//! the reference (`--max-grow-bytes-per-flow`) and against the absolute
//! design-budget ceiling (`--max-bytes-per-flow`).
//!
//! `--quant int8` additionally measures the int8 quantized fused engine
//! (`neural::quant`: per-row int8 weights, on-the-fly 7-bit activation
//! quantization, i32-accumulating maddubs/vpdpbusd kernels) on the same
//! corpus and records `clap_quant_pps` / `quant_speedup` (int8 ÷ f32
//! fused pps — machine-independent, like `fusion_speedup`). When the
//! reference records a `quant_speedup`, the gate enforces it under
//! `--max-regress-quant` (and requires `--quant int8` on the measuring
//! run — a reference with a quant record can't be "passed" by simply not
//! measuring).
//!
//! `--min-shard-scaling X` additionally fails the run when the sharded ÷
//! single-thread streaming factor falls below `X` — the only check that
//! catches "sharding silently serialized". It is core-count-dependent
//! (≤ ~1 on one core, ≥ 2.5 expected with 4 shards on 4+ cores), so it is
//! off by default; enable it in CI together with a multi-core-recorded
//! reference.
//!
//! The sharded measurement runs the supervised engine: `--overload-policy`
//! selects the ring-full behaviour (default `block`), `--fault-plan`
//! injects a deterministic fault schedule (see `exp_stream_pcap`), and the
//! per-shard supervision counters (dropped / quarantined / restarts /
//! degraded windows) land in the JSON report. `--require-no-shed` turns
//! those counters into a CI gate: the run exits non-zero when the sharded
//! measurement dropped or quarantined any packet — under the default
//! `block` policy on a healthy engine this must be zero.
//!
//! Writes a machine-readable `BENCH_throughput.json` (override with
//! `--json`) so the performance trajectory is tracked across PRs. Also
//! measures the **streaming** per-flow engine (`exp_stream_throughput`
//! mode): the whole corpus is flattened into one timestamp-ordered packet
//! stream and pushed through a single `StreamScorer` flow table, the
//! arrival order a line-rate tap would see.
//!
//! With `--check-against`, the run doubles as the CI throughput-regression
//! gate: it exits non-zero when fused packets/second — or, when the
//! reference records one, the machine-independent `fusion_speedup` ratio —
//! drop more than `--max-regress` (default 0.20 = 20%) below the
//! reference record. The ratio gate is the second line of defense: CI
//! runner speed drift cancels out of fused ÷ unfused, so a kernel
//! regression cannot hide behind a faster machine. Both gates are still
//! ISA-sensitive (an AVX2-only runner fuses less than an AVX-512 one), so
//! the checked-in `BENCH_reference.json` is recorded with
//! `NEURAL_KERNELS=avx2` — the lowest-common CI ISA — and the ratio gets
//! its own budget (`--max-regress-speedup`, default 0.30) sized so an
//! AVX2 runner passes comfortably while a silent fall-back to the scalar
//! kernels (ratio ≈ 3.1 vs the ≈ 5.3 AVX2 reference) still fails.

use bench::{
    arg_value, check_bytes_per_flow, check_memory_regression, check_quant_floor,
    check_quant_regression, check_scale_regression, check_shard_scaling_floor,
    check_sharded_regression, check_speedup_regression, check_telemetry_overhead,
    check_throughput_regression, evaluate_extended_families, render_table, train_all,
    ExtendedFamilyRow, Preset, ThroughputReference,
};
use clap_core::{
    FaultPlan, OverloadPolicy, QuantMode, ResidentMode, ShardConfig, ShardHealth, Stage,
    StageHists, StreamCells, StreamConfig,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};
use traffic_gen::ChurnConfig;

/// Machine-readable throughput record, one per run.
#[derive(Debug, Serialize)]
struct ThroughputReport {
    preset: String,
    threads: usize,
    connections: usize,
    packets: usize,
    /// Packets/second of the fused allocation-free CLAP engine.
    clap_fused_pps: f64,
    /// Packets/second of the unfused reference CLAP path.
    clap_unfused_pps: f64,
    /// Fused ÷ unfused.
    fusion_speedup: f64,
    /// Packets/second of the streaming per-flow engine (one flow table,
    /// interleaved timestamp-ordered stream).
    clap_stream_pps: f64,
    /// Streaming ÷ fused batch (the price of online per-packet delivery).
    stream_over_batch: f64,
    /// Worker shards of the RSS-sharded streaming measurement.
    shards: usize,
    /// Packets/second of the RSS-sharded multi-queue streaming engine
    /// (`shards` worker threads plus the dispatch thread — deliberately
    /// *not* pinned by `--threads`, which models the paper's single-core
    /// batch setup; sharding exists to use the other cores).
    clap_sharded_pps: f64,
    /// Sharded ÷ single-threaded streaming (the multi-core scaling
    /// factor; bounded by the machine's core count).
    shard_scaling: f64,
    /// Packets/second of the int8 quantized fused engine (`--quant
    /// int8`); `0.0` when the run did not measure it.
    clap_quant_pps: f64,
    /// Int8 ÷ f32 fused packets/second; `0.0` when not measured. (A
    /// record without a real measurement is rejected as a reference —
    /// the gate hard-errors on non-positive values — so an unmeasured
    /// report can never silently weaken the gate.)
    quant_speedup: f64,
    /// Packets shed by the sharded run's overload policy (0 under the
    /// default `block` on a healthy engine; `--require-no-shed` pins it).
    sharded_dropped: u64,
    /// Packets quarantined by shard supervision (panic isolation).
    sharded_quarantined: u64,
    /// Shard restarts performed by the supervisor.
    sharded_restarts: u64,
    /// Saturation windows entered under `degrade` overload handling.
    sharded_degraded_windows: u64,
    /// 1 − (telemetry-attached ÷ detached) single-stream pps: the
    /// measured fractional hot-path cost of the live telemetry plane.
    /// Slightly negative under run-to-run noise. Gated by
    /// `--max-telemetry-overhead`.
    telemetry_overhead: f64,
    /// Per-shard counter deltas and stage latency summaries of the
    /// measured sharded run, straight from the telemetry hub.
    shard_telemetry: Vec<ShardTelemetryRow>,
    baseline1_pps: f64,
    kitsune_pps: f64,
    /// Peak concurrently tracked flows of the churn phase; `0` when the
    /// run did not measure it (same convention as `clap_quant_pps`).
    flows_peak: u64,
    /// Packets/second sustained by the churn phase; `0.0` when not
    /// measured.
    scale_pps: f64,
    /// Measured flow-table heap bytes per peak live flow; `0.0` when not
    /// measured. (Non-positive values are rejected as references, so an
    /// unmeasured report can never weaken the memory gate.)
    bytes_per_flow: f64,
    /// Churn-phase packets pushed.
    scale_packets: u64,
    /// Flows reclaimed by idle (timer-wheel) expiry during the churn
    /// phase.
    scale_evicted_idle: u64,
    /// Flows evicted at the `max_flows` capacity wall during the churn
    /// phase.
    scale_evicted_capacity: u64,
    /// Flows finalized by observed TCP teardown during the churn phase.
    scale_closed_tcp: u64,
    /// Flows still live at the end of the churn phase (drained).
    scale_drained: u64,
    /// Measured detection for the three Extended protocol-diversity attack
    /// families (IPv6 ext-header corruption, UDP length/checksum games,
    /// overlapping-fragment evasion) over mixed v4/v6/TCP/UDP traffic.
    extended_detection: Vec<ExtendedFamilyRow>,
}

/// One shard's slice of the measured sharded run: counter deltas across
/// the timed pass only (the hub is lifetime-cumulative and the warm-up
/// would otherwise double every number), plus per-stage latency
/// summaries. The histograms cannot be delta'd — percentiles aren't
/// subtractive — but warm-up and measured pass are the identical
/// workload, so the cumulative distribution is the measured one. Stage
/// rows carry zero samples unless built with `--features telemetry`.
#[derive(Debug, Serialize)]
struct ShardTelemetryRow {
    shard: usize,
    pushed: u64,
    scored: u64,
    dropped: u64,
    quarantined: u64,
    full_waits: u64,
    stages: Vec<StageLatencyRow>,
}

/// One pipeline stage's latency summary (log2-bucket lower bounds).
#[derive(Debug, Serialize)]
struct StageLatencyRow {
    stage: &'static str,
    samples: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

/// Corpus replays per timed run of the telemetry-overhead pair.
const TELEM_PASSES: usize = 1;
/// Attached/detached pairs measured for the telemetry-overhead median.
/// Many short pairs interleave the two sides at a finer grain than few
/// long ones, so machine-wide throughput drift cancels inside each pair.
const TELEM_PAIRS: usize = 21;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let preset = Preset::from_args(&args);
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let shards: usize = arg_value(&args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let measure_quant = match arg_value(&args, "--quant").as_deref() {
        None => false,
        Some("int8") => true,
        Some(other) => {
            eprintln!("invalid --quant value `{other}` (expected `int8`)");
            std::process::exit(1);
        }
    };
    let json_path =
        arg_value(&args, "--json").unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let policy = match arg_value(&args, "--overload-policy") {
        Some(spec) => OverloadPolicy::parse(&spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => OverloadPolicy::Block,
    };
    let require_no_shed = args.iter().any(|a| a == "--require-no-shed");

    // The paper constrains both pipelines to one logical core; a local
    // rayon pool pins our parallelism the same way.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");

    let models = train_all(&preset);

    // Detection for the Extended protocol-diversity families rides along
    // with the throughput run (the paper's 73 are exp_detection's job):
    // each family only applies to mixed v4/v6/TCP/UDP traffic, scored here
    // against a mixed benign distribution.
    let extended_detection = evaluate_extended_families(&models, &preset);
    println!("\n== Extended families: detection over mixed v4/v6/TCP/UDP traffic ==");
    println!(
        "{}",
        render_table(
            &["Family", "Conns", "AUC", "Detect@5%FPR"],
            &extended_detection
                .iter()
                .map(|r| vec![
                    r.strategy_name.clone(),
                    r.connections.to_string(),
                    format!("{:.3}", r.auc),
                    format!("{:.1}%", r.detection_rate * 100.0),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // Adversarial corpus mirroring §4.4: a mixed bag across strategies.
    let mut corpus = Vec::new();
    for strat in dpi_attacks::registry() {
        let set = bench::adversarial_set(strat, &preset);
        corpus.extend(set.into_iter().map(|r| r.connection));
    }
    let packets: usize = corpus.iter().map(net_packet::Connection::len).sum();
    eprintln!(
        "[{}] corpus: {} connections / {} packets, {} thread(s)",
        preset.name,
        corpus.len(),
        packets,
        threads
    );

    // The streaming engine sees what a tap would: one packet stream,
    // interleaved across all flows, in timestamp order.
    let mut stream: Vec<&net_packet::Packet> =
        corpus.iter().flat_map(|c| c.packets.iter()).collect();
    stream.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));

    let plan = match arg_value(&args, "--fault-plan") {
        Some(spec) => FaultPlan::parse(&spec, stream.len() as u64).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
        None => FaultPlan::none(),
    };
    if !plan.is_empty() {
        clap_core::shard::fault::silence_injected_panics();
        eprintln!(
            "[{}] injecting faults into the sharded run: {:?}",
            preset.name,
            plan.faults()
        );
    }
    // Only a fault-free Block run guarantees the sharded measurement
    // scores every packet; otherwise the accounting invariant replaces
    // the exact count assert.
    let lossless = plan.is_empty() && policy == OverloadPolicy::Block;

    let (fused, quant, unfused, streaming, telem, b1, kitsune) = pool.install(|| {
        // Warm-up pass so one-time costs (page faults, lazy init) don't
        // skew the first measurement. Engine precisions are pinned
        // explicitly so a NEURAL_QUANT override in the environment can't
        // silently turn the f32 baseline into a second int8 run.
        let warm = models.clap.score_connections_with(&corpus, QuantMode::Off);

        let t = Instant::now();
        let s_fused = models.clap.score_connections_with(&corpus, QuantMode::Off);
        let fused = t.elapsed();

        // The int8 quantized fused engine, same corpus, same sharding.
        let quant = measure_quant.then(|| {
            let warm_q = models.clap.score_connections_with(&corpus, QuantMode::Int8);
            let t = Instant::now();
            let s_quant = models.clap.score_connections_with(&corpus, QuantMode::Int8);
            let quant = t.elapsed();
            assert_eq!(s_quant.len(), s_fused.len());
            assert_eq!(warm_q.len(), s_quant.len());
            // Wiring sanity only — int8 must be the same detector, not a
            // different function. The bound is deliberately loose: on
            // adversarial corpora a corrupted field can put an outlier in
            // a profile row, coarsening that row's activation grid and
            // drifting the (far-above-threshold) score by >10%. The
            // calibrated drift and verdict-flip bounds live in the parity
            // test suites, on controlled inputs.
            for (q, f) in s_quant.iter().zip(&s_fused) {
                let rel = (q.score - f.score).abs() / f.score.abs().max(1e-3);
                assert!(
                    rel < 0.25,
                    "int8/f32 divergence: {} vs {} ({:.1}%)",
                    q.score,
                    f.score,
                    rel * 100.0
                );
            }
            // A genuinely quantized engine never reproduces f32 bitwise
            // over a whole corpus; identical scores mean the int8 path
            // silently degraded to f32 — which the relative-ratio gate
            // below could never catch (ratio ≈ 1.0 is inside any sane
            // noise budget).
            assert!(
                s_quant
                    .iter()
                    .zip(&s_fused)
                    .any(|(q, f)| q.score != f.score),
                "int8 scores are bitwise identical to f32 — quantization is disabled"
            );
            quant
        });

        let t = Instant::now();
        let s_unfused = models.clap.score_connections_unfused(&corpus);
        let unfused = t.elapsed();

        let t = Instant::now();
        let mut scorer = models.clap.stream_scorer_with(StreamConfig {
            quant: QuantMode::Off,
            ..StreamConfig::default()
        });
        for p in &stream {
            scorer.push(p);
        }
        let closed = scorer.finish();
        let streaming = t.elapsed();
        let streamed_packets: usize = closed.iter().map(|c| c.packets).sum();
        assert_eq!(
            streamed_packets, packets,
            "streaming must account for every packet"
        );

        // The telemetry tax, measured rather than assumed: the same
        // per-packet streaming run with live counter cells + stage
        // histograms attached vs detached, interleaved as TELEM_PAIRS
        // attached/detached pairs whose per-pair ratios feed a median.
        // (Counters are always compiled; the `telemetry` feature adds
        // the 1-in-32 sampled clock reads to the attached run.)
        //
        // Each timed run replays the corpus TELEM_PASSES times
        // (timestamps shifted to keep the stream clock monotone).
        let telem_stream: Vec<net_packet::Packet> = {
            let span = stream.last().map_or(0.0, |p| p.timestamp) + 1.0;
            (0..TELEM_PASSES)
                .flat_map(|pass| {
                    stream.iter().map(move |p| {
                        let mut q = (*p).clone();
                        q.timestamp += span * pass as f64;
                        q
                    })
                })
                .collect()
        };
        let run_telemetry = |attach: bool| {
            let mut scorer = models.clap.stream_scorer_with(StreamConfig {
                quant: QuantMode::Off,
                ..StreamConfig::default()
            });
            if attach {
                scorer.attach_telemetry(Arc::new(StreamCells::default()));
                scorer.attach_stages(Arc::new(StageHists::default()));
            }
            let t = Instant::now();
            for p in &telem_stream {
                scorer.push(p);
            }
            let closed = scorer.finish();
            let elapsed = t.elapsed();
            let n: usize = closed.iter().map(|c| c.packets).sum();
            assert_eq!(
                n,
                telem_stream.len(),
                "telemetry run must account for every packet"
            );
            elapsed
        };
        // warm-up
        let _ = run_telemetry(true);
        // The estimator is the median of per-pair ratios, not a ratio
        // of per-side minima: the two runs of a pair are adjacent in
        // time, so frequency/thermal drift cancels inside each pair,
        // and the median discards pairs hit by interference — whereas
        // per-side floors can come from different machine states and
        // make the ratio a comparison across them. Which side runs
        // first alternates per pair so cache/scheduler position bias
        // cancels across the median too. Many short pairs beat few long
        // ones for the same total budget: the shorter the pair window,
        // the less machine-wide drift fits inside it.
        let mut telem_off = Duration::MAX;
        let mut telem_on = Duration::MAX;
        let mut overheads = Vec::new();
        for pair in 0..TELEM_PAIRS {
            let (off, on) = if pair % 2 == 0 {
                let off = run_telemetry(false);
                (off, run_telemetry(true))
            } else {
                let on = run_telemetry(true);
                (run_telemetry(false), on)
            };
            overheads.push(1.0 - off.as_secs_f64() / on.as_secs_f64());
            telem_off = telem_off.min(off);
            telem_on = telem_on.min(on);
        }
        overheads.sort_by(f64::total_cmp);
        let telem = (telem_off, telem_on, overheads[overheads.len() / 2]);

        let t = Instant::now();
        let s_b1 = models.baseline1.score_connections(&corpus);
        let b1 = t.elapsed();

        let t = Instant::now();
        let s_k = models.kitsune.score_connections(&corpus);
        let kitsune = t.elapsed();

        assert_eq!(warm.len(), s_fused.len());
        assert_eq!(s_fused.len(), s_unfused.len());
        assert_eq!(s_b1.len(), s_k.len());
        // The two engines must agree, not just run: scoring is only "fast"
        // if it is still computing the same thing.
        for (a, b) in s_fused.iter().zip(&s_unfused) {
            assert!(
                (a.score - b.score).abs() < 1e-5,
                "fused/unfused divergence: {} vs {}",
                a.score,
                b.score
            );
        }
        (fused, quant, unfused, streaming, telem, b1, kitsune)
    });

    // The RSS-sharded streaming engine runs outside the pinned pool: its
    // whole point is to use `shards` worker cores plus the dispatcher.
    // Teardown mirrors the single-stream measurement (flows scored to
    // stream end), so sharded and unsharded do identical per-flow work.
    let sharded_scorer = models.clap.sharded_scorer_with(ShardConfig {
        shards,
        queue_capacity: 1024,
        stream: StreamConfig {
            quant: QuantMode::Off,
            ..StreamConfig::default()
        },
        overload: policy,
        faults: plan.clone(),
        ..ShardConfig::default()
    });
    let supervised_run = || match sharded_scorer.try_score_stream(stream.iter().copied()) {
        Ok(run) => run,
        Err(e) => {
            // Dead or stuck shards degrade the measurement; the partial
            // run still carries the survivors' verdicts and exact stats.
            eprintln!("[{}] DEGRADED SHARDED RUN: {e}", preset.name);
            e.partial
        }
    };
    // Warm-up: first run pays thread spawn + page faults.
    let warm = supervised_run();
    // The hub is lifetime-cumulative; snapshotting around the timed run
    // confines the reported counters to the measured pass.
    let hub = sharded_scorer.telemetry();
    let tel_base = hub.snapshot();
    let t = Instant::now();
    let run = supervised_run();
    let sharded = t.elapsed();
    let tel_end = hub.snapshot();
    ShardHealth::check_accounting(&run.stats).expect("per-shard accounting invariant");
    let health = ShardHealth::of(&run.stats);
    if lossless {
        let sharded_packets: usize = run.verdicts.iter().map(|v| v.flow.packets).sum();
        assert_eq!(
            sharded_packets, packets,
            "sharded streaming must account for every packet"
        );
        assert_eq!(warm.verdicts.len(), run.verdicts.len());
    }
    let stalls: u64 = run.stats.iter().map(|s| s.full_waits).sum();
    eprintln!(
        "[{}] sharded run: {} shards ({} policy), {} flows, {} backpressure stalls",
        preset.name,
        shards,
        policy,
        run.verdicts.len(),
        stalls
    );
    eprintln!("{}", bench::shard_stats_table(&run.stats));
    let shard_telemetry: Vec<ShardTelemetryRow> = tel_end
        .shards
        .iter()
        .zip(&tel_base.shards)
        .enumerate()
        .map(|(i, (e, b))| ShardTelemetryRow {
            shard: i,
            pushed: e.pushed - b.pushed,
            scored: e.scored - b.scored,
            dropped: e.dropped - b.dropped,
            quarantined: e.quarantined - b.quarantined,
            full_waits: e.full_waits - b.full_waits,
            stages: Stage::ALL
                .iter()
                .map(|s| {
                    let sum = e.stages[s.index()];
                    StageLatencyRow {
                        stage: s.name(),
                        samples: sum.count,
                        p50_ns: sum.p50_ns,
                        p99_ns: sum.p99_ns,
                        max_ns: sum.max_ns,
                    }
                })
                .collect(),
        })
        .collect();
    // Stage histograms carry samples only under `--features telemetry`;
    // the table appears exactly when there is something to show.
    if shard_telemetry
        .iter()
        .any(|r| r.stages.iter().any(|s| s.samples > 0))
    {
        let rows: Vec<Vec<String>> = shard_telemetry
            .iter()
            .flat_map(|r| {
                r.stages.iter().filter(|s| s.samples > 0).map(|s| {
                    vec![
                        r.shard.to_string(),
                        s.stage.to_string(),
                        s.samples.to_string(),
                        s.p50_ns.to_string(),
                        s.p99_ns.to_string(),
                        s.max_ns.to_string(),
                    ]
                })
            })
            .collect();
        println!("\n== Per-stage latency (sampled log2 histograms, bucket floors) ==");
        println!(
            "{}",
            render_table(
                &["Shard", "Stage", "Samples", "p50 (ns)", "p99 (ns)", "max (ns)"],
                &rows
            )
        );
    }
    if require_no_shed && health.shed() > 0 {
        eprintln!(
            "SHED GATE FAILED: sharded run dropped {} and quarantined {} packet(s) \
             (policy {policy}); --require-no-shed demands zero",
            health.dropped, health.quarantined
        );
        std::process::exit(1);
    }
    if require_no_shed {
        eprintln!(
            "shed gate OK: 0 dropped / 0 quarantined across {} pushed packets",
            health.pushed
        );
    }

    // The churn phase: a high-arrival-rate elephant/mice workload against
    // a million-flow table, measuring sustained pps and per-flow memory.
    // Runs for `--preset scale` (1M flows unless overridden) or whenever
    // `--churn-flows` is passed explicitly.
    let churn_flows: usize = match arg_value(&args, "--churn-flows") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid --churn-flows value `{v}`");
            std::process::exit(2);
        }),
        None if preset.name == "scale" => 1_000_000,
        None => 0,
    };
    let scale = (churn_flows > 0).then(|| {
        let churn_packets: usize = match arg_value(&args, "--churn-packets") {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid --churn-packets value `{v}`");
                std::process::exit(2);
            }),
            // Ramp (one SYN per packet) plus enough steady-state churn to
            // cycle the mice several times over.
            None => churn_flows.saturating_mul(6),
        };
        let resident = match arg_value(&args, "--resident").as_deref() {
            None | Some("int8") => ResidentMode::Int8,
            Some("f32") => ResidentMode::F32,
            Some(other) => {
                eprintln!("invalid --resident value `{other}` (expected `f32` or `int8`)");
                std::process::exit(2);
            }
        };
        let churn_cfg = ChurnConfig {
            // High arrival rate: at the plateau, live flows see a mean
            // inter-packet gap of concurrent/pps seconds — well inside
            // the idle timeout, so eviction pressure comes from TCP
            // teardown churn, not spurious idle expiry.
            pps: 2_000_000.0,
            ..ChurnConfig::new(preset.seed ^ 0x5ca1e, churn_flows, churn_packets)
        };
        let mut scorer = models.clap.stream_scorer_with(StreamConfig {
            quant: if measure_quant {
                QuantMode::Int8
            } else {
                QuantMode::Off
            },
            resident,
            idle_timeout: 30.0,
            // ~3% headroom above the plateau for abandoned (FIN-less)
            // flows awaiting idle expiry; sized so the slab's capacity
            // clamp stays tight around the measured peak.
            max_flows: churn_flows + churn_flows / 32,
            ..StreamConfig::default()
        });
        eprintln!(
            "[{}] churn phase: {} packets toward a {}-flow plateau ({:?} resident, {:?} weights)…",
            preset.name,
            churn_packets,
            churn_flows,
            resident,
            scorer.quant_mode()
        );
        let mut gen = traffic_gen::churn(&churn_cfg);
        let mut closed_packets: usize = 0;
        let mut pushed: usize = 0;
        let t = Instant::now();
        for p in &mut gen {
            scorer.push(&p);
            pushed += 1;
            // Periodic verdict drain, as a long-running tap would do —
            // otherwise the closed-flow queue, not the flow table, would
            // dominate the memory measurement.
            if pushed.is_multiple_of(65_536) {
                closed_packets += scorer
                    .drain_closed()
                    .iter()
                    .map(|c| c.packets)
                    .sum::<usize>();
            }
        }
        let elapsed = t.elapsed();
        // Memory is sampled at full plateau, before the final flush.
        let mem = scorer.mem_bytes();
        let live = scorer.live_flows();
        closed_packets += scorer.finish().iter().map(|c| c.packets).sum::<usize>();
        let stats = scorer.stats();
        assert_eq!(
            closed_packets, pushed,
            "churn phase must account for every packet"
        );
        assert!(
            stats.flows_peak >= churn_flows,
            "churn phase never reached the {churn_flows}-flow plateau (peak {})",
            stats.flows_peak
        );
        let scale_pps = pushed as f64 / elapsed.as_secs_f64();
        let bytes_per_flow = mem as f64 / stats.flows_peak as f64;
        println!("\n== Flow-table scale: {churn_flows}-flow churn phase ==");
        println!(
            "{}",
            render_table(
                &["Metric", "Value"],
                &[
                    vec!["packets".into(), pushed.to_string()],
                    vec!["sustained pkt/s".into(), format!("{scale_pps:.1}")],
                    vec!["flows_peak".into(), stats.flows_peak.to_string()],
                    vec!["live at end".into(), live.to_string()],
                    vec!["table heap (MB)".into(), format!("{:.1}", mem as f64 / 1e6)],
                    vec!["bytes/flow".into(), format!("{bytes_per_flow:.0}")],
                    vec![
                        "closed by TCP teardown".into(),
                        stats.closed_tcp.to_string()
                    ],
                    vec!["evicted idle".into(), stats.evicted_idle.to_string()],
                    vec![
                        "evicted at capacity".into(),
                        stats.evicted_capacity.to_string(),
                    ],
                    vec!["drained at end".into(), stats.drained.to_string()],
                ],
            )
        );
        (scale_pps, bytes_per_flow, stats, pushed)
    });

    let pps = |elapsed: std::time::Duration| packets as f64 / elapsed.as_secs_f64();
    let cps = |elapsed: std::time::Duration| corpus.len() as f64 / elapsed.as_secs_f64();

    println!("\n== Table 3: model processing throughput ({threads} thread(s)) ==");
    println!("   (paper, 1 core: CLAP 2,162.2 pkt/s / 97.0 conn/s; Kitsune 1,444.5 / 64.8 —");
    println!("    absolute numbers differ by implementation; the shape is CLAP > Kitsune)");
    let mut table = vec![
        vec![
            "CLAP (fused engine)".to_string(),
            format!("{:.1}", pps(fused)),
            format!("{:.1}", cps(fused)),
        ],
        vec![
            "CLAP (unfused reference)".to_string(),
            format!("{:.1}", pps(unfused)),
            format!("{:.1}", cps(unfused)),
        ],
        vec![
            "CLAP (streaming per-flow)".to_string(),
            format!("{:.1}", pps(streaming)),
            format!("{:.1}", cps(streaming)),
        ],
        vec![
            format!("CLAP (sharded streaming, {shards} shards)"),
            format!("{:.1}", pps(sharded)),
            format!("{:.1}", cps(sharded)),
        ],
        vec![
            "Baseline #1".to_string(),
            format!("{:.1}", pps(b1)),
            format!("{:.1}", cps(b1)),
        ],
        vec![
            "Kitsune-lite [17]".to_string(),
            format!("{:.1}", pps(kitsune)),
            format!("{:.1}", cps(kitsune)),
        ],
    ];
    if let Some(q) = quant {
        table.insert(
            1,
            vec![
                "CLAP (fused, int8 quantized)".to_string(),
                format!("{:.1}", pps(q)),
                format!("{:.1}", cps(q)),
            ],
        );
    }
    println!(
        "{}",
        render_table(&["Model", "Packets/Second", "Connections/Second"], &table)
    );
    println!(
        "fusion speedup: {:.2}x (fused {:.1} pkt/s vs unfused {:.1} pkt/s)",
        pps(fused) / pps(unfused),
        pps(fused),
        pps(unfused)
    );
    println!(
        "streaming vs batch: {:.2}x (streaming {:.1} pkt/s vs fused batch {:.1} pkt/s)",
        pps(streaming) / pps(fused),
        pps(streaming),
        pps(fused)
    );
    println!(
        "shard scaling: {:.2}x over 1-thread streaming ({} shards: {:.1} pkt/s vs {:.1} pkt/s)",
        pps(sharded) / pps(streaming),
        shards,
        pps(sharded),
        pps(streaming)
    );
    if let Some(q) = quant {
        println!(
            "quant speedup: {:.2}x (int8 {:.1} pkt/s vs f32 fused {:.1} pkt/s)",
            pps(q) / pps(fused),
            pps(q),
            pps(fused)
        );
    }
    // overhead = 1 − pps_on/pps_off = 1 − elapsed_off/elapsed_on per
    // pair; the reported number is the median pair (computed above).
    let telemetry_overhead = telem.2;
    let telem_pps = |d: Duration| (packets * TELEM_PASSES) as f64 / d.as_secs_f64();
    println!(
        "telemetry overhead: {:+.2}% (median of {} pairs; best attached {:.1} pkt/s, \
         best detached {:.1} pkt/s)",
        telemetry_overhead * 100.0,
        TELEM_PAIRS,
        telem_pps(telem.1),
        telem_pps(telem.0)
    );

    let report = ThroughputReport {
        preset: preset.name.clone(),
        threads,
        connections: corpus.len(),
        packets,
        clap_fused_pps: pps(fused),
        clap_unfused_pps: pps(unfused),
        fusion_speedup: pps(fused) / pps(unfused),
        clap_stream_pps: pps(streaming),
        stream_over_batch: pps(streaming) / pps(fused),
        shards,
        clap_sharded_pps: pps(sharded),
        shard_scaling: pps(sharded) / pps(streaming),
        clap_quant_pps: quant.map_or(0.0, pps),
        quant_speedup: quant.map_or(0.0, |q| pps(q) / pps(fused)),
        sharded_dropped: health.dropped,
        sharded_quarantined: health.quarantined,
        sharded_restarts: health.restarts,
        sharded_degraded_windows: health.degraded_windows,
        telemetry_overhead,
        shard_telemetry,
        baseline1_pps: pps(b1),
        kitsune_pps: pps(kitsune),
        flows_peak: scale.as_ref().map_or(0, |(_, _, s, _)| s.flows_peak as u64),
        scale_pps: scale.as_ref().map_or(0.0, |(p, _, _, _)| *p),
        bytes_per_flow: scale.as_ref().map_or(0.0, |(_, b, _, _)| *b),
        scale_packets: scale.as_ref().map_or(0, |(_, _, _, n)| *n as u64),
        scale_evicted_idle: scale.as_ref().map_or(0, |(_, _, s, _)| s.evicted_idle),
        scale_evicted_capacity: scale.as_ref().map_or(0, |(_, _, s, _)| s.evicted_capacity),
        scale_closed_tcp: scale.as_ref().map_or(0, |(_, _, s, _)| s.closed_tcp),
        scale_drained: scale.as_ref().map_or(0, |(_, _, s, _)| s.drained),
        extended_detection,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&json_path, json).expect("write throughput json");
    eprintln!("wrote {json_path}");

    // CI regression gate: compare fused pps against a checked-in
    // reference record and fail the run past the budget.
    if let Some(ref_path) = arg_value(&args, "--check-against") {
        // An unparseable budget must fail the gate, not silently fall
        // back to the default and enforce the wrong threshold.
        let max_regress: f64 = match arg_value(&args, "--max-regress") {
            Some(v) => match v.parse() {
                Ok(m) => m,
                Err(_) => {
                    eprintln!("regression gate error: invalid --max-regress value `{v}`");
                    std::process::exit(1);
                }
            },
            None => 0.20,
        };
        let reference = match ThroughputReference::load(&ref_path) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("regression gate error: {msg}");
                std::process::exit(1);
            }
        };
        match check_throughput_regression(
            report.clap_fused_pps,
            reference.clap_fused_pps,
            max_regress,
        ) {
            Ok(change) => eprintln!(
                "regression gate OK: fused {:.1} pkt/s vs reference {:.1} pkt/s \
                 ({:+.1}% change, budget -{:.0}%)",
                report.clap_fused_pps,
                reference.clap_fused_pps,
                change * 100.0,
                max_regress * 100.0
            ),
            Err(msg) => {
                eprintln!("THROUGHPUT REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
        // Second, machine-independent gate: the fused ÷ unfused ratio.
        // Runner speed drift shifts both engines equally, so only a
        // kernel regression — or a narrower dispatched ISA — can move
        // this ratio down; the wider default budget absorbs the latter.
        let max_regress_speedup: f64 = match arg_value(&args, "--max-regress-speedup") {
            Some(v) => match v.parse() {
                Ok(m) => m,
                Err(_) => {
                    eprintln!("regression gate error: invalid --max-regress-speedup value `{v}`");
                    std::process::exit(1);
                }
            },
            None => 0.30,
        };
        if let Some(ref_speedup) = reference.fusion_speedup {
            match check_speedup_regression(report.fusion_speedup, ref_speedup, max_regress_speedup)
            {
                Ok(change) => eprintln!(
                    "speedup gate OK: fusion {:.2}x vs reference {:.2}x \
                     ({:+.1}% change, budget -{:.0}%)",
                    report.fusion_speedup,
                    ref_speedup,
                    change * 100.0,
                    max_regress_speedup * 100.0
                ),
                Err(msg) => {
                    eprintln!("THROUGHPUT REGRESSION: {msg}");
                    std::process::exit(1);
                }
            }
        } else {
            eprintln!("speedup gate skipped: reference records no fusion_speedup");
        }
        // Third gate: the RSS-sharded streaming path. Core count and
        // clock both shift this metric, so the checked-in reference is
        // recorded on the smallest supported machine and the budget is
        // wide; what it reliably catches is the sharded path collapsing
        // (serialization, livelock, duplicated work).
        let max_regress_sharded: f64 = match arg_value(&args, "--max-regress-sharded") {
            Some(v) => match v.parse() {
                Ok(m) => m,
                Err(_) => {
                    eprintln!("regression gate error: invalid --max-regress-sharded value `{v}`");
                    std::process::exit(1);
                }
            },
            None => 0.35,
        };
        if let Some(ref_sharded) = reference.clap_sharded_pps {
            match check_sharded_regression(
                report.clap_sharded_pps,
                ref_sharded,
                max_regress_sharded,
            ) {
                Ok(change) => eprintln!(
                    "sharded gate OK: {:.1} pkt/s vs reference {:.1} pkt/s \
                     ({:+.1}% change, budget -{:.0}%)",
                    report.clap_sharded_pps,
                    ref_sharded,
                    change * 100.0,
                    max_regress_sharded * 100.0
                ),
                Err(msg) => {
                    eprintln!("THROUGHPUT REGRESSION: {msg}");
                    std::process::exit(1);
                }
            }
        } else {
            eprintln!("sharded gate skipped: reference records no clap_sharded_pps");
        }
        // Fourth gate: the int8 quantized engine, on the machine-neutral
        // int8 ÷ f32 ratio. A reference that records quantization numbers
        // demands a measuring run — skipping `--quant int8` must fail the
        // gate, not quietly bypass it.
        let max_regress_quant: f64 = match arg_value(&args, "--max-regress-quant") {
            Some(v) => match v.parse() {
                Ok(m) => m,
                Err(_) => {
                    eprintln!("regression gate error: invalid --max-regress-quant value `{v}`");
                    std::process::exit(1);
                }
            },
            None => 0.30,
        };
        if let Some(ref_quant) = reference.quant_speedup {
            if !measure_quant {
                eprintln!(
                    "regression gate error: reference records quant_speedup {ref_quant:.2} \
                     but this run did not pass --quant int8"
                );
                std::process::exit(1);
            }
            match check_quant_regression(report.quant_speedup, ref_quant, max_regress_quant) {
                Ok(change) => eprintln!(
                    "quant gate OK: int8 {:.2}x vs reference {:.2}x \
                     ({:+.1}% change, budget -{:.0}%)",
                    report.quant_speedup,
                    ref_quant,
                    change * 100.0,
                    max_regress_quant * 100.0
                ),
                Err(msg) => {
                    eprintln!("THROUGHPUT REGRESSION: {msg}");
                    std::process::exit(1);
                }
            }
        } else {
            eprintln!("quant gate skipped: reference records no quant_speedup");
        }
        // Fifth gate pair: the churn phase. Engaged only when this run
        // measured it — unlike quant, a reference with scale numbers must
        // not fail the plain `ci` throughput job, which shares the
        // reference file but never runs the (minutes-long) churn phase.
        if let Some((scale_pps, bytes_per_flow, _, _)) = scale {
            let max_regress_scale: f64 = match arg_value(&args, "--max-regress-scale") {
                Some(v) => match v.parse() {
                    Ok(m) => m,
                    Err(_) => {
                        eprintln!("regression gate error: invalid --max-regress-scale value `{v}`");
                        std::process::exit(1);
                    }
                },
                None => 0.35,
            };
            if let Some(ref_scale) = reference.scale_pps {
                match check_scale_regression(scale_pps, ref_scale, max_regress_scale) {
                    Ok(change) => eprintln!(
                        "scale gate OK: {:.1} pkt/s vs reference {:.1} pkt/s \
                         ({:+.1}% change, budget -{:.0}%)",
                        scale_pps,
                        ref_scale,
                        change * 100.0,
                        max_regress_scale * 100.0
                    ),
                    Err(msg) => {
                        eprintln!("THROUGHPUT REGRESSION: {msg}");
                        std::process::exit(1);
                    }
                }
            } else {
                eprintln!("scale gate skipped: reference records no scale_pps");
            }
            let max_grow: f64 = match arg_value(&args, "--max-grow-bytes-per-flow") {
                Some(v) => match v.parse() {
                    Ok(m) => m,
                    Err(_) => {
                        eprintln!(
                            "regression gate error: invalid --max-grow-bytes-per-flow value `{v}`"
                        );
                        std::process::exit(1);
                    }
                },
                None => 0.25,
            };
            if let Some(ref_bpf) = reference.bytes_per_flow {
                match check_memory_regression(bytes_per_flow, ref_bpf, max_grow) {
                    Ok(change) => eprintln!(
                        "memory gate OK: {:.0} bytes/flow vs reference {:.0} \
                         ({:+.1}% change, budget +{:.0}%)",
                        bytes_per_flow,
                        ref_bpf,
                        change * 100.0,
                        max_grow * 100.0
                    ),
                    Err(msg) => {
                        eprintln!("THROUGHPUT REGRESSION: {msg}");
                        std::process::exit(1);
                    }
                }
            } else {
                eprintln!("memory gate skipped: reference records no bytes_per_flow");
            }
        } else if reference.scale_pps.is_some() || reference.bytes_per_flow.is_some() {
            eprintln!(
                "scale gates skipped: reference records scale numbers but this run \
                 did not measure the churn phase (use --preset scale or --churn-flows)"
            );
        }
    }

    // Optional absolute quant floor — independent of any reference
    // record. The relative quant gate runs against the AVX2-recorded
    // reference (~1.11x), whose 30% budget bottoms out below 1.0, so
    // "int8 slower than f32" needs this absolute check; CI passes 1.0.
    if let Some(v) = arg_value(&args, "--min-quant-speedup") {
        let floor: f64 = match v.parse() {
            Ok(f) => f,
            Err(_) => {
                eprintln!("regression gate error: invalid --min-quant-speedup value `{v}`");
                std::process::exit(1);
            }
        };
        if !measure_quant {
            eprintln!("regression gate error: --min-quant-speedup requires --quant int8");
            std::process::exit(1);
        }
        match check_quant_floor(report.quant_speedup, floor) {
            Ok(()) => eprintln!(
                "quant floor gate OK: {:.2}x over f32 fused (floor {:.2}x)",
                report.quant_speedup, floor
            ),
            Err(msg) => {
                eprintln!("THROUGHPUT REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }

    // Optional absolute telemetry-tax ceiling — independent of any
    // reference record: attached and detached runs come from one process
    // back to back, so machine speed cancels out of the ratio and an
    // absolute budget is meaningful everywhere.
    if let Some(v) = arg_value(&args, "--max-telemetry-overhead") {
        let budget: f64 = match v.parse() {
            Ok(b) => b,
            Err(_) => {
                eprintln!("regression gate error: invalid --max-telemetry-overhead value `{v}`");
                std::process::exit(1);
            }
        };
        match check_telemetry_overhead(report.telemetry_overhead, budget) {
            Ok(()) => eprintln!(
                "telemetry overhead gate OK: {:+.2}% within the {:.0}% budget",
                report.telemetry_overhead * 100.0,
                budget * 100.0
            ),
            Err(msg) => {
                eprintln!("THROUGHPUT REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }

    // Optional absolute per-flow memory ceiling — independent of any
    // reference record: the per-flow byte budget is a design property of
    // the slab + resident-int8 layout, so CI pins the absolute number.
    if let Some(v) = arg_value(&args, "--max-bytes-per-flow") {
        let ceiling: f64 = match v.parse() {
            Ok(c) => c,
            Err(_) => {
                eprintln!("regression gate error: invalid --max-bytes-per-flow value `{v}`");
                std::process::exit(1);
            }
        };
        let Some((_, bytes_per_flow, _, _)) = scale else {
            eprintln!(
                "regression gate error: --max-bytes-per-flow requires the churn phase \
                 (use --preset scale or --churn-flows)"
            );
            std::process::exit(1);
        };
        match check_bytes_per_flow(bytes_per_flow, ceiling) {
            Ok(()) => eprintln!(
                "bytes/flow gate OK: {bytes_per_flow:.0} within the {ceiling:.0}-byte ceiling"
            ),
            Err(msg) => {
                eprintln!("THROUGHPUT REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }

    // Optional absolute scaling floor — independent of any reference
    // record, and the only check that catches a silently serialized
    // sharded path (see the module docs for why it ships disabled).
    if let Some(v) = arg_value(&args, "--min-shard-scaling") {
        let floor: f64 = match v.parse() {
            Ok(f) => f,
            Err(_) => {
                eprintln!("regression gate error: invalid --min-shard-scaling value `{v}`");
                std::process::exit(1);
            }
        };
        match check_shard_scaling_floor(report.shard_scaling, floor) {
            Ok(()) => eprintln!(
                "shard scaling gate OK: {:.2}x over 1-thread streaming (floor {:.2}x)",
                report.shard_scaling, floor
            ),
            Err(msg) => {
                eprintln!("THROUGHPUT REGRESSION: {msg}");
                std::process::exit(1);
            }
        }
    }
}
