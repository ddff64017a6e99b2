//! The CLAP engine benchmark: pcap bytes in, verdict frames out.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay|churn|sharded --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's capture from `--seed`, replays it closed-loop
//! through a fresh engine per pass for `--seconds`, checks every verdict,
//! and prints one JSON object as the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
//! per-layer ones. A failed correctness check exits with status 1. See
//! README.md for the workloads, metrics and checks.

mod corpus;
mod engine;
mod stats;
mod sys;
mod trace;

use corpus::{Capture, Setup};
use engine::{Pass, Verdicts};
use net_packet::CanonicalKey;
use stats::{median, percentile, Report};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Replay,
    Churn,
    Sharded,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "replay" => Workload::Replay,
        "churn" => Workload::Churn,
        "sharded" => Workload::Sharded,
        w => return Err(format!("unknown workload `{w}` (replay, churn, sharded)")),
    };
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    // Engine selection is pinned in code (see `engine::stream_config`),
    // and the kernel set is the library's widest-ISA pick for the host;
    // drop the process-wide overrides before anything reads them.
    for var in [
        "NEURAL_QUANT",
        "NEURAL_FORCE_SCALAR",
        "NEURAL_KERNELS",
        "CLAP_MICROBATCH",
    ] {
        std::env::remove_var(var);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    // Capture records offered over the measured passes. Packets the
    // engine drops or quarantines fail the run, so `failed` is 0 in
    // every result that is printed as correct.
    let mut attempted = 0;
    match run(&args, &mut attempted) {
        Ok(report) if report.missing().is_empty() => {
            println!("{}", report.to_json(true, attempted, 0))
        }
        Ok(report) => panic!("metrics not measured: {:?}", report.missing()),
        Err(e) => {
            eprintln!("perfbench: CHECK FAILED: {e}");
            println!("{}", Report::new(&[]).to_json(false, attempted.max(1), 1));
            std::process::exit(1);
        }
    }
}

/// The set-up, built [`SETUP_REPS`] times (all identical) and timed.
struct Built {
    setup: Setup,
    total_s: Vec<f64>,
    corpus_s: Vec<f64>,
    train_s: Vec<f64>,
    encode_s: Vec<f64>,
}

fn fingerprint(setup: &Setup) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    setup.replay.pcap.hash(&mut h);
    if let Some(c) = &setup.churn {
        c.pcap.hash(&mut h);
    }
    setup.clap.to_json().expect("model serializes").hash(&mut h);
    h.finish()
}

fn build(args: &Args) -> Result<Built, String> {
    let (mut total_s, mut corpus_s, mut train_s, mut encode_s) = (vec![], vec![], vec![], vec![]);
    let mut first = None;
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        drop(setup.take()); // release the previous set-up before the next
        let s = corpus::build(args.seed, args.workload == Workload::Churn)?;
        let fp = fingerprint(&s);
        if *first.get_or_insert(fp) != fp {
            return Err("set-up is not deterministic: captures or model differ".into());
        }
        total_s.push(s.total_s());
        corpus_s.push(s.corpus_s);
        train_s.push(s.train_s);
        encode_s.push(s.encode_s);
        setup = Some(s);
    }
    Ok(Built {
        setup: setup.expect("at least one set-up"),
        total_s,
        corpus_s,
        train_s,
        encode_s,
    })
}

/// Checks one pass and returns its verdicts, read back from the sink:
/// every capture record is accounted for (behind a packet handed to the
/// engine, or rejected by the decoder), nothing was shed or quarantined,
/// every packet handed to the engine is in exactly one verdict, and
/// every verdict frame parses back.
fn check(pass: &Pass) -> Result<Verdicts, String> {
    pass.decoder.account()?;
    if pass.dropped + pass.quarantined > 0 {
        return Err(format!(
            "engine shed {} and quarantined {} packets under a lossless policy",
            pass.dropped, pass.quarantined
        ));
    }
    if pass.verdict_packets != pass.packets {
        return Err(format!(
            "verdicts cover {} of {} packets",
            pass.verdict_packets, pass.packets
        ));
    }
    engine::read_back(&pass.sink)
}

/// Verdicts must be byte-identical to the reference pass's.
fn same(verdicts: &Verdicts, reference: &Verdicts, what: &str) -> Result<(), String> {
    let equal = verdicts.len() == reference.len()
        && verdicts.iter().zip(reference).all(|(a, b)| a.1 == b.1);
    if !equal {
        return Err(format!("{what} verdicts differ from the reference pass"));
    }
    Ok(())
}

/// What a run keeps of each measured pass.
struct Timing {
    records: u64,
    wall_s: f64,
    cpu_s: f64,
    /// The pass's per-record latency percentiles.
    p50_us: f64,
    p99_us: f64,
}

impl Timing {
    fn pps(&self) -> f64 {
        self.records as f64 / self.wall_s
    }
}

/// The measured passes of a run (see [`measure`]).
struct Measured {
    /// The run's first pass: single-table on `replay` and `churn`; on
    /// `sharded`, the single-table reference pass of the same capture.
    first: Pass,
    /// Verdicts every pass reproduced.
    reference: Verdicts,
    timings: Vec<Timing>,
    /// Every per-record latency sample of every pass, sorted.
    latency: Vec<f64>,
    /// Resident high-water mark from the start of the passes to the end
    /// of the first measured one.
    peak_rss_mb: f64,
}

impl Measured {
    fn records(&self) -> f64 {
        self.timings.iter().map(|t| t.records as f64).sum()
    }

    /// Records per second over all passes: every record's time counts,
    /// whatever the host was doing at the time (see README.md, "Noise").
    fn pps(&self) -> f64 {
        self.records() / self.timings.iter().map(|t| t.wall_s).sum::<f64>()
    }

    /// The median over the passes of each pass's p99: a burst of host
    /// disturbances that lifts one pass's tail does not set the run's.
    fn p99_us(&self) -> f64 {
        median(&self.timings.iter().map(|t| t.p99_us).collect::<Vec<_>>())
    }

    /// Process CPU time per record over all passes, in microseconds.
    fn cpu_us_per_record(&self) -> f64 {
        self.timings.iter().map(|t| t.cpu_s).sum::<f64>() * 1e6 / self.records()
    }
}

/// Runs fresh-engine passes for `seconds`, and at least `min` of them:
/// single-table for `replay` and `churn`, sharded for `sharded`. Once
/// `min` passes ran, no pass starts that the slowest one so far says
/// would end after `seconds`. Every pass is checked and must reproduce
/// the reference verdicts byte for byte. The reference is the first pass, or on
/// `sharded` a single-table pass of the same capture, so sharded
/// verdicts must equal replay verdicts. The resident high-water mark
/// restarts just before the passes, so the set-up's memory does not set
/// it, and is read after the first measured pass.
fn measure(
    args: &Args,
    seconds: f64,
    min: usize,
    clap: &clap_core::Clap,
    cfg: &clap_core::StreamConfig,
    cap: &Capture,
    attempted: &mut u64,
) -> Result<Measured, String> {
    let sharded = args.workload == Workload::Sharded;
    let scfg = engine::shard_config();
    // The per-pass sample buffer is resident before the mark restarts.
    let mut pass_latency = vec![f64::NAN; cap.records];
    let mut latency = Vec::new();
    let rss_start_mb = sys::reset_peak_rss()?;
    let mut peak_mb = None;
    let (mut first, mut reference) = (None, None);
    if sharded {
        let single = engine::stream_pass(clap, cfg, &cap.pcap, &mut Vec::new());
        reference = Some(check(&single)?);
        first = Some(single);
    }
    let mut timings = Vec::new();
    let mut slowest_s: f64 = 0.0;
    let start = Instant::now();
    while timings.len() < min || start.elapsed().as_secs_f64() + slowest_s < seconds {
        let pass_start = Instant::now();
        pass_latency.clear();
        let mut p = if sharded {
            engine::sharded_pass(clap, &scfg, &cap.pcap, &mut pass_latency)?.0
        } else {
            engine::stream_pass(clap, cfg, &cap.pcap, &mut pass_latency)
        };
        // Later passes reuse what the allocator kept from earlier ones,
        // and slowly fragment it: the mark is the first pass's.
        if peak_mb.is_none() {
            peak_mb = Some(sys::peak_rss_mb()?);
        }
        let v = check(&p)?;
        match &reference {
            Some(r) => same(&v, r, "pass")?,
            None => reference = Some(v),
        }
        pass_latency.sort_by(f64::total_cmp);
        if stats::samples_beyond(pass_latency.len(), 99.0) < 10 {
            return Err("too few latency samples for a p99".to_string());
        }
        let t = Timing {
            records: p.records(),
            wall_s: p.wall_s,
            cpu_s: p.cpu_s,
            p50_us: percentile(&pass_latency, 50.0),
            p99_us: percentile(&pass_latency, 99.0),
        };
        eprintln!(
            "perfbench: pass {}: {:.0} records/s, p50 {:.2} us, p99 {:.2} us",
            timings.len() + 1,
            t.pps(),
            t.p50_us,
            t.p99_us,
        );
        *attempted += t.records;
        slowest_s = slowest_s.max(pass_start.elapsed().as_secs_f64());
        timings.push(t);
        latency.extend_from_slice(&pass_latency);
        if first.is_none() {
            p.sink = Vec::new();
            first = Some(p);
        }
    }
    let peak_mb = peak_mb.expect("at least one pass");
    eprintln!("perfbench: resident {rss_start_mb:.2} MiB at start, {peak_mb:.2} MiB at peak");
    latency.sort_by(f64::total_cmp);
    Ok(Measured {
        first: first.expect("at least one pass"),
        reference: reference.expect("at least one pass"),
        timings,
        latency,
        peak_rss_mb: peak_mb,
    })
}

fn run(args: &Args, attempted: &mut u64) -> Result<Report, String> {
    let built = build(args)?;
    let setup = &built.setup;
    let clap = &setup.clap;
    let churn = args.workload == Workload::Churn;
    let (cap, cfg) = if churn {
        (
            setup.churn.as_ref().expect("churn capture built"),
            engine::churn_config(),
        )
    } else {
        (&setup.replay, engine::replay_config())
    };
    eprintln!(
        "perfbench: workload {:?}, seed {}, {} records, kernels {}, {:?} quantization, {} workers",
        args.workload,
        args.seed,
        cap.records,
        neural::KernelSet::active().name,
        cfg.quant,
        engine::workers(),
    );

    // Detection is measured on the labeled replay capture. On churn
    // (unlabeled) it is measured with churn's int8 engine, which no
    // other workload runs; that pass also warms the int8 kernels.
    let int8_detection = if churn {
        let mut int8 = engine::churn_config();
        int8.max_flows = 1 << 20;
        int8.idle_timeout = 300.0;
        let p = engine::stream_pass(clap, &int8, &setup.replay.pcap, &mut Vec::new());
        Some(engine::detection(&check(&p)?, &setup.replay.labels))
    } else {
        None
    };

    let min = if churn { 2 } else { 3 };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let m = measure(args, seconds, min, clap, &cfg, cap, attempted)?;
    let first = &m.first;
    let reference = &m.reference;
    let (auc, eer, unlabeled, unscored) =
        int8_detection.unwrap_or_else(|| engine::detection(reference, &cap.labels));
    println!(
        "perfbench: seed={} workload={:?} kernels={} connections={} records={} attack_share={:.4} \
         flows={} unlabeled_flows={unlabeled} unscored_connections={unscored} auc={auc:.4} eer={eer:.4}",
        args.seed,
        args.workload,
        neural::KernelSet::active().name,
        cap.connections,
        cap.records,
        cap.attack_connections as f64 / cap.connections.max(1) as f64,
        reference.len(),
    );

    let mut r = Report::new(if args.trace {
        stats::PER_LAYER
    } else {
        stats::END_TO_END
    });
    if args.trace {
        let untraced_pps = m.pps();
        traced(
            args,
            &built,
            cap,
            &cfg,
            first,
            reference,
            untraced_pps,
            &m.latency,
            attempted,
            &mut r,
        )?;
        return Ok(r);
    }
    r.put("setup_s", median(&built.total_s));
    r.put("pps", m.pps());
    r.put("latency_p50_us", percentile(&m.latency, 50.0));
    r.put("latency_p99_us", m.p99_us());
    r.put("cpu_us_per_packet", m.cpu_us_per_record());
    r.put("auc", f64::from(auc));
    r.put("eer", f64::from(eer));
    r.put(
        "bytes_per_flow",
        first.mem_bytes as f64 / first.stats.flows_peak.max(1) as f64,
    );
    r.put("peak_rss_mb", m.peak_rss_mb);
    Ok(r)
}

/// The traced run, after the untraced passes: traced passes for the
/// span sums and the tracing overhead, then the shadow, dispatch, merge
/// and kernel measurements (see `trace`).
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    built: &Built,
    cap: &Capture,
    cfg: &clap_core::StreamConfig,
    reference: &Pass,
    ref_verdicts: &Verdicts,
    untraced_pps: f64,
    latency: &[f64],
    attempted: &mut u64,
    r: &mut Report,
) -> Result<(), String> {
    let clap = &built.setup.clap;
    let clock_ns = trace::clock_overhead_ns();
    let half = args.seconds / 2.0;
    let sharded = args.workload == Workload::Sharded;
    let scfg = engine::shard_config();
    let min = if args.workload == Workload::Churn {
        1
    } else {
        2
    };

    // Traced passes. The sharded engine hides its pushes, so its
    // push-level spans come from one shard's table in isolation: a
    // single-table traced pass over the records shard 0 receives.
    let start = Instant::now();
    let mut traced_time = (0u64, 0.0); // (records, wall seconds) over traced passes
    let mut sum = (0u64, 0u64); // (layer span sum, wall) over traced passes
    let mut cpu = (0u64, 0u64); // (outside scoring, scoring) over traced passes
    let mut last = None;
    let mut passes = 0;
    while passes < min || start.elapsed().as_secs_f64() < half {
        passes += 1;
        let (p, sp) = if sharded {
            engine::sharded_pass(clap, &scfg, &cap.pcap, &mut Vec::new())?
        } else {
            trace::traced_stream_pass(clap, cfg, corpus::records(&cap.pcap))
        };
        same(&check(&p)?, ref_verdicts, "traced")?;
        *attempted += p.records();
        traced_time.0 += p.records();
        traced_time.1 += p.wall_s;
        sum.0 += sp.parse_ns + sp.push_ns + sp.emit_ns + sp.finish_ns;
        sum.1 += sp.wall_ns;
        cpu.0 += sp.cpu_ns - sp.scoring_cpu_ns;
        cpu.1 += sp.scoring_cpu_ns;
        last = Some((p, sp));
    }
    // Over all traced passes, as `pps` is over all untraced ones.
    let traced_pps = traced_time.0 as f64 / traced_time.1;
    let (last, last_spans) = last.expect("one traced pass");
    let decoder = &last.decoder;
    let shards = &last.shards; // empty on single-table workloads
    let parse_ns = last_spans.parse_ns;
    let workers = engine::workers();
    let sp = if sharded {
        let shard0 = corpus::records(&cap.pcap).filter(|(ts, b)| {
            net_packet::Packet::from_bytes(*ts, b)
                .map_or(true, |p| CanonicalKey::of(&p).shard_of(workers) == 0)
        });
        let (p, sp) = trace::traced_stream_pass(clap, cfg, shard0);
        check(&p)?;
        sp
    } else {
        last_spans
    };
    let layers = trace::shadow_pass(clap, cfg, &cap.pcap, clock_ns);
    let kernels = trace::kernels(clap.config.stack * clap_core::PROFILE_LEN);
    let dispatch_ns = trace::dispatch_ns(&cap.pcap, workers, clock_ns);
    let merge_s = trace::merge_s(&sp.emitted);

    let packets = reference.packets.max(1) as f64;
    let push_ns = (sp.push_ns as f64 / sp.pushes.len().max(1) as f64 - clock_ns).max(0.0);
    let windows_per_packet = reference.windows as f64 / packets;
    let per_call = |(total, n): (u64, u64)| {
        if n == 0 {
            0.0
        } else {
            (total as f64 / n as f64 - clock_ns).max(0.0)
        }
    };
    let stats = last.stats; // summed over shards on `sharded`
    let shard_sum = |f: fn(&clap_core::ShardStats) -> u64| shards.iter().map(f).sum::<u64>() as f64;

    r.put("corpus.connections", cap.connections as f64);
    r.put("corpus.records", cap.records as f64);
    r.put(
        "corpus.attack_share",
        cap.attack_connections as f64 / cap.connections.max(1) as f64,
    );
    r.put("corpus.flows", ref_verdicts.len() as f64);
    r.put("latency.samples", latency.len() as f64);
    let (tail_pct, tail_us, _) = stats::tail_percentile(latency, &[50.0, 90.0, 99.0, 99.9, 99.99])
        .ok_or("too few latency samples")?;
    r.put("latency.tail_pct", tail_pct);
    r.put("latency.tail_us", tail_us);
    r.put(
        "failed_share",
        (decoder.rejected() + last.dropped + last.quarantined) as f64
            / decoder.offered.max(1) as f64,
    );

    r.put("trace.untraced_pps", untraced_pps);
    r.put("trace.traced_pps", traced_pps);
    r.put("trace.overhead_share", 1.0 - traced_pps / untraced_pps);
    r.put("trace.wall_s", sum.1 as f64 / 1e9);
    r.put("trace.layer_sum_s", sum.0 as f64 / 1e9);
    r.put(
        "trace.unattributed_share",
        1.0 - sum.0 as f64 / sum.1.max(1) as f64,
    );
    r.put("trace.clock_ns", clock_ns);

    r.put(
        "net-packet.parse_ns_per_record",
        parse_ns as f64 / decoder.offered.max(1) as f64,
    );
    r.put("net-packet.rejected", decoder.rejected() as f64);
    r.put("net-packet.reassembled", decoder.reassembled as f64);
    r.put("tcp-state.track_ns_per_packet", layers.track_ns);
    r.put("features.extract_ns_per_packet", layers.extract_ns);
    r.put("neural.gru_step_ns", layers.gru_ns);
    r.put("neural.ae_window_ns", layers.ae_ns);
    r.put("neural.ae_windows_per_packet", windows_per_packet);
    r.put("neural.kernel_dot4_ns", kernels.dot4_ns);
    r.put("neural.kernel_dot4_i8_ns", kernels.dot4_i8_ns);
    r.put("neural.kernel_encode_dot4_ns", kernels.encode_dot4_ns);

    let slowest = sp
        .pushes
        .iter()
        .max_by_key(|p| p.0)
        .copied()
        .unwrap_or((1, 1));
    r.put("stream.push_ns", push_ns);
    r.put(
        "stream.unattributed_ns_per_packet",
        push_ns
            - layers.track_ns
            - layers.extract_ns
            - layers.gru_ns
            - layers.ae_ns * windows_per_packet,
    );
    r.put("stream.sweep_push_ns", per_call(sp.sweep));
    r.put("stream.finalize_push_ns", per_call(sp.finalize));
    r.put("stream.finish_ms", sp.finish_ns as f64 / 1e6);
    r.put("stream.push_max_us", slowest.0 as f64 / 1e3);
    r.put("stream.flows_peak", stats.flows_peak as f64);
    r.put("stream.evicted_idle", stats.evicted_idle as f64);
    r.put("stream.evicted_capacity", stats.evicted_capacity as f64);
    r.put("stream.closed_tcp", stats.closed_tcp as f64);
    r.put("stream.drained", stats.drained as f64);
    r.put("tail.oncpu_share", trace::tail_oncpu_share(&sp.pushes));
    r.put(
        "tail.max_push_oncpu_share",
        slowest.1 as f64 / slowest.0.max(1) as f64,
    );
    r.put("sched.involuntary_switches", sp.involuntary_switches as f64);

    r.put("shard.workers", shards.len() as f64);
    r.put("shard.dispatch_ns_per_packet", dispatch_ns);
    r.put("shard.full_waits", shard_sum(|s| s.full_waits));
    r.put("shard.merge_ms", merge_s * 1e3);
    r.put("shard.dispatcher_cpu_s", cpu.0 as f64 / 1e9);
    r.put("shard.worker_cpu_s", cpu.1 as f64 / 1e9);
    r.put("shard.pushed", shard_sum(|s| s.pushed));
    r.put("shard.scored", shard_sum(|s| s.packets));
    r.put("shard.dropped", shard_sum(|s| s.dropped));
    r.put("shard.quarantined", shard_sum(|s| s.quarantined));
    r.put(
        "shard.pushed_max_share",
        shards.iter().map(|s| s.pushed).max().unwrap_or(0) as f64
            / shard_sum(|s| s.pushed).max(1.0),
    );

    r.put(
        "wire.verdict_encode_ns",
        (sp.emit_ns as f64 / sp.emitted.len().max(1) as f64 - clock_ns).max(0.0),
    );
    r.put("wire.verdicts", sp.emitted.len() as f64);

    r.put("setup.corpus_s", median(&built.corpus_s));
    r.put("setup.train_s", median(&built.train_s));
    r.put("setup.pcap_encode_s", median(&built.encode_s));
    Ok(())
}
