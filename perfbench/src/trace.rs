//! The traced run: spans around the calls the benchmark makes into each
//! layer's public API, timed from here — nothing inside the engine
//! crates is instrumented.
//!
//! Three kinds of measurement, all on the workload's own capture:
//!
//! * a **traced pass** ([`traced_stream_pass`]) — the untraced loop of
//!   [`crate::engine::stream_pass`] with a span around parse, push,
//!   verdict writing and the final flush, plus the thread's CPU clock
//!   around every push (`engine::sharded_pass` records the sharded
//!   counterpart, with spans at the engine-call boundary). Its span sum
//!   is reconciled against its wall time.
//! * a **shadow pass** ([`shadow_pass`]) that replays the same packets
//!   through the layers `StreamScorer::push` is built from — tcp-state
//!   tracking, feature extraction, the GRU step, the autoencoder window
//!   — one timed call each, to split push time by layer.
//! * **kernel timings** ([`kernels`]) of the SIMD dot products at the
//!   detector's shapes, and a shadow of the sharded front end's dispatch
//!   and merge steps ([`dispatch_ns`], [`merge_s`]).

use crate::corpus;
use crate::engine::{Decoder, Pass, SWEEP_INTERVAL};
use crate::sys;
use clap_core::shard::spsc::Ring;
use clap_core::{Clap, ClosedFlow, FeatureExtractor, FeatureVector, ShardVerdict, StreamConfig};
use clap_core::{NUM_PACKET, PROFILE_LEN};
use net_packet::{CanonicalKey, Direction, Endpoint, FlowKey, Packet};
use neural::{
    dequantize_activations_into, quantize_activations, AeEngine, AeWorkspace, GruEngine,
    GruStepScratch, KernelSet, Matrix,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use tcp_state::{FlowTracker, TcpState};

/// Cost of one empty `Instant` span (interquartile mean), subtracted
/// from per-call means.
pub fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..4000)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    let mid = &v[v.len() / 4..v.len() * 3 / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Span totals of one traced pass.
#[derive(Default)]
pub struct Spans {
    pub parse_ns: u64,
    pub push_ns: u64,
    pub emit_ns: u64,
    pub finish_ns: u64,
    pub wall_ns: u64,
    /// CPU time of the pass (all threads), and the part of it spent
    /// scoring: inside `push`, or in the sharded engine's workers.
    pub cpu_ns: u64,
    pub scoring_cpu_ns: u64,
    /// Wall and CPU time of every push.
    pub pushes: Vec<(u64, u64)>,
    /// Push time of pushes that advanced the expiry wheel, and count.
    pub sweep: (u64, u64),
    /// Push time of pushes that finalized at least one flow, and count.
    pub finalize: (u64, u64),
    pub involuntary_switches: u64,
    /// Verdicts in emission order, for the merge shadow.
    pub emitted: Vec<ClosedFlow>,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// [`crate::engine::stream_pass`] with spans (see the module docs): the
/// push span covers `push` and the `drain_closed` that collects what it
/// finalized; the emit span only the verdict writes.
pub fn traced_stream_pass<'p>(
    clap: &Clap,
    cfg: &StreamConfig,
    records: impl Iterator<Item = (f64, &'p [u8])>,
) -> (Pass, Spans) {
    let mut pass = Pass::default();
    let mut sp = Spans::default();
    let mut scorer = clap.stream_scorer_with(cfg.clone());
    let switches0 = sys::thread_involuntary_switches();
    let cpu0 = sys::thread_cpu_ns();
    let t_pass = Instant::now();
    for (ts, bytes) in records {
        let t = Instant::now();
        let decoded = pass.decoder.decode(ts, bytes);
        sp.parse_ns += ns(t);
        let Some(p) = decoded else { continue };
        let c0 = sys::thread_cpu_ns();
        let t = Instant::now();
        scorer.push(&p);
        let closed = scorer.drain_closed();
        let wall = ns(t);
        let cpu = sys::thread_cpu_ns() - c0;
        pass.packets += 1;
        sp.push_ns += wall;
        sp.scoring_cpu_ns += cpu;
        sp.pushes.push((wall, cpu));
        if pass.packets % SWEEP_INTERVAL as u64 == 0 {
            sp.sweep.0 += wall;
            sp.sweep.1 += 1;
        }
        if !closed.is_empty() {
            sp.finalize.0 += wall;
            sp.finalize.1 += 1;
            let t = Instant::now();
            for flow in &closed {
                pass.emit(flow, 0);
            }
            sp.emit_ns += ns(t);
            sp.emitted.extend(closed);
        }
    }
    pass.mem_bytes = scorer.mem_bytes();
    let t = Instant::now();
    let rest = scorer.finish();
    sp.finish_ns = ns(t);
    let t = Instant::now();
    for flow in &rest {
        pass.emit(flow, 0);
    }
    sp.emit_ns += ns(t);
    sp.emitted.extend(rest);
    sp.wall_ns = ns(t_pass);
    sp.cpu_ns = sys::thread_cpu_ns() - cpu0;
    sp.involuntary_switches = sys::thread_involuntary_switches() - switches0;
    pass.wall_s = sp.wall_ns as f64 / 1e9;
    pass.stats = scorer.stats();
    (pass, sp)
}

/// Mean per-call time of each layer under `push`, from the shadow pass.
pub struct Layers {
    pub track_ns: f64,
    pub extract_ns: f64,
    pub gru_ns: f64,
    pub ae_ns: f64,
}

/// Per-flow state of the shadow pipeline.
struct ShadowFlow {
    key: FlowKey,
    tracker: FlowTracker,
    extractor: FeatureExtractor,
    /// GRU hidden state.
    h: Vec<f32>,
    packets: usize,
}

/// Replays the packets of `pcap` through the layers `push` is built
/// from, one timed call per layer (see the module docs). Flow handling
/// is simplified: a flow is oriented by its first packet and ends on TCP
/// teardown; the autoencoder runs whenever a flow has a full stack of
/// packets, on the current profile row repeated — its cost does not
/// depend on which rows fill the window. The window count used for the
/// decomposition comes from the real verdicts, not from here.
pub fn shadow_pass(clap: &Clap, cfg: &StreamConfig, pcap: &[u8], clock_ns: f64) -> Layers {
    let gru = GruEngine::from_packed(clap.rnn.packed(), cfg.quant);
    let ae = AeEngine::from_model(&clap.ae, cfg.quant);
    let int8_state = cfg.resident == clap_core::ResidentMode::Int8;
    let hidden = gru.hidden_size();
    let stack = clap.config.stack;
    let mut scratch = GruStepScratch::new();
    let mut ws = AeWorkspace::new();
    let mut errs = Vec::new();
    let mut fv = FeatureVector {
        base: Vec::new(),
        raw: Vec::new(),
        equiv_ok: false,
    };
    let mut row = vec![0.0f32; PROFILE_LEN];
    let mut codes = Vec::new();
    let mut window = Matrix::default();
    window.resize(1, stack * PROFILE_LEN);
    let mut flows: HashMap<CanonicalKey, ShadowFlow> = HashMap::new();
    let mut dec = Decoder::default();
    let (mut track, mut extract, mut step, mut aew) = (0u64, 0u64, 0u64, 0u64);
    let (mut packets, mut ae_calls) = (0u64, 0u64);
    for (ts, bytes) in corpus::records(pcap) {
        let Some(p) = dec.decode(ts, bytes) else {
            continue;
        };
        let ck = CanonicalKey::of(&p);
        let f = flows.entry(ck).or_insert_with(|| new_flow(&p, hidden));
        let dir = f.key.direction_of(&p).unwrap_or(Direction::ClientToServer);

        let t = Instant::now();
        f.tracker.process(&p, dir);
        track += ns(t);

        let t = Instant::now();
        f.extractor.push_into(&p, dir, &mut fv);
        clap.ranges
            .write_packet_features(&fv, &mut row[..NUM_PACKET]);
        extract += ns(t);

        let (z, r) = row[NUM_PACKET..].split_at_mut(hidden);
        let t = Instant::now();
        if int8_state {
            // The engine keeps the state as 7-bit codes: one quantize and
            // one dequantize around every step.
            let q = quantize_activations(&f.h, &mut codes);
            dequantize_activations_into(&codes, q, &mut f.h);
        }
        gru.step(&fv.base, &mut f.h, &mut scratch, z, r);
        step += ns(t);

        f.packets += 1;
        packets += 1;
        if f.packets >= stack {
            for chunk in window.row_mut(0).chunks_mut(PROFILE_LEN) {
                chunk.copy_from_slice(&row);
            }
            errs.clear();
            let t = Instant::now();
            ae.reconstruction_errors_into(&window, &mut ws, &mut errs);
            aew += ns(t);
            ae_calls += 1;
        }
        black_box(&errs);
        if matches!(
            f.tracker.tcp_state(),
            Some(TcpState::Close | TcpState::TimeWait)
        ) {
            flows.remove(&ck);
        }
    }
    let per = |total: u64, calls: u64| (total as f64 / calls.max(1) as f64 - clock_ns).max(0.0);
    Layers {
        track_ns: per(track, packets),
        extract_ns: per(extract, packets),
        gru_ns: per(step, packets),
        ae_ns: per(aew, ae_calls),
    }
}

fn new_flow(p: &Packet, hidden: usize) -> ShadowFlow {
    let key = FlowKey::new(
        Endpoint::new(p.src_addr(), p.src_port()),
        Endpoint::new(p.dst_addr(), p.dst_port()),
    )
    .with_proto(p.transport.protocol_number());
    ShadowFlow {
        key,
        tracker: FlowTracker::for_packet(p),
        extractor: FeatureExtractor::new(),
        h: vec![0.0; hidden],
        packets: 0,
    }
}

/// Mean cost per packet of the sharded front end's dispatch step — flow
/// hash, shard choice, SPSC ring push — with the pop that hands the
/// packet to a worker, on this thread (no contention, ring never full).
/// Decoding is outside the spans.
pub fn dispatch_ns(pcap: &[u8], shards: usize, clock_ns: f64) -> f64 {
    // The engine's rings carry `(arrival, &Packet)`; an address is the
    // same size and lets the ring outlive each decoded packet here.
    let ring: Ring<(u64, usize)> = Ring::new(1024);
    let mut dec = Decoder::default();
    let (mut total, mut packets) = (0u64, 0u64);
    for (ts, bytes) in corpus::records(pcap) {
        let Some(p) = dec.decode(ts, bytes) else {
            continue;
        };
        let t = Instant::now();
        black_box(CanonicalKey::of(&p).shard_of(shards));
        ring.try_push((packets, std::ptr::addr_of!(p) as usize))
            .expect("ring drained every step");
        black_box(ring.try_pop());
        total += ns(t);
        packets += 1;
    }
    (total as f64 / packets.max(1) as f64 - clock_ns).max(0.0)
}

/// Time the sharded engine's merge step takes on `emitted` (verdicts in
/// emission order): a stable sort of the per-verdict records by arrival.
pub fn merge_s(emitted: &[ClosedFlow]) -> f64 {
    let mut verdicts: Vec<ShardVerdict> = emitted
        .iter()
        .map(|f| ShardVerdict {
            shard: 0,
            arrival: f.arrival,
            flow: f.clone(),
        })
        .collect();
    let t = Instant::now();
    verdicts.sort_by_key(|v| v.arrival);
    let s = t.elapsed().as_secs_f64();
    black_box(&verdicts);
    s
}

/// Kernel timings at the detector's widest dot (the autoencoder input
/// row): ns per call of f32 `dot4`, int8 `dot4_i8` and the fused int8
/// `encode_dot4_i8`, each the median of several timed loops.
pub struct Kernels {
    pub dot4_ns: f64,
    pub dot4_i8_ns: f64,
    pub encode_dot4_ns: f64,
}

pub fn kernels(width: usize) -> Kernels {
    let ks = KernelSet::active();
    let x: Vec<f32> = (0..width)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
        .collect();
    let w: Vec<Vec<f32>> = (0..4)
        .map(|r| {
            (0..width)
                .map(|i| ((i * 13 + r * 7) % 29) as f32 / 29.0 - 0.5)
                .collect()
        })
        .collect();
    let wi: Vec<Vec<i8>> = w
        .iter()
        .map(|row| row.iter().map(|&v| (v * 200.0) as i8).collect())
        .collect();
    let xi: Vec<u8> = x.iter().map(|&v| ((v + 2.0) * 31.0) as u8 & 0x7f).collect();
    let mut qa = vec![0u8; width];
    let (min, inv) = (-2.0f32, 127.0 / 4.0);
    const CALLS: u32 = 20_000;
    let time = |f: &mut dyn FnMut()| {
        let mut reps: Vec<f64> = (0..7)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..CALLS {
                    f();
                }
                t.elapsed().as_nanos() as f64 / f64::from(CALLS)
            })
            .collect();
        reps.sort_by(f64::total_cmp);
        reps[reps.len() / 2]
    };
    Kernels {
        dot4_ns: time(&mut || {
            black_box(ks.dot4(black_box(&x), &w[0], &w[1], &w[2], &w[3]));
        }),
        dot4_i8_ns: time(&mut || {
            black_box(ks.dot4_i8(black_box(&xi), &wi[0], &wi[1], &wi[2], &wi[3]));
        }),
        encode_dot4_ns: time(&mut || {
            black_box(ks.encode_dot4_i8(
                black_box(&x),
                min,
                inv,
                &mut qa,
                &wi[0],
                &wi[1],
                &wi[2],
                &wi[3],
            ));
        }),
    }
}

/// Thread-CPU share of wall time over the pushes slower than the p99
/// push: near 1 means the tail is the engine's own work, well below 1
/// means the thread was descheduled.
pub fn tail_oncpu_share(pushes: &[(u64, u64)]) -> f64 {
    let mut walls: Vec<f64> = pushes.iter().map(|p| p.0 as f64).collect();
    walls.sort_by(f64::total_cmp);
    let p99 = crate::stats::percentile(&walls, 99.0);
    let (wall, cpu) = pushes
        .iter()
        .filter(|p| p.0 as f64 > p99)
        .fold((0u64, 0u64), |(w, c), p| (w + p.0, c + p.1));
    if wall == 0 {
        return 1.0;
    }
    cpu as f64 / wall as f64
}
