//! One closed-loop pass of a capture through the engine: decode each
//! pcap record, score it, write the verdict frames it finalized to an
//! in-memory sink — and only then take the next record.

use crate::corpus;
use crate::sys;
use crate::trace::Spans;
use clap_core::{
    Clap, ClosedFlow, EvictionMode, OverloadPolicy, QuantMode, ResidentMode, ShardConfig,
    ShardHealth, StreamConfig, StreamStats,
};
use clap_telemetry::wire;
use net_packet::frag::Reassembler;
use net_packet::wire::ParseError;
use net_packet::{CanonicalKey, FlowKey, Packet};
use std::collections::HashMap;
use std::time::Instant;

/// Flow-table policy with every field pinned, so no environment
/// variable (`NEURAL_QUANT`, `CLAP_MICROBATCH`) can change what runs.
pub fn stream_config(
    quant: QuantMode,
    resident: ResidentMode,
    max_flows: usize,
    idle_timeout: f64,
) -> StreamConfig {
    StreamConfig {
        idle_timeout,
        max_flows,
        teardown_on_close: true,
        time_wait: 0.0,
        max_packets_per_flow: 1 << 20,
        sweep_interval: SWEEP_INTERVAL,
        orient_buffer: 3,
        quant,
        eviction: EvictionMode::Wheel,
        resident,
        microbatch: 0,
        microbatch_wait: 64,
    }
}

/// Pushes per expiry-wheel advance (pinned in [`stream_config`]).
pub const SWEEP_INTERVAL: usize = 4096;

/// `replay` / `sharded` table policy: f32 weights and state, the
/// library default precision. The capture is far shorter than the idle
/// timeout, so no flow expires and verdicts do not depend on the shard
/// count.
pub fn replay_config() -> StreamConfig {
    stream_config(QuantMode::Off, ResidentMode::F32, 1 << 20, 300.0)
}

/// `churn` table policy: int8 weights and int8 resident state, with
/// ~3% headroom over the plateau for abandoned flows awaiting expiry.
pub fn churn_config() -> StreamConfig {
    let flows = corpus::CHURN_FLOWS;
    stream_config(
        QuantMode::Int8,
        ResidentMode::Int8,
        flows + flows / 32,
        30.0,
    )
}

/// Sharded front end: one worker per spare core (the dispatcher runs on
/// the calling thread), blocking back-pressure, no faults.
pub fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: workers(),
        queue_capacity: 1024,
        stream: replay_config(),
        overload: OverloadPolicy::Block,
        watchdog_limit: 1 << 26,
        faults: clap_core::FaultPlan::none(),
        dump_flows: false,
    }
}

/// Worker shards such that dispatcher + workers never exceed the cores.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

/// Record decoder: wire bytes → [`Packet`], with inline IPv4 fragment
/// reassembly, counting what it could not turn into a packet.
#[derive(Default)]
pub struct Decoder {
    reasm: Reassembler,
    /// Fragment records fed to the reassembler whose datagram has not
    /// completed, per datagram: source, destination, IP id and protocol,
    /// as the reassembler keys it.
    open: HashMap<[u8; 11], u64>,
    /// Records seen.
    pub offered: u64,
    /// Records that parse as a packet on their own.
    pub direct: u64,
    /// Fragment records inside a completed datagram, as the reassembler
    /// counts them.
    pub absorbed: u64,
    /// Datagrams completed from fragments.
    pub reassembled: u64,
    /// Records that fail to parse (malformed by construction).
    pub malformed: u64,
}

impl Decoder {
    pub fn decode(&mut self, ts: f64, bytes: &[u8]) -> Option<Packet> {
        self.offered += 1;
        match Packet::from_bytes(ts, bytes) {
            Ok(p) => {
                self.direct += 1;
                Some(p)
            }
            Err(ParseError::Fragment { .. }) => {
                let h = |i: usize| bytes.get(i).copied().unwrap_or(0);
                let key = [12, 13, 14, 15, 16, 17, 18, 19, 4, 5, 9].map(h);
                *self.open.entry(key).or_default() += 1;
                let p = self.reasm.push(ts, bytes)?;
                self.open.remove(&key);
                self.reassembled += 1;
                self.absorbed += p.reassembly.map_or(1, |r| u64::from(r.fragments));
                Some(p)
            }
            Err(_) => {
                self.malformed += 1;
                None
            }
        }
    }

    /// Records behind a packet handed to the engine.
    pub fn scored_records(&self) -> u64 {
        self.direct + self.absorbed
    }

    /// Records that produced no packet: malformed, or fragments of a
    /// datagram that never completed (still pending, expired, evicted,
    /// or refused by the reassembler).
    pub fn rejected(&self) -> u64 {
        self.malformed + self.open.values().sum::<u64>()
    }

    /// Checks that every record seen is either behind a scored packet or
    /// rejected. The two sides are counted apart: scored fragments come
    /// from the reassembler's per-datagram counts, rejected ones from the
    /// decoder's own tally of datagrams that never completed.
    pub fn account(&self) -> Result<(), String> {
        if self.scored_records() + self.rejected() != self.offered {
            return Err(format!(
                "{} records scored and {} rejected of {} offered",
                self.scored_records(),
                self.rejected(),
                self.offered
            ));
        }
        Ok(())
    }
}

/// Splits a flow key into the wire format's identity block.
fn identity(key: &FlowKey) -> (bool, [u8; 16], [u8; 16]) {
    fn block(addr: std::net::IpAddr) -> (bool, [u8; 16]) {
        let mut b = [0u8; 16];
        match addr {
            std::net::IpAddr::V4(a) => {
                b[..4].copy_from_slice(&a.octets());
                (false, b)
            }
            std::net::IpAddr::V6(a) => (true, a.octets()),
        }
    }
    let (v6, client) = block(key.client.addr);
    let (_, server) = block(key.server.addr);
    (v6, client, server)
}

/// Appends one verdict frame for `flow` to `sink`.
pub fn write_verdict(sink: &mut Vec<u8>, flow: &ClosedFlow, shard: u16) {
    let (v6, client_addr, server_addr) = identity(&flow.key);
    wire::write_verdict(
        sink,
        &wire::VerdictRecord {
            v6,
            proto: flow.key.proto,
            client_addr,
            client_port: flow.key.client.port,
            server_addr,
            server_port: flow.key.server.port,
            arrival: flow.arrival,
            packets: flow.packets as u32,
            reason: flow.reason as u8,
            shard,
            score: flow.scored.score,
            peak_packet: flow.scored.peak_packet as u32,
        },
    )
    .expect("in-memory write");
}

/// What one pass produced and cost.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub decoder: Decoder,
    /// Packets handed to the engine.
    pub packets: u64,
    /// Packets the engine's verdicts account for (Σ flow packets).
    pub verdict_packets: u64,
    /// Packets shed or quarantined by the sharded engine.
    pub dropped: u64,
    pub quarantined: u64,
    /// Wire-encoded verdict frames, in emission order.
    pub sink: Vec<u8>,
    /// Windows scored (Σ window-error log lengths).
    pub windows: u64,
    pub stats: StreamStats,
    /// Flow-table heap at end of stream, before the final drain.
    pub mem_bytes: usize,
    /// Per-shard accounting (sharded passes).
    pub shards: Vec<clap_core::ShardStats>,
}

impl Pass {
    pub fn emit(&mut self, flow: &ClosedFlow, shard: u16) {
        self.verdict_packets += flow.packets as u64;
        self.windows += flow.scored.window_errors.len() as u64;
        write_verdict(&mut self.sink, flow, shard);
    }

    pub fn records(&self) -> u64 {
        self.decoder.offered
    }
}

/// Replays `pcap` through one fresh [`clap_core::StreamScorer`] on this
/// thread. `latency_us` receives one sample per record: from starting
/// to decode it to having written every verdict frame it finalized.
pub fn stream_pass(
    clap: &Clap,
    cfg: &StreamConfig,
    pcap: &[u8],
    latency_us: &mut Vec<f64>,
) -> Pass {
    let mut pass = Pass::default();
    let mut scorer = clap.stream_scorer_with(cfg.clone());
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    for (ts, bytes) in corpus::records(pcap) {
        let t = Instant::now();
        if let Some(p) = pass.decoder.decode(ts, bytes) {
            scorer.push(&p);
            pass.packets += 1;
            for flow in scorer.drain_closed() {
                pass.emit(&flow, 0);
            }
        }
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    pass.mem_bytes = scorer.mem_bytes();
    for flow in scorer.finish() {
        pass.emit(&flow, 0);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    pass.stats = scorer.stats();
    pass
}

/// Replays `pcap` through a fresh RSS-sharded engine. The engine takes
/// the whole packet stream in one call and returns every verdict at the
/// end, so a record's latency runs from its decode to that return plus
/// the verdict writes. The spans sit at the engine-call boundary:
/// `parse_ns` is the decode loop, `push_ns` the engine call, `emit_ns`
/// the verdict writes. The calling thread is the dispatcher, so the CPU
/// time of the other threads is the workers' (`scoring_cpu_ns`).
pub fn sharded_pass(
    clap: &Clap,
    cfg: &ShardConfig,
    pcap: &[u8],
    latency_us: &mut Vec<f64>,
) -> Result<(Pass, Spans), String> {
    let mut pass = Pass::default();
    let mut sp = Spans::default();
    let ns = |t: Instant| t.elapsed().as_nanos() as u64;
    let thread0 = sys::thread_cpu_ns();
    let process0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let mut starts = Vec::new();
    let mut packets = Vec::new();
    for (ts, bytes) in corpus::records(pcap) {
        starts.push(Instant::now());
        if let Some(p) = pass.decoder.decode(ts, bytes) {
            packets.push(p);
        }
    }
    sp.parse_ns = ns(t0);
    let t = Instant::now();
    let run = clap
        .sharded_scorer_with(cfg.clone())
        .try_score_stream(packets.iter())
        .map_err(|e| format!("sharded run failed: {e}"))?;
    sp.push_ns = ns(t);
    let t = Instant::now();
    for v in &run.verdicts {
        pass.emit(&v.flow, v.shard as u16);
    }
    sp.emit_ns = ns(t);
    let end = Instant::now();
    sp.wall_ns = ns(t0);
    sp.cpu_ns = sys::process_cpu_ns() - process0;
    sp.scoring_cpu_ns = sp.cpu_ns.saturating_sub(sys::thread_cpu_ns() - thread0);
    pass.wall_s = sp.wall_ns as f64 / 1e9;
    pass.cpu_s = sp.cpu_ns as f64 / 1e9;
    latency_us.extend(starts.iter().map(|s| (end - *s).as_secs_f64() * 1e6));
    ShardHealth::check_accounting(&run.stats)?;
    pass.packets = packets.len() as u64;
    pass.dropped = run.stats.iter().map(|s| s.dropped).sum();
    pass.quarantined = run.stats.iter().map(|s| s.quarantined).sum();
    let pushed: u64 = run.stats.iter().map(|s| s.pushed).sum();
    if pushed != pass.packets {
        return Err(format!(
            "dispatcher pushed {pushed} of {} packets",
            pass.packets
        ));
    }
    for s in &run.stats {
        let st = &mut pass.stats;
        st.flows_peak += s.stream.flows_peak;
        st.evicted_idle += s.stream.evicted_idle;
        st.evicted_capacity += s.stream.evicted_capacity;
        st.closed_tcp += s.stream.closed_tcp;
        st.length_capped += s.stream.length_capped;
        st.drained += s.stream.drained;
    }
    pass.shards = run.stats;
    Ok((pass, sp))
}

/// A pass's verdicts in arrival order: arrival tag, the wire frame
/// re-encoded with the shard field zeroed (shard-independent, compared
/// byte for byte), flow key and score.
pub type Verdicts = Vec<(u64, Vec<u8>, CanonicalKey, f32)>;

/// Parses `sink` back with `wire::read_frames` and returns its verdicts
/// in arrival order, shard-independent, with each verdict's flow key.
/// Fails if any frame does not parse or is not a verdict.
pub fn read_back(sink: &[u8]) -> Result<Verdicts, String> {
    let frames =
        wire::read_frames(sink).map_err(|e| format!("verdict sink does not parse: {e:?}"))?;
    let mut out = Vec::with_capacity(frames.len());
    for f in frames {
        let v = f
            .verdict()
            .map_err(|e| format!("non-verdict frame in sink: {e:?}"))?;
        let mut rec = v.to_record();
        rec.shard = 0;
        let mut bytes = Vec::new();
        wire::write_verdict(&mut bytes, &rec).expect("in-memory write");
        let key = key_of(&rec);
        out.push((rec.arrival, bytes, key, rec.score));
    }
    out.sort_by_key(|v| v.0);
    Ok(out)
}

fn key_of(r: &wire::VerdictRecord) -> CanonicalKey {
    let addr = |b: [u8; 16]| -> std::net::IpAddr {
        if r.v6 {
            std::net::Ipv6Addr::from(b).into()
        } else {
            std::net::Ipv4Addr::new(b[0], b[1], b[2], b[3]).into()
        }
    };
    let key = FlowKey::new(
        net_packet::Endpoint::new(addr(r.client_addr), r.client_port),
        net_packet::Endpoint::new(addr(r.server_addr), r.server_port),
    )
    .with_proto(r.proto);
    CanonicalKey::of_key(&key)
}

/// Detection quality of a pass against the generator labels: each
/// labeled connection scores the maximum over its flow incarnations'
/// verdicts. Returns `(auc, eer, unlabeled verdicts, unscored
/// connections)`.
pub fn detection(
    verdicts: &Verdicts,
    labels: &HashMap<CanonicalKey, bool>,
) -> (f32, f32, u64, u64) {
    let mut best: HashMap<CanonicalKey, f32> = HashMap::with_capacity(labels.len());
    let mut unlabeled = 0;
    for (_, _, key, score) in verdicts {
        if labels.contains_key(key) {
            let e = best.entry(*key).or_insert(f32::NEG_INFINITY);
            *e = e.max(*score);
        } else {
            unlabeled += 1;
        }
    }
    let (mut benign, mut attack) = (Vec::new(), Vec::new());
    for (key, &is_attack) in labels {
        if let Some(&s) = best.get(key) {
            if is_attack {
                attack.push(s);
            } else {
                benign.push(s);
            }
        }
    }
    let unscored = (labels.len() - best.len()) as u64;
    (
        clap_core::auc_roc(&benign, &attack),
        clap_core::equal_error_rate(&benign, &attack),
        unlabeled,
        unscored,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(port: u16) -> CanonicalKey {
        let ep = |last: u8, port: u16| {
            net_packet::Endpoint::new(std::net::Ipv4Addr::new(10, 0, 0, last), port)
        };
        CanonicalKey::of_key(&FlowKey::new(ep(1, port), ep(2, 443)))
    }

    #[test]
    fn detection_scores_each_connection_by_its_best_verdict() {
        // (port, score) per verdict; port 1 has two incarnations, 9 is
        // unlabeled, and label 8 never gets a verdict.
        let verdicts: Verdicts = [(1, 0.2), (2, 0.3), (3, 0.1), (1, 0.9), (4, 0.3), (9, 0.5)]
            .iter()
            .enumerate()
            .map(|(i, &(port, score))| (i as u64, Vec::new(), key(port), score))
            .collect();
        let labels: HashMap<_, _> = [(1, true), (2, false), (3, false), (4, true), (8, true)]
            .iter()
            .map(|&(port, attack)| (key(port), attack))
            .collect();
        let (auc, eer, unlabeled, unscored) = detection(&verdicts, &labels);
        let (benign, attack) = ([0.3f32, 0.1], [0.9f32, 0.3]);
        assert_eq!(auc, clap_core::auc_roc(&benign, &attack));
        assert_eq!(eer, clap_core::equal_error_rate(&benign, &attack));
        assert_eq!((unlabeled, unscored), (1, 1));
    }

    #[test]
    fn every_record_is_scored_or_rejected() {
        let conns = traffic_gen::dataset(7, 6);
        let records = traffic_gen::capture_records(&conns, Some(120));
        let mut d = Decoder::default();
        for (ts, bytes) in &records {
            d.decode(*ts, bytes);
        }
        assert!(d.reassembled > 0, "the capture has fragmented datagrams");
        assert_eq!(d.offered, records.len() as u64);
        d.account().expect("complete capture");

        // Without the final fragment of one datagram, its earlier
        // fragments are rejected, not scored.
        let last_fragment = records
            .iter()
            .position(|(_, b)| {
                b[0] >> 4 == 4 && b[6] & 0x20 == 0 && u16::from_be_bytes([b[6], b[7]]) & 0x1fff != 0
            })
            .expect("a final fragment");
        let mut d = Decoder::default();
        for (i, (ts, bytes)) in records.iter().enumerate() {
            if i != last_fragment {
                d.decode(*ts, bytes);
            }
        }
        assert!(d.rejected() > d.malformed);
        d.account().expect("truncated capture");

        // A record counted on neither side fails the check.
        d.direct += 1;
        assert!(d.account().is_err());
    }
}
