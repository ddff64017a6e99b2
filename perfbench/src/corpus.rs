//! Workload inputs: the trained detector and the seeded captures, built
//! once per set-up and handed to the engine only as pcap bytes.

use clap_core::{Clap, ClapConfig};
use net_packet::{CanonicalKey, Connection};
use std::collections::HashMap;
use std::time::Instant;

/// Seed of the detector's training set. The model is the system under
/// test, not a workload input, so it is the same for every `--seed`.
pub const MODEL_SEED: u64 = 0xc1a9;
/// Benign training connections (the `ci` preset's 60).
const TRAIN_CONNS: usize = 60;
/// Connections each paper strategy (TCP/IPv4 base traffic) is applied to.
const ATTACK_CONNS: usize = 12;
/// Connections each Extended family (mixed v4/v6/UDP base) is applied to.
const EXTENDED_CONNS: usize = 16;
/// Held-out benign TCP/IPv4 connections.
const BENIGN_CONNS: usize = 1200;
/// Held-out benign mixed-protocol connections.
const BENIGN_MIXED_CONNS: usize = 400;
/// IPv4 datagrams above this many wire bytes are split into fragments.
const FRAGMENT_OVER: usize = 600;

/// Live-flow plateau of the churn workload.
pub const CHURN_FLOWS: usize = 250_000;
/// Churn capture length: the ramp (one new flow per record) plus two
/// plateaus' worth of records, each live flow advanced about twice. A
/// pass takes 4 to 8 seconds, so a run fits several and the median of
/// their p99s does not hang on one pass.
pub const CHURN_RECORDS: usize = 3 * CHURN_FLOWS;

/// A labeled capture: the pcap bytes plus ground truth per flow.
#[derive(Default)]
pub struct Capture {
    pub pcap: Vec<u8>,
    pub records: usize,
    /// Generator label per flow key: `true` = attack. Empty for
    /// unlabeled traffic.
    pub labels: HashMap<CanonicalKey, bool>,
    pub connections: usize,
    pub attack_connections: usize,
}

/// Everything one workload needs, and what building it cost.
pub struct Setup {
    pub clap: Clap,
    /// The attack corpus plus held-out benign traffic.
    pub replay: Capture,
    /// The elephant/mice churn stream (churn workload only).
    pub churn: Option<Capture>,
    pub corpus_s: f64,
    pub train_s: f64,
    pub encode_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.corpus_s + self.train_s + self.encode_s
    }
}

/// FNV-1a of a strategy id: decorrelates the per-strategy base traffic.
fn id_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Trains the detector and generates the workload's captures for `seed`.
/// Fails when two generated connections share a flow key, since a
/// verdict could then not be matched to one label.
pub fn build(seed: u64, with_churn: bool) -> Result<Setup, String> {
    let t = Instant::now();
    let mut conns: Vec<(Connection, bool)> = Vec::new();
    for strategy in dpi_attacks::registry() {
        let base_seed = seed ^ 0xadb0 ^ id_hash(strategy.id);
        let base = if strategy.source == dpi_attacks::AttackSource::Extended {
            traffic_gen::mixed_dataset(base_seed, EXTENDED_CONNS)
        } else {
            traffic_gen::dataset(base_seed, ATTACK_CONNS)
        };
        for r in dpi_attacks::build_adversarial_set(strategy, &base, seed) {
            conns.push((r.connection, true));
        }
    }
    let attack_connections = conns.len();
    conns.extend(
        traffic_gen::dataset(seed ^ 0x7e57, BENIGN_CONNS)
            .into_iter()
            .chain(traffic_gen::mixed_dataset(seed ^ 0x6e1, BENIGN_MIXED_CONNS))
            .map(|c| (c, false)),
    );
    let mut labels = HashMap::with_capacity(conns.len());
    for (c, attack) in &conns {
        if labels
            .insert(CanonicalKey::of_key(&c.key), *attack)
            .is_some()
        {
            return Err(format!("duplicate flow key in the corpus: {:?}", c.key));
        }
    }
    let mut corpus_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let train = traffic_gen::dataset(MODEL_SEED, TRAIN_CONNS);
    let (clap, _) = Clap::train(&train, &ClapConfig::ci());
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let plain: Vec<Connection> = conns.iter().map(|(c, _)| c.clone()).collect();
    let records = traffic_gen::capture_records(&plain, Some(FRAGMENT_OVER));
    let replay = Capture {
        pcap: pcap_bytes(&records),
        records: records.len(),
        labels,
        connections: conns.len(),
        attack_connections,
    };
    drop(records);
    let mut encode_s = t.elapsed().as_secs_f64();
    let churn = with_churn.then(|| {
        let (pcap, records, gen_s, enc_s) = churn_capture(seed);
        corpus_s += gen_s;
        encode_s += enc_s;
        Capture {
            pcap,
            records,
            ..Capture::default()
        }
    });

    Ok(Setup {
        clap,
        replay,
        churn,
        corpus_s,
        train_s,
        encode_s,
    })
}

/// The churn capture, generated and encoded record by record (the
/// stream is far too large to materialize as packets first). Returns
/// the pcap bytes, the record count and the generation and encoding
/// times.
fn churn_capture(seed: u64) -> (Vec<u8>, usize, f64, f64) {
    let cfg = traffic_gen::ChurnConfig {
        // Live flows see a packet every CHURN_FLOWS / pps seconds, well
        // inside the idle timeout: flows leave the table by teardown.
        pps: 2_000_000.0,
        ..traffic_gen::ChurnConfig::new(seed ^ 0x5ca1e, CHURN_FLOWS, CHURN_RECORDS)
    };
    let mut gen = traffic_gen::churn(&cfg);
    let mut pcap = pcap_bytes(&[]);
    let (mut records, mut gen_s, mut enc_s) = (0, 0.0, 0.0);
    loop {
        let t = Instant::now();
        let Some(p) = gen.next() else { break };
        gen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let frame = p.to_bytes();
        // The record layout `write_pcap_raw` uses.
        let secs = p.timestamp.floor();
        pcap.extend_from_slice(&(secs as u32).to_le_bytes());
        pcap.extend_from_slice(&(((p.timestamp - secs) * 1e6).round() as u32).to_le_bytes());
        pcap.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        pcap.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        pcap.extend_from_slice(&frame);
        enc_s += t.elapsed().as_secs_f64();
        records += 1;
    }
    (pcap, records, gen_s, enc_s)
}

fn pcap_bytes(records: &[(f64, Vec<u8>)]) -> Vec<u8> {
    let mut buf = Vec::new();
    net_packet::pcap::write_pcap_raw(&mut buf, records).expect("in-memory pcap write");
    buf
}

/// Zero-copy walk over the records of a little-endian microsecond
/// `LINKTYPE_RAW` pcap, as written by `write_pcap_raw`: yields each
/// record's timestamp and frame bytes.
pub fn records(pcap: &[u8]) -> impl Iterator<Item = (f64, &[u8])> {
    let mut rest = &pcap[24.min(pcap.len())..];
    std::iter::from_fn(move || {
        if rest.len() < 16 {
            return None;
        }
        let word = |i: usize| u32::from_le_bytes(rest[i..i + 4].try_into().expect("4 bytes"));
        let ts = f64::from(word(0)) + f64::from(word(4)) / 1e6;
        let len = word(8) as usize;
        let frame = &rest[16..16 + len];
        rest = &rest[16 + len..];
        Some((ts, frame))
    })
}
