//! Shared experiment harness for regenerating every table and figure of
//! the CLAP paper. Each `exp_*` binary in `src/bin/` prints the rows of
//! one artifact; this library holds the common machinery: presets,
//! model training, per-strategy evaluation and table formatting.
//!
//! See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results.

use baselines::{Baseline1, Baseline1Config, KitsuneConfig, KitsuneLite};
use clap_core::{auc_roc, equal_error_rate, top_n_hit, Clap, ClapConfig};
use dpi_attacks::{build_adversarial_set, AttackResult, Strategy};
use net_packet::Connection;
use serde::{Deserialize, Serialize};

/// Scale preset for an experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Preset {
    pub name: String,
    /// Benign connections used for training.
    pub train_conns: usize,
    /// Held-out benign connections for the negative score distribution.
    pub test_benign: usize,
    /// Benign connections each strategy is applied to (positives).
    pub test_adv_per_strategy: usize,
    pub clap: ClapConfig,
    pub baseline1: Baseline1Config,
    pub kitsune: KitsuneConfig,
    /// Seed for dataset generation.
    pub seed: u64,
}

impl Preset {
    /// Minutes-scale single-core preset; the default for every binary.
    pub fn quick() -> Self {
        let mut clap = ClapConfig::quick();
        clap.rnn.epochs = 20;
        clap.ae.epochs = 110;
        clap.ae.learning_rate = 3e-3;
        let mut baseline1 = Baseline1Config::quick();
        baseline1.ae.epochs = 40;
        Preset {
            name: "quick".into(),
            train_conns: 250,
            test_benign: 80,
            test_adv_per_strategy: 40,
            clap,
            baseline1,
            kitsune: KitsuneConfig::default(),
            seed: 0xc1a9,
        }
    }

    /// CI-scale: seconds, for integration tests of the harness itself.
    pub fn ci() -> Self {
        let mut p = Self::quick();
        p.name = "ci".into();
        p.train_conns = 60;
        p.test_benign = 24;
        p.test_adv_per_strategy = 12;
        p.clap = ClapConfig::ci();
        p.baseline1.ae.epochs = 12;
        p
    }

    /// Paper-scale (Table 4/Table 6 sizes). Hours of CPU time.
    pub fn paper() -> Self {
        let mut p = Self::quick();
        p.name = "paper".into();
        p.train_conns = 31_198;
        p.test_benign = 1_000;
        p.test_adv_per_strategy = 75; // ≈ 6,424 test conns over 73 strategies
        p.clap = ClapConfig::paper();
        p.baseline1 = Baseline1Config::paper();
        p
    }

    /// Flow-table-scale preset: CI-sized models (training cost is not the
    /// point), but `exp_throughput` additionally runs the elephant/mice
    /// churn phase against a million-flow table and records `flows_peak`,
    /// `scale_pps` and `bytes_per_flow`.
    pub fn scale() -> Self {
        let mut p = Self::ci();
        p.name = "scale".into();
        p
    }

    /// Parses `--preset <name>` from CLI args; defaults to quick.
    pub fn from_args(args: &[String]) -> Preset {
        match arg_value(args, "--preset").as_deref() {
            Some("paper") => Preset::paper(),
            Some("ci") => Preset::ci(),
            Some("scale") => Preset::scale(),
            _ => Preset::quick(),
        }
    }
}

/// The subset of a `BENCH_throughput.json` record the CI regression gate
/// reads. Extra fields in the file are ignored, so references recorded by
/// older report formats keep working as the report grows fields.
#[derive(Debug, Clone)]
pub struct ThroughputReference {
    /// Packets/second of the fused CLAP engine when the reference was
    /// recorded.
    pub clap_fused_pps: f64,
    /// Fused ÷ unfused packets/second when the reference was recorded.
    /// Unlike absolute pps this ratio is machine-independent (both
    /// engines run on the same hardware), so gating on it catches kernel
    /// regressions that a faster CI runner would otherwise mask. `None`
    /// for references recorded before the field existed — those gate on
    /// pps alone.
    pub fusion_speedup: Option<f64>,
    /// Packets/second of the RSS-sharded multi-queue streaming engine
    /// when the reference was recorded. `None` for references recorded
    /// before sharding existed — those skip the sharded gate.
    pub clap_sharded_pps: Option<f64>,
    /// Int8 ÷ f32 fused packets/second when the reference was recorded
    /// (`exp_throughput --quant int8`). Machine-independent like
    /// `fusion_speedup` (both engines share the hardware), so gating on
    /// it catches an int8 kernel regression — or quantization silently
    /// falling back to f32 — regardless of runner speed. `None` for
    /// references recorded before quantization existed.
    pub quant_speedup: Option<f64>,
    /// Packets/second of the million-flow churn phase (`--preset scale`)
    /// when the reference was recorded. `None` for references recorded
    /// before the scale phase existed — those skip the scale gate.
    pub scale_pps: Option<f64>,
    /// Heap bytes per peak live flow measured by the churn phase when the
    /// reference was recorded. Machine-independent (pure data-structure
    /// layout), so its growth budget can be tight. `None` for references
    /// recorded before the scale phase existed.
    pub bytes_per_flow: Option<f64>,
}

/// Deserialization targets for the reference generations (the vendored
/// serde derive has no `#[serde(default)]`, so optional fields are each
/// parsed through their own single-field struct, engaged only when the
/// record mentions the key).
#[derive(Deserialize)]
struct ReferencePpsOnly {
    clap_fused_pps: f64,
}

#[derive(Deserialize)]
struct ReferenceSpeedupField {
    fusion_speedup: f64,
}

#[derive(Deserialize)]
struct ReferenceShardedField {
    clap_sharded_pps: f64,
}

#[derive(Deserialize)]
struct ReferenceQuantField {
    quant_speedup: f64,
}

#[derive(Deserialize)]
struct ReferenceScalePpsField {
    scale_pps: f64,
}

#[derive(Deserialize)]
struct ReferenceBytesPerFlowField {
    bytes_per_flow: f64,
}

/// Parses an optional reference field: absent key → `None`, present but
/// unparseable or non-finite → hard error. Silently downgrading a broken
/// field to "absent" would disable its gate exactly when the file is
/// broken, so that path does not exist.
fn optional_metric<T: Deserialize>(
    json: &str,
    key: &str,
    value: impl Fn(T) -> f64,
) -> Result<Option<f64>, String> {
    if !json.contains(&format!("\"{key}\"")) {
        return Ok(None);
    }
    let parsed = serde_json::from_str::<T>(json)
        .map_err(|e| format!("cannot parse reference {key}: {e:?}"))?;
    let v = value(parsed);
    // The vendored JSON parser maps type mismatches to NaN rather than
    // failing; treat that as the parse error it is.
    if !v.is_finite() {
        return Err(format!("reference {key} is not a finite number ({v})"));
    }
    Ok(Some(v))
}

impl ThroughputReference {
    /// Parses a reference record, accepting every recorded generation:
    /// pps-only (PR 2), pps + `fusion_speedup` (PR 3), pps + speedup +
    /// `clap_sharded_pps` (PR 4), + `quant_speedup` (PR 5), and +
    /// `scale_pps`/`bytes_per_flow` (PR 7). A record that *mentions* an optional field but fails
    /// to parse it is a hard error — silently downgrading would disable
    /// that gate exactly when the file is broken.
    pub fn from_json(json: &str) -> Result<ThroughputReference, String> {
        let base = serde_json::from_str::<ReferencePpsOnly>(json)
            .map_err(|e| format!("cannot parse reference: {e:?}"))?;
        Ok(ThroughputReference {
            clap_fused_pps: base.clap_fused_pps,
            fusion_speedup: optional_metric(json, "fusion_speedup", |r: ReferenceSpeedupField| {
                r.fusion_speedup
            })?,
            clap_sharded_pps: optional_metric(
                json,
                "clap_sharded_pps",
                |r: ReferenceShardedField| r.clap_sharded_pps,
            )?,
            quant_speedup: optional_metric(json, "quant_speedup", |r: ReferenceQuantField| {
                r.quant_speedup
            })?,
            scale_pps: optional_metric(json, "scale_pps", |r: ReferenceScalePpsField| r.scale_pps)?,
            bytes_per_flow: optional_metric(
                json,
                "bytes_per_flow",
                |r: ReferenceBytesPerFlowField| r.bytes_per_flow,
            )?,
        })
    }

    /// Loads a reference record from a JSON file (e.g. the checked-in
    /// `BENCH_reference.json`).
    pub fn load(path: &str) -> Result<ThroughputReference, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {path}: {e}"))?;
        Self::from_json(&json).map_err(|e| format!("{e} ({path})"))
    }
}

/// Generic relative-regression gate: fails when `current` has lost more
/// than `max_regress` (a fraction, e.g. `0.20` = 20%) of `reference`.
/// Returns the relative change (`+0.05` = 5% better, `-0.25` = 25% worse)
/// on success so callers can report the margin. `metric` names the
/// quantity in error messages.
///
/// Non-finite or non-positive measurements and references are rejected
/// outright — a NaN must fail the gate, not sail through a comparison.
pub fn check_metric_regression(
    metric: &str,
    current: f64,
    reference: f64,
    max_regress: f64,
) -> Result<f64, String> {
    if !reference.is_finite() || reference <= 0.0 {
        return Err(format!(
            "reference {metric} {reference} is not a positive number"
        ));
    }
    if !current.is_finite() || current <= 0.0 {
        return Err(format!(
            "measured {metric} {current} is not a positive number"
        ));
    }
    let change = current / reference - 1.0;
    let floor = reference * (1.0 - max_regress);
    if current < floor {
        return Err(format!(
            "{metric} regressed {:.1}% (measured {current:.2} vs reference {reference:.2}, \
             budget {:.0}%)",
            -change * 100.0,
            max_regress * 100.0,
        ));
    }
    Ok(change)
}

/// The CI throughput-regression gate on absolute fused packets/second.
/// Machine-relative: a slower or faster CI runner shifts both sides, so
/// pair it with [`check_speedup_regression`].
pub fn check_throughput_regression(
    current_pps: f64,
    reference_pps: f64,
    max_regress: f64,
) -> Result<f64, String> {
    check_metric_regression("fused throughput", current_pps, reference_pps, max_regress)
}

/// The machine-independent second line of defense: gates the fused ÷
/// unfused `fusion_speedup` ratio. Runner speed drift cancels out of the
/// ratio, so a kernel regression cannot hide behind a faster machine.
pub fn check_speedup_regression(
    current_speedup: f64,
    reference_speedup: f64,
    max_regress: f64,
) -> Result<f64, String> {
    check_metric_regression(
        "fusion speedup",
        current_speedup,
        reference_speedup,
        max_regress,
    )
}

/// The sharded-streaming throughput gate. Machine-relative like the
/// fused-pps gate (core count *and* clock shift it), so the checked-in
/// reference is recorded on the smallest supported machine and the budget
/// is sized generously; what this gate reliably catches is the sharded
/// path collapsing — a serialization bug, a livelocked queue, a
/// mis-hashed partition doing duplicate work.
pub fn check_sharded_regression(
    current_pps: f64,
    reference_pps: f64,
    max_regress: f64,
) -> Result<f64, String> {
    check_metric_regression(
        "sharded throughput",
        current_pps,
        reference_pps,
        max_regress,
    )
}

/// The int8 quantization gate: int8 ÷ f32 fused packets/second. Machine
/// speed cancels out of the ratio (both engines run back to back on the
/// same corpus and hardware), so a drop past the budget means the int8
/// kernels regressed or the dispatcher stopped picking them up — a faster
/// runner cannot mask it. Note the *relative* budget, applied to an
/// AVX2-recorded reference (~1.11×), leaves a floor below 1.0; pair with
/// [`check_quant_floor`] to assert "int8 is never slower than f32"
/// absolutely.
pub fn check_quant_regression(
    current_speedup: f64,
    reference_speedup: f64,
    max_regress: f64,
) -> Result<f64, String> {
    check_metric_regression(
        "quant speedup",
        current_speedup,
        reference_speedup,
        max_regress,
    )
}

/// Absolute floor on the int8 ÷ f32 fused ratio (`exp_throughput
/// --min-quant-speedup`). Independent of any reference record: with the
/// floor at `1.0` it asserts the quantized engine is never slower than
/// f32 on the measuring runner — the case the relative gate cannot catch
/// when its reference was recorded on a weaker-int8 ISA.
pub fn check_quant_floor(speedup: f64, floor: f64) -> Result<(), String> {
    if !speedup.is_finite() || speedup <= 0.0 {
        return Err(format!(
            "measured quant_speedup {speedup} is not a positive number"
        ));
    }
    if speedup < floor {
        return Err(format!(
            "quant speedup {speedup:.2}x is below the required floor {floor:.2}x \
             (the int8 engine is not paying for itself)"
        ));
    }
    Ok(())
}

/// Absolute floor on the sharded ÷ single-thread streaming scaling factor
/// (`exp_throughput --min-shard-scaling`). This is the only gate that can
/// catch "sharding silently adds nothing" (e.g. an accidental global
/// lock): the relative pps gates pass a fully serialized sharded path
/// whenever the runner is faster than the reference machine. The floor is
/// core-count-dependent — ~0.9 is the ceiling on a single-core box, while
/// a 4-core runner should clear 2.5 — so it ships disabled by default and
/// is meant to be enabled in CI alongside a multi-core-recorded
/// `BENCH_reference.json`.
pub fn check_shard_scaling_floor(scaling: f64, floor: f64) -> Result<(), String> {
    if !scaling.is_finite() || scaling <= 0.0 {
        return Err(format!(
            "measured shard_scaling {scaling} is not a positive number"
        ));
    }
    if scaling < floor {
        return Err(format!(
            "shard scaling {scaling:.2}x is below the required floor {floor:.2}x \
             (the sharded path is not using its cores)"
        ));
    }
    Ok(())
}

/// The churn-phase throughput gate (`--preset scale`): packets/second
/// sustained against a million-flow table. Machine-relative like the
/// fused-pps gate, so the budget is sized generously; what it reliably
/// catches is the flow-table substrate collapsing — a scan creeping back
/// into the hot path, an O(n) eviction, a map rebuild storm.
pub fn check_scale_regression(
    current_pps: f64,
    reference_pps: f64,
    max_regress: f64,
) -> Result<f64, String> {
    check_metric_regression("scale throughput", current_pps, reference_pps, max_regress)
}

/// The per-flow memory gate, relative form: fails when the churn phase's
/// measured bytes/flow has *grown* more than `max_growth` (a fraction)
/// over the reference record. Unlike the throughput gates this one is
/// machine-independent — bytes/flow is pure data-structure layout — so
/// the budget can be tight. Returns the relative change (`+0.10` = 10%
/// fatter) on success.
pub fn check_memory_regression(
    current: f64,
    reference: f64,
    max_growth: f64,
) -> Result<f64, String> {
    if !reference.is_finite() || reference <= 0.0 {
        return Err(format!(
            "reference bytes_per_flow {reference} is not a positive number"
        ));
    }
    if !current.is_finite() || current <= 0.0 {
        return Err(format!(
            "measured bytes_per_flow {current} is not a positive number"
        ));
    }
    let change = current / reference - 1.0;
    let ceiling = reference * (1.0 + max_growth);
    if current > ceiling {
        return Err(format!(
            "bytes_per_flow grew {:.1}% (measured {current:.0} vs reference {reference:.0}, \
             budget +{:.0}%)",
            change * 100.0,
            max_growth * 100.0,
        ));
    }
    Ok(change)
}

/// Absolute ceiling on the churn phase's bytes/flow (`exp_throughput
/// --max-bytes-per-flow`). Independent of any reference record: the
/// per-flow budget is a design property of the slab + resident-int8
/// layout (see `clap_core::stream` docs), so CI pins the absolute number
/// rather than only its drift.
pub fn check_bytes_per_flow(bytes_per_flow: f64, ceiling: f64) -> Result<(), String> {
    if !bytes_per_flow.is_finite() || bytes_per_flow <= 0.0 {
        return Err(format!(
            "measured bytes_per_flow {bytes_per_flow} is not a positive number"
        ));
    }
    if bytes_per_flow > ceiling {
        return Err(format!(
            "bytes_per_flow {bytes_per_flow:.0} exceeds the ceiling {ceiling:.0} \
             (the flow table no longer fits its per-flow budget)"
        ));
    }
    Ok(())
}

/// Absolute ceiling on the telemetry tax (`exp_throughput
/// --max-telemetry-overhead`): the fractional single-stream pps cost of
/// running with live counters + stage clocks attached versus detached,
/// measured back to back in one process (machine speed cancels out).
/// Negative overhead (telemetry-on measuring faster, i.e. noise) passes;
/// a non-finite measurement or a cost past the budget fails.
pub fn check_telemetry_overhead(overhead: f64, budget: f64) -> Result<(), String> {
    if !overhead.is_finite() {
        return Err(format!(
            "measured telemetry_overhead {overhead} is not a number"
        ));
    }
    if overhead > budget {
        return Err(format!(
            "telemetry overhead {:.2}% exceeds the {:.2}% budget \
             (the observability plane is taxing the hot path)",
            overhead * 100.0,
            budget * 100.0,
        ));
    }
    Ok(())
}

/// Renders the deterministic per-flow verdict table of a streaming replay:
/// one row per finalized flow, sorted by score (desc) with a total
/// tie-break on flow identity. Shared by `exp_stream_pcap` and the sharded
/// determinism regression tests, which assert the rendered bytes are
/// identical across runs and shard counts — so this function must stay a
/// pure function of the verdict *set* (never of arrival or thread order).
pub fn verdict_table(closed: &[clap_core::ClosedFlow], top_n: usize) -> String {
    // Identity strings are formatted once per flow, not per comparison.
    let mut flows: Vec<(String, &clap_core::ClosedFlow)> =
        closed.iter().map(|c| (format!("{}", c.key), c)).collect();
    flows.sort_by(|(ka, a), (kb, b)| {
        b.scored
            .score
            .total_cmp(&a.scored.score)
            .then_with(|| ka.cmp(kb))
            .then(a.packets.cmp(&b.packets))
    });
    let rows: Vec<Vec<String>> = flows
        .iter()
        .map(|(_, c)| c)
        .take(top_n)
        .map(|c| {
            vec![
                format!("{}", c.key.client),
                format!("{}", c.key.server),
                c.packets.to_string(),
                format!("{:?}", c.reason),
                format!("{:.6}", c.scored.score),
                c.scored.peak_packet.to_string(),
            ]
        })
        .collect();
    render_table(
        &["Client", "Server", "Pkts", "Closed by", "Score", "Peak pkt"],
        &rows,
    )
}

/// Renders the per-shard supervision counters of a sharded run: one row
/// per shard plus a totals row — the operator-facing health view of
/// `exp_stream_pcap` and `exp_throughput`.
pub fn shard_stats_table(stats: &[clap_core::ShardStats]) -> String {
    let row = |label: String, s: &clap_core::ShardStats| {
        vec![
            label,
            s.pushed.to_string(),
            s.packets.to_string(),
            s.flows_closed.to_string(),
            s.full_waits.to_string(),
            s.dropped.to_string(),
            s.quarantined.to_string(),
            s.restarts.to_string(),
            s.degraded_windows.to_string(),
        ]
    };
    let mut rows: Vec<Vec<String>> = stats.iter().map(|s| row(s.shard.to_string(), s)).collect();
    let health = clap_core::ShardHealth::of(stats);
    rows.push(vec![
        "total".to_string(),
        health.pushed.to_string(),
        health.scored.to_string(),
        stats
            .iter()
            .map(|s| s.flows_closed)
            .sum::<u64>()
            .to_string(),
        health.full_waits.to_string(),
        health.dropped.to_string(),
        health.quarantined.to_string(),
        health.restarts.to_string(),
        health.degraded_windows.to_string(),
    ]);
    render_table(
        &[
            "Shard", "Pushed", "Scored", "Flows", "Waits", "Dropped", "Quar", "Restarts",
            "Degraded",
        ],
        &rows,
    )
}

/// Returns the value following a `--flag` argument.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True when `--flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// All three trained models plus the data splits they share.
pub struct TrainedModels {
    pub clap: Clap,
    pub baseline1: Baseline1,
    pub kitsune: KitsuneLite,
    pub train: Vec<Connection>,
    pub test_benign: Vec<Connection>,
    pub summary: clap_core::TrainSummary,
}

/// Generates the benign splits and trains CLAP + both baselines.
pub fn train_all(preset: &Preset) -> TrainedModels {
    eprintln!(
        "[{}] generating {} train / {} test connections…",
        preset.name, preset.train_conns, preset.test_benign
    );
    let train = traffic_gen::dataset(preset.seed, preset.train_conns);
    let test_benign = traffic_gen::dataset(preset.seed ^ 0x7e57, preset.test_benign);

    eprintln!("[{}] training CLAP…", preset.name);
    let (clap, summary) = Clap::train(&train, &preset.clap);
    eprintln!(
        "[{}] CLAP: rnn accuracy {:.3}, {} profiles, final AE loss {:.5}",
        preset.name,
        summary.rnn_accuracy,
        summary.profiles,
        summary.ae_losses.last().copied().unwrap_or(f32::NAN)
    );
    eprintln!("[{}] training Baseline #1…", preset.name);
    let baseline1 = Baseline1::train(&train, &preset.baseline1);
    eprintln!("[{}] training Baseline #2 (Kitsune-lite)…", preset.name);
    let kitsune = KitsuneLite::train(&train, &preset.kitsune);

    TrainedModels {
        clap,
        baseline1,
        kitsune,
        train,
        test_benign,
        summary,
    }
}

/// Detection numbers for one (strategy, model) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionRow {
    pub strategy_id: String,
    pub strategy_name: String,
    pub source: String,
    pub category: String,
    pub auc: [f32; 3],
    pub eer: [f32; 3],
}

/// Localization numbers for one strategy (CLAP only, as in the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalizationRow {
    pub strategy_id: String,
    pub strategy_name: String,
    pub source: String,
    pub top1: f32,
    pub top3: f32,
    pub top5: f32,
}

/// Builds the adversarial test set for a strategy from held-out benign
/// connections.
pub fn adversarial_set(strategy: &Strategy, preset: &Preset) -> Vec<AttackResult> {
    let base = traffic_gen::dataset(
        preset.seed ^ 0xadb0 ^ dpi_attacks_hash(strategy.id),
        preset.test_adv_per_strategy,
    );
    build_adversarial_set(strategy, &base, preset.seed)
}

fn dpi_attacks_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Evaluates detection for one strategy across all three models.
pub fn evaluate_strategy(
    models: &TrainedModels,
    strategy: &Strategy,
    preset: &Preset,
    benign_scores: &BenignScores,
) -> DetectionRow {
    let adv = adversarial_set(strategy, preset);
    let adv_conns: Vec<Connection> = adv.iter().map(|r| r.connection.clone()).collect();
    let clap_scores: Vec<f32> = models
        .clap
        .score_connections(&adv_conns)
        .iter()
        .map(|s| s.score)
        .collect();
    let b1_scores: Vec<f32> = models
        .baseline1
        .score_connections(&adv_conns)
        .iter()
        .map(|s| s.score)
        .collect();
    let b2_scores: Vec<f32> = models
        .kitsune
        .score_connections(&adv_conns)
        .iter()
        .map(|s| s.score)
        .collect();

    DetectionRow {
        strategy_id: strategy.id.to_string(),
        strategy_name: strategy.name.to_string(),
        source: format!("{:?}", strategy.source),
        category: format!("{:?}", strategy.category),
        auc: [
            auc_roc(&benign_scores.clap, &clap_scores),
            auc_roc(&benign_scores.baseline1, &b1_scores),
            auc_roc(&benign_scores.kitsune, &b2_scores),
        ],
        eer: [
            equal_error_rate(&benign_scores.clap, &clap_scores),
            equal_error_rate(&benign_scores.baseline1, &b1_scores),
            equal_error_rate(&benign_scores.kitsune, &b2_scores),
        ],
    }
}

/// Benign score distributions per model (computed once, reused across
/// strategies).
pub struct BenignScores {
    pub clap: Vec<f32>,
    pub baseline1: Vec<f32>,
    pub kitsune: Vec<f32>,
}

pub fn benign_scores(models: &TrainedModels) -> BenignScores {
    BenignScores {
        clap: models
            .clap
            .score_connections(&models.test_benign)
            .iter()
            .map(|s| s.score)
            .collect(),
        baseline1: models
            .baseline1
            .score_connections(&models.test_benign)
            .iter()
            .map(|s| s.score)
            .collect(),
        kitsune: models
            .kitsune
            .score_connections(&models.test_benign)
            .iter()
            .map(|s| s.score)
            .collect(),
    }
}

/// Detection summary for one Extended protocol-diversity family (IPv6
/// extension-header corruption, UDP length/checksum games,
/// overlapping-fragment evasion), measured against a *mixed*
/// v4/v6/TCP/UDP benign distribution — the paper's 73 strategies are
/// evaluated in `exp_detection` over the all-v4 corpus; these families
/// only exist on protocol-diverse traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedFamilyRow {
    pub strategy_id: String,
    pub strategy_name: String,
    /// Adversarial connections the family applied to.
    pub connections: usize,
    /// CLAP AUC against the mixed benign score distribution.
    pub auc: f32,
    /// Fraction of adversarial connections scoring above the
    /// 95th-percentile mixed-benign score (≈5% FPR operating point).
    pub detection_rate: f32,
}

/// Score at the `q`-quantile (0..=1) of `scores`, by sorted rank.
fn quantile(scores: &[f32], q: f32) -> f32 {
    let mut sorted = scores.to_vec();
    sorted.sort_by(f32::total_cmp);
    if sorted.is_empty() {
        return f32::NAN;
    }
    let idx = ((sorted.len() - 1) as f32 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Evaluates CLAP detection for the three Extended protocol-diversity
/// families over mixed v4/v6/TCP/UDP traffic. CLAP-only: the families are
/// defined by protocol structure the baselines' feature sets do not model.
pub fn evaluate_extended_families(
    models: &TrainedModels,
    preset: &Preset,
) -> Vec<ExtendedFamilyRow> {
    let benign = traffic_gen::mixed_dataset(preset.seed ^ 0x6e1, preset.test_benign.max(32));
    let benign_scores: Vec<f32> = models
        .clap
        .score_connections(&benign)
        .iter()
        .map(|s| s.score)
        .collect();
    let threshold = quantile(&benign_scores, 0.95);
    dpi_attacks::strategies_from(dpi_attacks::AttackSource::Extended)
        .into_iter()
        .map(|strat| {
            let base = traffic_gen::mixed_dataset(
                preset.seed ^ 0xadb0 ^ dpi_attacks_hash(strat.id),
                preset.test_adv_per_strategy.max(16),
            );
            let adv = build_adversarial_set(strat, &base, preset.seed);
            let conns: Vec<Connection> = adv.iter().map(|r| r.connection.clone()).collect();
            let scores: Vec<f32> = models
                .clap
                .score_connections(&conns)
                .iter()
                .map(|s| s.score)
                .collect();
            let detected = scores.iter().filter(|&&s| s > threshold).count();
            ExtendedFamilyRow {
                strategy_id: strat.id.to_string(),
                strategy_name: strat.name.to_string(),
                connections: conns.len(),
                auc: auc_roc(&benign_scores, &scores),
                detection_rate: detected as f32 / scores.len().max(1) as f32,
            }
        })
        .collect()
}

/// Evaluates CLAP's Top-1/3/5 localization for one strategy
/// (paper Figures 10–12).
pub fn evaluate_localization(
    models: &TrainedModels,
    strategy: &Strategy,
    preset: &Preset,
) -> LocalizationRow {
    let adv = adversarial_set(strategy, preset);
    let mut hits = [0usize; 3];
    for r in &adv {
        let scored = models.clap.score_connection(&r.connection);
        let identified = scored.peak_packet;
        for (slot, n) in [(0, 1usize), (1, 3), (2, 5)] {
            hits[slot] += usize::from(top_n_hit(identified, &r.adversarial_indices, n));
        }
    }
    let total = adv.len().max(1) as f32;
    LocalizationRow {
        strategy_id: strategy.id.to_string(),
        strategy_name: strategy.name.to_string(),
        source: format!("{:?}", strategy.source),
        top1: hits[0] as f32 / total,
        top3: hits[1] as f32 / total,
        top5: hits[2] as f32 / total,
    }
}

/// Mean of a slice (NaN-free).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Renders an ASCII table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let sep = |c: char| {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&std::iter::repeat_n(c, w + 2).collect::<String>());
            s.push('+');
        }
        s
    };
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            s.push_str(&format!(" {cell:<w$} |"));
        }
        s
    };
    let mut out = String::new();
    out.push_str(&sep('-'));
    out.push('\n');
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep('='));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&sep('-'));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_scale() {
        let ci = Preset::ci();
        let quick = Preset::quick();
        let paper = Preset::paper();
        assert!(ci.train_conns < quick.train_conns);
        assert!(quick.train_conns < paper.train_conns);
        assert_eq!(paper.train_conns, 31_198, "Table 4 training connections");
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--preset", "ci", "--table1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--preset").as_deref(), Some("ci"));
        assert!(has_flag(&args, "--table1"));
        assert!(!has_flag(&args, "--table2"));
        assert_eq!(Preset::from_args(&args).name, "ci");
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn mean_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn regression_gate_passes_within_budget() {
        // Faster than reference: positive change.
        let change = check_throughput_regression(1200.0, 1000.0, 0.20).unwrap();
        assert!((change - 0.2).abs() < 1e-9);
        // 10% slower is inside a 20% budget.
        let change = check_throughput_regression(900.0, 1000.0, 0.20).unwrap();
        assert!((change + 0.1).abs() < 1e-9);
        // Exactly on the floor passes (the gate fires strictly below it).
        assert!(check_throughput_regression(800.0, 1000.0, 0.20).is_ok());
    }

    #[test]
    fn regression_gate_fails_past_budget() {
        let err = check_throughput_regression(799.0, 1000.0, 0.20).unwrap_err();
        assert!(err.contains("regressed"), "unexpected message: {err}");
        assert!(check_throughput_regression(500.0, 1000.0, 0.20).is_err());
    }

    #[test]
    fn regression_gate_rejects_garbage_inputs() {
        assert!(check_throughput_regression(f64::NAN, 1000.0, 0.20).is_err());
        assert!(check_throughput_regression(1000.0, f64::NAN, 0.20).is_err());
        assert!(check_throughput_regression(1000.0, 0.0, 0.20).is_err());
        assert!(check_throughput_regression(-5.0, 1000.0, 0.20).is_err());
        assert!(check_throughput_regression(1000.0, f64::INFINITY, 0.20).is_err());
    }

    #[test]
    fn reference_parsing_ignores_extra_fields() {
        // A full report record (with fields the gate does not read) must
        // parse as a reference.
        let json = r#"{
            "preset": "ci",
            "threads": 1,
            "clap_fused_pps": 27767.36,
            "clap_unfused_pps": 8982.54,
            "fusion_speedup": 3.09
        }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert!((reference.clap_fused_pps - 27767.36).abs() < 1e-9);
        assert!((reference.fusion_speedup.unwrap() - 3.09).abs() < 1e-9);
    }

    #[test]
    fn reference_without_speedup_field_still_parses() {
        // Pre-ratio-gate references carry only pps; the speedup gate must
        // be skippable, not a parse failure.
        let json = r#"{ "clap_fused_pps": 1000.0 }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert_eq!(reference.fusion_speedup, None);
        assert!(ThroughputReference::from_json("{}").is_err());
    }

    #[test]
    fn malformed_speedup_field_is_a_hard_error() {
        // A present-but-broken fusion_speedup must NOT silently downgrade
        // to a pps-only reference (that would disable the ratio gate).
        for bad in [
            r#"{ "clap_fused_pps": 1000.0, "fusion_speedup": "3.1" }"#,
            r#"{ "clap_fused_pps": 1000.0, "fusion_speedup": null }"#,
        ] {
            let err = ThroughputReference::from_json(bad).unwrap_err();
            assert!(err.contains("fusion_speedup"), "unexpected message: {err}");
        }
    }

    #[test]
    fn speedup_gate_is_machine_independent_defense() {
        // Within budget: a small ratio dip passes.
        let change = check_speedup_regression(2.9, 3.0, 0.20).unwrap();
        assert!(change < 0.0 && change > -0.20);
        // A halved speedup — e.g. SIMD dispatch silently falling back to
        // scalar — fails even if absolute pps grew on a faster runner.
        let err = check_speedup_regression(1.5, 3.1, 0.20).unwrap_err();
        assert!(
            err.contains("fusion speedup regressed"),
            "unexpected message: {err}"
        );
        // Garbage ratios are rejected like garbage throughputs.
        assert!(check_speedup_regression(f64::NAN, 3.0, 0.20).is_err());
        assert!(check_speedup_regression(3.0, 0.0, 0.20).is_err());
    }

    #[test]
    fn reference_with_sharded_pps_parses() {
        let json = r#"{
            "preset": "ci",
            "clap_fused_pps": 27767.36,
            "fusion_speedup": 3.09,
            "clap_sharded_pps": 91234.5
        }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert!((reference.clap_sharded_pps.unwrap() - 91234.5).abs() < 1e-9);
        assert!((reference.fusion_speedup.unwrap() - 3.09).abs() < 1e-9);
    }

    #[test]
    fn reference_without_sharded_pps_skips_that_gate() {
        let json = r#"{ "clap_fused_pps": 1000.0, "fusion_speedup": 3.0 }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert_eq!(reference.clap_sharded_pps, None);
    }

    #[test]
    fn malformed_sharded_pps_is_a_hard_error() {
        for bad in [
            r#"{ "clap_fused_pps": 1000.0, "clap_sharded_pps": "fast" }"#,
            r#"{ "clap_fused_pps": 1000.0, "clap_sharded_pps": null }"#,
        ] {
            let err = ThroughputReference::from_json(bad).unwrap_err();
            assert!(
                err.contains("clap_sharded_pps"),
                "unexpected message: {err}"
            );
        }
    }

    #[test]
    fn sharded_gate_behaves_like_the_others() {
        assert!(check_sharded_regression(100_000.0, 90_000.0, 0.35).is_ok());
        let err = check_sharded_regression(40_000.0, 90_000.0, 0.35).unwrap_err();
        assert!(
            err.contains("sharded throughput regressed"),
            "unexpected message: {err}"
        );
        assert!(check_sharded_regression(f64::NAN, 90_000.0, 0.35).is_err());
    }

    #[test]
    fn reference_with_quant_speedup_parses() {
        let json = r#"{
            "clap_fused_pps": 27767.36,
            "fusion_speedup": 3.09,
            "clap_sharded_pps": 91234.5,
            "quant_speedup": 1.8
        }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert!((reference.quant_speedup.unwrap() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn reference_without_quant_speedup_skips_that_gate() {
        let json = r#"{ "clap_fused_pps": 1000.0 }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert_eq!(reference.quant_speedup, None);
    }

    #[test]
    fn malformed_quant_speedup_is_a_hard_error() {
        for bad in [
            r#"{ "clap_fused_pps": 1000.0, "quant_speedup": "2x" }"#,
            r#"{ "clap_fused_pps": 1000.0, "quant_speedup": null }"#,
        ] {
            let err = ThroughputReference::from_json(bad).unwrap_err();
            assert!(err.contains("quant_speedup"), "unexpected message: {err}");
        }
    }

    #[test]
    fn quant_gate_behaves_like_the_others() {
        assert!(check_quant_regression(1.7, 1.8, 0.30).is_ok());
        // Int8 degrading to f32 speed (ratio ~1.0) fails against a VNNI
        // reference outright…
        let err = check_quant_regression(1.0, 1.8, 0.30).unwrap_err();
        assert!(
            err.contains("quant speedup regressed"),
            "unexpected message: {err}"
        );
        // …but slips through the relative budget against the AVX2
        // reference (1.11 × 0.70 < 1.0) — which is exactly what the
        // absolute floor exists to catch.
        assert!(check_quant_regression(1.0, 1.11, 0.30).is_ok());
        assert!(check_quant_floor(1.0, 1.0).is_ok());
        let err = check_quant_floor(0.93, 1.0).unwrap_err();
        assert!(
            err.contains("below the required floor"),
            "unexpected message: {err}"
        );
        assert!(check_quant_floor(f64::NAN, 1.0).is_err());
        assert!(check_quant_floor(-1.0, 1.0).is_err());
        assert!(check_quant_regression(f64::NAN, 1.8, 0.30).is_err());
        assert!(check_quant_regression(1.8, 0.0, 0.30).is_err());
    }

    #[test]
    fn reference_with_scale_fields_parses() {
        let json = r#"{
            "clap_fused_pps": 27767.36,
            "scale_pps": 48000.5,
            "bytes_per_flow": 540.0
        }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert!((reference.scale_pps.unwrap() - 48000.5).abs() < 1e-9);
        assert!((reference.bytes_per_flow.unwrap() - 540.0).abs() < 1e-9);
    }

    #[test]
    fn reference_without_scale_fields_skips_those_gates() {
        let json = r#"{ "clap_fused_pps": 1000.0 }"#;
        let reference = ThroughputReference::from_json(json).unwrap();
        assert_eq!(reference.scale_pps, None);
        assert_eq!(reference.bytes_per_flow, None);
    }

    #[test]
    fn malformed_scale_fields_are_hard_errors() {
        for (bad, key) in [
            (
                r#"{ "clap_fused_pps": 1000.0, "scale_pps": "fast" }"#,
                "scale_pps",
            ),
            (
                r#"{ "clap_fused_pps": 1000.0, "bytes_per_flow": null }"#,
                "bytes_per_flow",
            ),
        ] {
            let err = ThroughputReference::from_json(bad).unwrap_err();
            assert!(err.contains(key), "unexpected message: {err}");
        }
    }

    #[test]
    fn scale_gate_behaves_like_the_others() {
        assert!(check_scale_regression(45_000.0, 48_000.0, 0.35).is_ok());
        let err = check_scale_regression(20_000.0, 48_000.0, 0.35).unwrap_err();
        assert!(
            err.contains("scale throughput regressed"),
            "unexpected message: {err}"
        );
        assert!(check_scale_regression(f64::NAN, 48_000.0, 0.35).is_err());
    }

    #[test]
    fn memory_gate_fails_on_growth_not_shrinkage() {
        // Memory regressions point the other way: shrinking is always
        // fine, growing past the budget fails.
        let change = check_memory_regression(500.0, 540.0, 0.10).unwrap();
        assert!(change < 0.0);
        assert!(check_memory_regression(590.0, 540.0, 0.10).is_ok());
        let err = check_memory_regression(700.0, 540.0, 0.10).unwrap_err();
        assert!(err.contains("bytes_per_flow grew"), "unexpected: {err}");
        assert!(check_memory_regression(f64::NAN, 540.0, 0.10).is_err());
        assert!(check_memory_regression(540.0, 0.0, 0.10).is_err());
    }

    #[test]
    fn bytes_per_flow_ceiling_gate() {
        assert!(check_bytes_per_flow(540.0, 700.0).is_ok());
        assert!(check_bytes_per_flow(700.0, 700.0).is_ok());
        let err = check_bytes_per_flow(701.0, 700.0).unwrap_err();
        assert!(err.contains("exceeds the ceiling"), "unexpected: {err}");
        assert!(check_bytes_per_flow(f64::NAN, 700.0).is_err());
        assert!(check_bytes_per_flow(-5.0, 700.0).is_err());
    }

    #[test]
    fn telemetry_overhead_gate() {
        assert!(check_telemetry_overhead(0.01, 0.02).is_ok());
        assert!(check_telemetry_overhead(0.02, 0.02).is_ok());
        // Noise can make the telemetry-on run the faster one; a negative
        // overhead is a pass, never an error.
        assert!(check_telemetry_overhead(-0.05, 0.02).is_ok());
        let err = check_telemetry_overhead(0.08, 0.02).unwrap_err();
        assert!(err.contains("exceeds the"), "unexpected message: {err}");
        assert!(check_telemetry_overhead(f64::NAN, 0.02).is_err());
        assert!(check_telemetry_overhead(f64::INFINITY, 0.02).is_err());
    }

    #[test]
    fn scale_preset_rides_on_ci_models() {
        let s = Preset::scale();
        let ci = Preset::ci();
        assert_eq!(s.name, "scale");
        assert_eq!(s.train_conns, ci.train_conns);
        let args: Vec<String> = ["--preset", "scale"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(Preset::from_args(&args).name, "scale");
    }

    #[test]
    fn shard_scaling_floor_gate() {
        assert!(check_shard_scaling_floor(2.8, 2.5).is_ok());
        let err = check_shard_scaling_floor(1.02, 2.5).unwrap_err();
        assert!(
            err.contains("below the required floor"),
            "unexpected message: {err}"
        );
        assert!(check_shard_scaling_floor(f64::NAN, 2.5).is_err());
        assert!(check_shard_scaling_floor(-1.0, 2.5).is_err());
    }

    #[test]
    fn verdict_table_is_order_insensitive() {
        use clap_core::{CloseReason, ClosedFlow, ScoredConnection};
        use net_packet::{Endpoint, FlowKey};
        use std::net::Ipv4Addr;
        let flow = |a: u8, score: f32| ClosedFlow {
            key: FlowKey::new(
                Endpoint::new(Ipv4Addr::new(10, 0, 0, a), 1000 + u16::from(a)),
                Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), 80),
            ),
            packets: usize::from(a) + 3,
            reason: CloseReason::Drained,
            arrival: u64::from(a),
            scored: ScoredConnection {
                peak_packet: 1,
                peak_window: 0,
                window_errors: vec![score],
                score,
            },
        };
        // Two flows with identical scores exercise the identity tie-break.
        let mut closed = vec![flow(1, 0.5), flow(2, 0.75), flow(3, 0.5)];
        let table = verdict_table(&closed, 10);
        closed.reverse();
        assert_eq!(
            verdict_table(&closed, 10),
            table,
            "rendered verdicts must not depend on completion order"
        );
        let top = verdict_table(&closed, 1);
        assert!(top.contains("0.750000"), "top-1 keeps the highest score");
        assert!(!top.contains("0.500000"));
    }

    #[test]
    fn reference_load_reports_missing_file() {
        let err = ThroughputReference::load("/nonexistent/BENCH_reference.json").unwrap_err();
        assert!(err.contains("cannot read"), "unexpected message: {err}");
    }
}
