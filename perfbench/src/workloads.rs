//! The three workloads, their closed-loop drivers and the output checks.
//!
//! Every workload is a closed loop: one driver thread issues the next
//! `advance` only after the previous pause returned. One *operation* is one
//! advance + pause cycle; it fails on a typed error, on a checkpoint that
//! does not verify or does not resume to the same slot, delivered and
//! remaining counts, and on a failed output check.

use crate::report::{json_string, ns_since};
use mac_channel::{ArrivalModel, ArrivalStream, ShardStrategy, ShardedArrivalStream};
use mac_prob::rng::derive_seed;
use mac_prob::sketch::StreamingLatencyStats;
use mac_protocols::analysis::{ebb_makespan_bound, ofa_makespan_bound};
use mac_protocols::{ProtocolFamily, ProtocolKind};
use mac_sim::dynamic::ARRIVAL_STREAM;
use mac_sim::session::SHARD_STREAM;
use mac_sim::{
    Checkpoint, CheckpointKind, RunOptions, Session, ShardedSession, StallConfig, StallPolicy,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Instance size of every paper-sweep session (Figure 1's largest k).
const PAPER_K: u64 = 10_000_000;
/// Slots per paper-sweep advance.
const PAPER_PAUSE: u64 = 1 << 22;
/// Poisson arrival rate of the saturated session (messages per slot).
const SATURATED_RATE: f64 = 2.0;
/// Arrival horizon of the saturated session (the saturation map's).
const SATURATED_HORIZON: u64 = 500_000;
/// Live-class cap of the saturated session.
const SATURATED_CAP: u64 = 64;
/// Slots per saturated-session advance.
const SATURATED_PAUSE: u64 = 1 << 16;
/// Zero-delivery window of the saturated session's watchdog.
const WATCHDOG_WINDOW: u64 = 2_000;
/// Messages over all bursts of the fleet.
const FLEET_K: u64 = 10_000_000;
/// Shards of the fleet.
pub const FLEET_SHARDS: u32 = 2;
/// Slots per fleet advance (per shard).
const FLEET_PAUSE: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    SaturatedSession,
    BurstFleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-sweep" => Some(Self::PaperSweep),
            "saturated-session" => Some(Self::SaturatedSession),
            "burst-fleet" => Some(Self::BurstFleet),
            _ => None,
        }
    }
}

/// Protocol tags of the per-protocol advance spans.
pub const TAGS: [&str; 6] = ["ofa", "lfa-half", "lfa-tenth", "oracle", "ebb", "llib"];

fn tag_of(kind: &ProtocolKind) -> usize {
    match kind {
        ProtocolKind::OneFailAdaptive { .. } | ProtocolKind::RandomizedParityOneFail { .. } => 0,
        ProtocolKind::LogFailsAdaptive { xi_t, .. } if *xi_t >= 0.5 => 1,
        ProtocolKind::LogFailsAdaptive { .. } => 2,
        ProtocolKind::KnownKOracle => 3,
        ProtocolKind::ExpBackonBackoff { .. } | ProtocolKind::RExponentialBackoff { .. } => 4,
        ProtocolKind::LoglogIteratedBackoff { .. } => 5,
    }
}

/// The paper's five configurations plus the known-k oracle.
fn sweep_lineup() -> Vec<ProtocolKind> {
    let mut kinds = ProtocolKind::paper_lineup();
    kinds.push(ProtocolKind::KnownKOracle);
    kinds
}

fn saturated_model() -> ArrivalModel {
    ArrivalModel::Poisson {
        rate: SATURATED_RATE,
        horizon: SATURATED_HORIZON,
    }
}

/// Ten bursts of k/10 spaced 0.8·k apart (an even spacing, so One-fail
/// Adaptive's AT/BT parity never splits two live bursts).
fn fleet_model() -> ArrivalModel {
    ArrivalModel::Bursts {
        bursts: (0..10)
            .map(|i| (i * FLEET_K / 10 * 8, FLEET_K / 10))
            .collect(),
    }
}

const FLEET_KIND: ProtocolKind = ProtocolKind::OneFailAdaptive { delta: 2.72 };

/// Everything a workload drives, as built by [`build`].
pub enum Rig {
    Sweep(Vec<Session>),
    Saturated(Session),
    Fleet(ShardedSession),
}

/// Constructs every session the workload uses — the work `setup_s` times.
pub fn build(workload: Workload, seed: u64) -> Result<Rig, String> {
    let err = |e: mac_sim::SessionError| format!("setup: {e}");
    Ok(match workload {
        Workload::PaperSweep => Rig::Sweep(
            sweep_lineup()
                .iter()
                .map(|kind| Session::batched(kind, PAPER_K, seed, &RunOptions::default()))
                .collect::<Result<_, _>>()
                .map_err(err)?,
        ),
        Workload::SaturatedSession => {
            let options = RunOptions {
                max_live_cohorts: SATURATED_CAP,
                ..RunOptions::default()
            };
            let mut session = Session::dynamic(
                &ProtocolKind::KnownKOracle,
                &saturated_model(),
                seed,
                &options,
            )
            .map_err(err)?;
            session.set_watchdog(Some(StallConfig::new(WATCHDOG_WINDOW, StallPolicy::Report)));
            Rig::Saturated(session)
        }
        Workload::BurstFleet => Rig::Fleet(
            ShardedSession::new(
                &FLEET_KIND,
                &fleet_model(),
                seed,
                &RunOptions::default(),
                FLEET_SHARDS,
            )
            .map_err(err)?,
        ),
    })
}

/// Cumulative arrivals by slot, replayed by the benchmark from the
/// documented seed derivation, to check message conservation at pauses.
#[derive(Debug, Default)]
struct ArrivalPrefix {
    slots: Vec<u64>,
    cumulative: Vec<u64>,
}

impl ArrivalPrefix {
    fn collect(mut next: impl FnMut() -> Option<(u64, u64)>) -> Self {
        let mut prefix = Self::default();
        let mut total = 0;
        while let Some((slot, count)) = next() {
            total += count;
            prefix.slots.push(slot);
            prefix.cumulative.push(total);
        }
        prefix
    }

    /// Messages arriving strictly before `slot`.
    fn before(&self, slot: u64) -> u64 {
        match self.slots.partition_point(|&s| s < slot) {
            0 => 0,
            i => self.cumulative[i - 1],
        }
    }

    fn total(&self) -> u64 {
        self.cumulative.last().copied().unwrap_or(0)
    }
}

/// What the checks expect of a workload's sessions, prepared once per run
/// (outside every timed region).
pub struct Expect {
    /// One arrival prefix per channel of a dynamic workload.
    channels: Vec<ArrivalPrefix>,
}

pub fn expectations(workload: Workload, seed: u64) -> Expect {
    let arrival_seed = derive_seed(seed, &[ARRIVAL_STREAM]);
    let channels = match workload {
        Workload::PaperSweep => Vec::new(),
        Workload::SaturatedSession => {
            let mut stream = ArrivalStream::new(&saturated_model(), arrival_seed);
            vec![ArrivalPrefix::collect(|| stream.next_burst())]
        }
        Workload::BurstFleet => {
            let salt = derive_seed(seed, &[SHARD_STREAM]);
            (0..FLEET_SHARDS)
                .map(|shard| {
                    let mut stream = ShardedArrivalStream::with_strategy(
                        ArrivalStream::new(&fleet_model(), arrival_seed),
                        salt,
                        shard,
                        FLEET_SHARDS,
                        ShardStrategy::Uniform,
                    );
                    ArrivalPrefix::collect(|| stream.next_burst())
                })
                .collect()
        }
    };
    Expect { channels }
}

/// Spans of a traced pass, in nanoseconds.
#[derive(Debug, Default)]
pub struct Spans {
    pub setup_ns: Vec<f64>,
    /// Per advance call: ns per slot advanced (all channels of the call).
    pub advance_ns_per_slot: Vec<f64>,
    /// The same, split by protocol tag ([`TAGS`]).
    pub advance_by_tag: [Vec<f64>; 6],
    pub advance_ns: f64,
    /// Whole pauses, children included.
    pub pause_ns: f64,
    pub quantile_ns: Vec<f64>,
    pub checkpoint_ns: Vec<f64>,
    pub restore_ns: Vec<f64>,
    pub merge_ns: Vec<f64>,
}

impl Spans {
    /// Pause time not covered by its child spans: the output checks.
    pub fn pause_self_ns(&self) -> f64 {
        let children: f64 = [
            &self.quantile_ns,
            &self.checkpoint_ns,
            &self.restore_ns,
            &self.merge_ns,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
        self.pause_ns - children
    }
}

/// Starts a span clock only when tracing.
fn start(spans: &Option<&mut Spans>) -> Option<Instant> {
    spans.is_some().then(Instant::now)
}

fn lap(clock: Option<Instant>) -> f64 {
    clock.map_or(0.0, ns_since)
}

/// Public counts of one channel (a sweep session or a fleet shard).
#[derive(Debug, Clone, Default)]
pub struct ChannelCounts {
    pub tag: usize,
    pub family: Option<ProtocolFamily>,
    pub slots: u64,
    pub silent: u64,
    pub collisions: u64,
    pub deliveries: u64,
    pub merges: u64,
    pub peak_classes: u64,
}

/// One pass: setup, the advance + pause loop, and the final checks.
#[derive(Debug, Default)]
pub struct PassOutcome {
    pub setup_ns: f64,
    pub loop_ns: f64,
    pub channels: Vec<ChannelCounts>,
    pub pauses: u64,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Words over every checkpoint frame taken at a pause.
    pub checkpoint_words: u64,
    pub max_frame_bytes: usize,
    /// Largest sketch rank-error bound as a share of its item count.
    pub rank_error_share: f64,
    /// Simulated-statistics signature (JSON), identical for equal seeds.
    pub signature: String,
    last_failed: bool,
}

impl PassOutcome {
    pub fn slots(&self) -> u64 {
        self.channels.iter().map(|c| c.slots).sum()
    }

    pub fn deliveries(&self) -> u64 {
        self.channels.iter().map(|c| c.deliveries).sum()
    }

    pub fn busy_slots(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.slots - c.silent.min(c.slots))
            .sum()
    }

    pub fn collisions(&self) -> u64 {
        self.channels.iter().map(|c| c.collisions).sum()
    }

    fn op(&mut self, result: Result<(), String>) -> bool {
        self.ops += 1;
        self.last_failed = result.is_err();
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                false
            }
        }
    }

    /// A final-check failure, charged to the last operation.
    fn fail_final(&mut self, e: String) {
        if !self.last_failed {
            self.last_failed = true;
            if self.ops == 0 {
                self.ops = 1;
            }
            self.failed += 1;
        }
        self.errors.push(e);
    }

    fn frame(&mut self, words: usize) {
        self.pauses += 1;
        self.checkpoint_words += words as u64;
        self.max_frame_bytes = self.max_frame_bytes.max(words * 8);
    }
}

/// Runs one pass of `workload`.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    expect: &Expect,
    mut spans: Option<&mut Spans>,
) -> PassOutcome {
    let mut out = PassOutcome::default();
    let t = Instant::now();
    let rig = build(workload, seed);
    out.setup_ns = ns_since(t);
    if let Some(sp) = spans.as_deref_mut() {
        sp.setup_ns.push(out.setup_ns);
    }
    match rig {
        Err(e) => {
            out.op(Err(e));
        }
        Ok(Rig::Sweep(sessions)) => drive_sweep(sessions, &mut out, &mut spans),
        Ok(Rig::Saturated(session)) => drive_saturated(session, expect, &mut out, &mut spans),
        Ok(Rig::Fleet(fleet)) => drive_fleet(fleet, expect, &mut out, &mut spans),
    }
    out
}

/// A session's state as seen through its public counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Clocks {
    slot: u64,
    delivered: u64,
    remaining: u64,
    finished: bool,
}

fn clocks(s: &Session) -> Clocks {
    Clocks {
        slot: s.slot(),
        delivered: s.delivered(),
        remaining: s.remaining(),
        finished: s.is_finished(),
    }
}

/// What a pause checks on one channel.
struct ChannelSpec<'a> {
    name: &'a str,
    /// Most slots one advance may move the clock (dynamic channels).
    budget: Option<u64>,
    /// Messages the channel serves.
    total: u64,
    /// Arrivals by slot (dynamic channels).
    arrivals: Option<&'a ArrivalPrefix>,
}

/// Checks one channel at a pause: the clock only moves forward (by at most
/// the budget when there is one), `delivered + remaining` is the channel's
/// message count, and on a dynamic channel `delivered + backlog` is the
/// number of messages that arrived before the clock.
fn check_channel(spec: &ChannelSpec, before: u64, s: &Session) -> Result<(), String> {
    let ChannelSpec {
        name,
        budget,
        total,
        arrivals,
    } = *spec;
    let now = clocks(s);
    if now.slot < before {
        return Err(format!(
            "{name}: clock went back from {before} to {}",
            now.slot
        ));
    }
    if let Some(budget) = budget {
        if now.slot - before > budget {
            return Err(format!(
                "{name}: advanced {} slots on a budget of {budget}",
                now.slot - before
            ));
        }
    }
    if now.delivered + now.remaining != total {
        return Err(format!(
            "{name}: delivered {} + remaining {} != {total} messages",
            now.delivered, now.remaining
        ));
    }
    if let Some(prefix) = arrivals {
        let arrived = if now.finished && now.remaining == 0 {
            total
        } else {
            prefix.before(now.slot)
        };
        if now.delivered + s.backlog() != arrived {
            return Err(format!(
                "{name}: delivered {} + backlog {} != {arrived} arrived before slot {}",
                now.delivered,
                s.backlog(),
                now.slot
            ));
        }
    }
    Ok(())
}

/// Reads the pause's p50/p95/p99.
fn read_quantiles(stats: Option<&StreamingLatencyStats>) {
    if let Some(stats) = stats.filter(|s| s.count() > 0) {
        for q in [0.50, 0.95, 0.99] {
            black_box(stats.quantile(q));
        }
    }
}

/// Checkpoint → bytes → bytes back → verify → resume, checking that the
/// resumed session stands where the original did. Returns it and the frame
/// length in words. Each buffer is dropped as soon as the next stage holds
/// the state, so at most three copies of the state are alive at once.
fn round_trip(s: &Session, spans: &mut Option<&mut Spans>) -> Result<(Session, usize), String> {
    let t = start(spans);
    let checkpoint = s.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let words = checkpoint.words().len();
    let bytes = checkpoint.to_bytes();
    drop(checkpoint);
    if let Some(sp) = spans.as_deref_mut() {
        sp.checkpoint_ns.push(lap(t));
    }
    let t = start(spans);
    let back = Checkpoint::from_bytes(&bytes).map_err(|e| format!("from_bytes: {e}"))?;
    drop(bytes);
    match back.verify() {
        Ok(CheckpointKind::Session) => {}
        Ok(other) => return Err(format!("verify: a {other} frame from a session")),
        Err(e) => return Err(format!("verify: {e}")),
    }
    let resumed = Session::resume(&back).map_err(|e| format!("resume: {e}"))?;
    drop(back);
    if let Some(sp) = spans.as_deref_mut() {
        sp.restore_ns.push(lap(t));
    }
    if clocks(&resumed) != clocks(s) {
        return Err(format!(
            "resume: {:?} resumed as {:?}",
            clocks(s),
            clocks(&resumed)
        ));
    }
    Ok((resumed, words))
}

/// One advance of a single session, timed into the advance spans.
fn advance(
    s: &mut Session,
    budget: u64,
    tag: usize,
    spans: &mut Option<&mut Spans>,
) -> Result<(), String> {
    let before = s.slot();
    let t = start(spans);
    let status = s.advance(budget).map_err(|e| format!("advance: {e}"));
    if let Some(sp) = spans.as_deref_mut() {
        let ns = lap(t);
        let slots = s.slot().saturating_sub(before);
        sp.advance_ns += ns;
        if slots > 0 {
            let per_slot = ns / slots as f64;
            sp.advance_ns_per_slot.push(per_slot);
            sp.advance_by_tag[tag].push(per_slot);
        }
    }
    status.map(|_| ())
}

/// One pause of a single session: quantile read, checkpoint round trip and
/// the channel checks. Replaces the session by its resumed twin.
fn pause(
    s: &mut Session,
    spec: &ChannelSpec,
    before: u64,
    out: &mut PassOutcome,
    spans: &mut Option<&mut Spans>,
) -> Result<(), String> {
    let whole = start(spans);
    let t = start(spans);
    read_quantiles(s.live_stats());
    if let Some(sp) = spans.as_deref_mut() {
        sp.quantile_ns.push(lap(t));
    }
    let (resumed, words) = round_trip(s, spans)?;
    *s = resumed;
    out.frame(words);
    let checked = check_channel(spec, before, s);
    if let Some(sp) = spans.as_deref_mut() {
        sp.pause_ns += lap(whole);
    }
    checked
}

/// The signature fields of one finished channel.
fn channel_signature(
    sig: &mut String,
    label: &str,
    s: &mut Session,
    words: u64,
    counts: &ChannelCounts,
) {
    let (p50, p95, p99) = s.live_stats().map_or((0, 0, 0), |st| {
        (st.quantile(0.50), st.quantile(0.95), st.quantile(0.99))
    });
    let result = s.result();
    if !sig.ends_with('[') {
        sig.push_str(", ");
    }
    let _ = write!(
        sig,
        "{{\"channel\": {}, \"makespan\": {}, \"delivered\": {}, \"collisions\": {}, \"silent\": {}, \"merges\": {}, \"peak_classes\": {}, \"checkpoint_words\": {words}, \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}}",
        json_string(label),
        result.makespan,
        result.delivered,
        result.collisions,
        result.silent_slots,
        counts.merges,
        counts.peak_classes,
    );
}

fn rank_error_share(stats: Option<&StreamingLatencyStats>) -> f64 {
    stats
        .filter(|s| s.count() > 0)
        .map_or(0.0, |s| s.rank_error_bound() as f64 / s.count() as f64)
}

/// Public counts of a session, cohort detail included for dynamic ones.
fn counts_of(s: &mut Session, tag: usize) -> ChannelCounts {
    let result = s.result();
    let (merges, peak_classes) = s
        .cohort_run()
        .map_or((0, 0), |run| (run.merges, run.peak_cohorts as u64));
    ChannelCounts {
        tag,
        family: Some(s.kind().family()),
        slots: s.slot(),
        silent: result.silent_slots,
        collisions: result.collisions,
        deliveries: result.delivered,
        merges,
        peak_classes,
    }
}

/// Paper-sweep: the six batched sessions one after another, each to
/// completion in 2²²-slot advances.
fn drive_sweep(sessions: Vec<Session>, out: &mut PassOutcome, spans: &mut Option<&mut Spans>) {
    let loop_start = Instant::now();
    let mut finished = Vec::with_capacity(sessions.len());
    for mut s in sessions {
        let tag = tag_of(s.kind());
        let name = s.label().to_string();
        let spec = ChannelSpec {
            name: &name,
            budget: None,
            total: PAPER_K,
            arrivals: None,
        };
        let mut words = 0u64;
        while !s.is_finished() {
            let before = s.slot();
            let words_before = out.checkpoint_words;
            let cycle = advance(&mut s, PAPER_PAUSE, tag, spans)
                .and_then(|()| pause(&mut s, &spec, before, out, spans));
            words += out.checkpoint_words - words_before;
            if !out.op(cycle) {
                break;
            }
        }
        finished.push((s, tag, words, out.last_failed));
    }
    out.loop_ns = ns_since(loop_start);

    let mut sig = String::from("[");
    for (mut s, tag, words, last_failed) in finished {
        // A session's final checks are charged to its own last operation.
        out.last_failed = last_failed;
        let counts = counts_of(&mut s, tag);
        let name = s.label().to_string();
        let result = s.result();
        if !result.completed || result.delivered != PAPER_K {
            out.fail_final(format!(
                "{name}: finished with {} of {PAPER_K} delivered",
                result.delivered
            ));
        }
        let bound = match s.kind() {
            ProtocolKind::OneFailAdaptive { delta } => ofa_makespan_bound(*delta, PAPER_K).ok(),
            ProtocolKind::ExpBackonBackoff { delta } => ebb_makespan_bound(*delta, PAPER_K).ok(),
            _ => None,
        };
        if let Some(bound) = bound {
            if result.makespan as f64 > bound {
                out.fail_final(format!(
                    "{name}: makespan {} above its analytical bound {bound:.0}",
                    result.makespan
                ));
            }
        }
        out.rank_error_share = out.rank_error_share.max(rank_error_share(s.live_stats()));
        channel_signature(&mut sig, &name, &mut s, words, &counts);
        out.channels.push(counts);
    }
    sig.push(']');
    out.signature = sig;
}

/// Saturated-session: one capped dynamic session to Finished in 2¹⁶-slot
/// advances, the watchdog armed once at setup and carried by checkpoints.
fn drive_saturated(
    mut s: Session,
    expect: &Expect,
    out: &mut PassOutcome,
    spans: &mut Option<&mut Spans>,
) {
    let Some(arrivals) = expect.channels.first() else {
        out.op(Err(
            "no arrival replay for the saturated session".to_string()
        ));
        return;
    };
    let spec = ChannelSpec {
        name: "saturated-session",
        budget: Some(SATURATED_PAUSE),
        total: arrivals.total(),
        arrivals: Some(arrivals),
    };
    let tag = tag_of(s.kind());
    let loop_start = Instant::now();
    while !s.is_finished() {
        let before = s.slot();
        let cycle = advance(&mut s, SATURATED_PAUSE, tag, spans)
            .and_then(|()| pause(&mut s, &spec, before, out, spans));
        if !out.op(cycle) {
            break;
        }
    }
    out.loop_ns = ns_since(loop_start);

    let counts = counts_of(&mut s, tag);
    if counts.peak_classes > SATURATED_CAP {
        out.fail_final(format!(
            "saturated-session: {} live classes above the cap of {SATURATED_CAP}",
            counts.peak_classes
        ));
    }
    if !s.is_finished() {
        out.fail_final("saturated-session: stopped before Finished".to_string());
    }
    out.rank_error_share = rank_error_share(s.live_stats());
    let mut sig = String::from("[");
    let stall = s.stall().map_or(0, |r| r.detected_at_slot);
    let words = out.checkpoint_words;
    channel_signature(&mut sig, "saturated-session", &mut s, words, &counts);
    let _ = write!(sig, ", {{\"stall_detected_at\": {stall}}}]");
    out.signature = sig;
    out.channels.push(counts);
}

/// Burst-fleet: a 2-shard fleet to completion in 2²⁰-slot advances, with a
/// merged quantile read and a fleet checkpoint round trip at every pause.
fn drive_fleet(
    mut fleet: ShardedSession,
    expect: &Expect,
    out: &mut PassOutcome,
    spans: &mut Option<&mut Spans>,
) {
    let totals: Vec<u64> = expect.channels.iter().map(ArrivalPrefix::total).collect();
    if totals.iter().sum::<u64>() != FLEET_K || totals.len() != fleet.shards().len() {
        out.op(Err(format!(
            "burst-fleet: shard views {totals:?} do not partition {FLEET_K} messages"
        )));
        return;
    }
    let tag = tag_of(&FLEET_KIND);
    let loop_start = Instant::now();
    while !fleet.is_finished() {
        let cycle = fleet_cycle(&mut fleet, expect, &totals, tag, out, spans);
        if !out.op(cycle) {
            break;
        }
    }
    out.loop_ns = ns_since(loop_start);

    let merged = fleet.merged_result();
    if !merged.completed || merged.delivered != FLEET_K {
        out.fail_final(format!(
            "burst-fleet: finished with {} of {FLEET_K} delivered",
            merged.delivered
        ));
    }
    let stats = fleet.merged_stats();
    out.rank_error_share = rank_error_share(Some(&stats));
    let mut sig = String::from("[");
    let words = out.checkpoint_words;
    let mut channels = Vec::new();
    for (i, shard) in fleet.shards().iter().enumerate() {
        // Session::result needs `&mut`; checkpoints give an owned twin.
        let Ok(mut twin) = shard.checkpoint().and_then(|c| Session::resume(&c)) else {
            out.fail_final(format!("burst-fleet: shard {i} does not checkpoint"));
            continue;
        };
        let counts = counts_of(&mut twin, tag);
        channel_signature(&mut sig, &format!("shard-{i}"), &mut twin, 0, &counts);
        channels.push(counts);
    }
    let _ = write!(
        sig,
        ", {{\"channel\": \"merged\", \"makespan\": {}, \"delivered\": {}, \"checkpoint_words\": {words}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}]",
        merged.makespan,
        merged.delivered,
        stats.quantile(0.50),
        stats.quantile(0.95),
        stats.quantile(0.99)
    );
    out.signature = sig;
    out.channels = channels;
}

/// One fleet advance + pause.
fn fleet_cycle(
    fleet: &mut ShardedSession,
    expect: &Expect,
    totals: &[u64],
    tag: usize,
    out: &mut PassOutcome,
    spans: &mut Option<&mut Spans>,
) -> Result<(), String> {
    let before: Vec<u64> = fleet.shards().iter().map(Session::slot).collect();
    let t = start(spans);
    let status = fleet
        .advance(FLEET_PAUSE)
        .map_err(|e| format!("advance: {e}"));
    if let Some(sp) = spans.as_deref_mut() {
        let ns = lap(t);
        let slots: u64 = fleet
            .shards()
            .iter()
            .zip(&before)
            .map(|(s, b)| s.slot().saturating_sub(*b))
            .sum();
        sp.advance_ns += ns;
        if slots > 0 {
            sp.advance_ns_per_slot.push(ns / slots as f64);
            sp.advance_by_tag[tag].push(ns / slots as f64);
        }
    }
    let status = status?;

    let whole = start(spans);
    let t = start(spans);
    let stats = fleet.merged_stats();
    if let Some(sp) = spans.as_deref_mut() {
        sp.merge_ns.push(lap(t));
    }
    let t = start(spans);
    read_quantiles(Some(&stats));
    if let Some(sp) = spans.as_deref_mut() {
        sp.quantile_ns.push(lap(t));
    }

    let t = start(spans);
    let checkpoint = fleet.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let words = checkpoint.words().len();
    let bytes = checkpoint.to_bytes();
    drop(checkpoint);
    if let Some(sp) = spans.as_deref_mut() {
        sp.checkpoint_ns.push(lap(t));
    }
    let t = start(spans);
    let back = Checkpoint::from_bytes(&bytes).map_err(|e| format!("from_bytes: {e}"))?;
    drop(bytes);
    match back.verify() {
        Ok(CheckpointKind::Sharded) => {}
        Ok(other) => return Err(format!("verify: a {other} frame from a fleet")),
        Err(e) => return Err(format!("verify: {e}")),
    }
    let resumed = ShardedSession::resume(&back).map_err(|e| format!("resume: {e}"))?;
    drop(back);
    if let Some(sp) = spans.as_deref_mut() {
        sp.restore_ns.push(lap(t));
    }
    let old: Vec<Clocks> = fleet.shards().iter().map(clocks).collect();
    let new: Vec<Clocks> = resumed.shards().iter().map(clocks).collect();
    if old != new || resumed.status() != status {
        return Err(format!("resume: fleet {old:?} resumed as {new:?}"));
    }
    *fleet = resumed;
    out.frame(words);

    let mut checked = Ok(());
    for (i, (shard, b)) in fleet.shards().iter().zip(&before).enumerate() {
        let name = format!("shard {i}");
        let spec = ChannelSpec {
            name: &name,
            budget: Some(FLEET_PAUSE),
            total: totals[i],
            arrivals: expect.channels.get(i),
        };
        checked = checked.and_then(|()| check_channel(&spec, *b, shard));
    }
    if let Some(sp) = spans.as_deref_mut() {
        sp.pause_ns += lap(whole);
    }
    checked
}
