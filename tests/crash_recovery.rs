//! Crash-injection differential harness for the durable node
//! (`fc_host::journal`).
//!
//! The load-bearing guarantee: a node killed at **any** journal crash
//! seam — before a commit hits the media, after the commit but before
//! the reply leaves, mid-snapshot-fold, or with a torn record on the
//! tail — and restarted via [`LocalNode::restore`] is
//! indistinguishable, to a client retransmitting over a lossy link,
//! from a node that never crashed: every event executes **exactly
//! once** (no committed kv write lost, no event double-executed), the
//! per-event reports are bit-identical to an uncrashed reference run,
//! and retransmissions of pre-crash exchanges answer byte-identically
//! from the journal's resume cache.

use femto_containers::core::contract::ContractOffer;
use femto_containers::core::deploy::author_update;
use femto_containers::core::engine::HookReport;
use femto_containers::core::helpers_impl::{helper_name_table, standard_helper_ids};
use femto_containers::core::hooks::{Hook, HookKind, HookPolicy};
use femto_containers::fleet::node::{RemoteConfig, RemoteNode, FLEET_MTU};
use femto_containers::host::{
    wire, CrashPlan, CrashPoint, DurabilityConfig, HookEvent, HostConfig, JournalMedia, LocalNode,
    NodeError, NodeReply, NodeService, NodeStats, WindowedNode,
};
use femto_containers::kvstore::Scope;
use femto_containers::net::link::LinkConfig;
use femto_containers::rbpf::program::{FcProgram, ProgramBuilder};
use femto_containers::rtos::platform::{Engine, Platform};
use femto_containers::suit::SigningKey;

/// Events per batch — splits into several windowed sub-batches.
const EVENTS: usize = 40;
/// Global-store key of the shared execution counter.
const COUNTER_KEY: u32 = 200;
const TENANT_KEY_ID: &[u8] = b"crash-tenant";

/// The exactly-once witness program. For an event whose ctx byte is
/// `k` it (a) stores `global[k] = k` — an idempotent per-event
/// witness, (b) increments `global[200]` — a shared counter where any
/// double-execution shows up as an over-count, and (c) returns `k`.
/// Both effects and the report are independent of the order
/// sub-batches land in, so the lossy link's reordering cannot alias a
/// duplicated execution.
fn counter_app() -> FcProgram {
    ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm(
            "\
; exactly-once witness: global[k] = k, global[200] += 1, return k
    ldxb r6, [r1]
    mov r1, r6
    mov r2, r6
    call bpf_store_global
    mov r1, 200
    mov r2, r10
    add r2, -8
    call bpf_fetch_global
    ldxw r3, [r10-8]
    add r3, 1
    mov r1, 200
    mov r2, r3
    call bpf_store_global
    mov r0, r6
    exit
",
        )
        .expect("assembles")
        .build()
}

fn host_config() -> HostConfig {
    HostConfig {
        workers: 2,
        ..HostConfig::default()
    }
}

/// A small snapshot threshold so the journal folds several times
/// during one run — `CrashPoint::MidSnapshot` needs folds to hit.
fn durability() -> DurabilityConfig {
    DurabilityConfig {
        enabled: true,
        snapshot_threshold: 8,
        retain_exchanges: 64,
    }
}

fn ev(k: u8) -> HookEvent {
    HookEvent::new(&[k], &[])
}

fn signing_key() -> SigningKey {
    SigningKey::from_seed(b"crash-maintainer")
}

fn hook_spec() -> (Hook, ContractOffer) {
    (
        Hook::new("crash-hook", HookKind::Custom, HookPolicy::First),
        ContractOffer::helpers(standard_helper_ids()),
    )
}

/// Everything one run produces that must be identical across crashed
/// and uncrashed nodes. Latency quantiles are real-time measurements
/// and excluded; `max_shard_busy_cycles` counts doomed pre-crash
/// executions whose commits never landed, so it is compared only
/// between runs with the same crash plan.
struct Outcome {
    reports: Vec<HookReport>,
    witness: Vec<i64>,
    counter: i64,
    stats: NodeStats,
    restarted: bool,
}

/// Drives a full load through a durable node behind a 5 %-loss,
/// 20 %-duplication link, killing and restarting the node at `crash`
/// (if any) while the batch is in flight.
fn run_durable(crash: Option<CrashPoint>) -> Outcome {
    let key = signing_key();
    let (hook, offer) = hook_spec();
    let media = JournalMedia::new();
    let mut node = LocalNode::durable(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        durability(),
    );
    node.updates_mut()
        .provision_tenant(TENANT_KEY_ID, key.verifying_key(), 1);
    node.register_hook(hook.clone(), offer.clone())
        .expect("register");
    let mut remote = RemoteNode::new(
        node,
        RemoteConfig {
            link: LinkConfig {
                loss: 0.05,
                duplicate: 0.20,
                jitter_us: 20_000,
                mtu: FLEET_MTU,
                seed: 0xc4a5_4001,
                ..LinkConfig::default()
            },
            max_retransmit: 30,
            window: 4,
            ..RemoteConfig::default()
        },
    );

    // Deploy the witness container over the link (staged block-wise,
    // then the signed manifest) — the deploy itself is journaled.
    let (envelope, payload) =
        author_update(&counter_app(), hook.id, 1, "crash-v1", &key, TENANT_KEY_ID);
    for (i, chunk) in payload.chunks(64).enumerate() {
        remote
            .stage_chunk("crash-v1", i * 64, chunk, i == 0)
            .expect("stage");
    }
    remote.deploy(&envelope).expect("deploy");

    // Arm the crash only now, so the countdown counts event commits
    // (and folds), not the deploy above.
    if let Some(point) = crash {
        let after = if point == CrashPoint::MidSnapshot {
            1 // folds are rarer than commits: die at the second fold
        } else {
            10 // let ten commits land, die on the eleventh
        };
        media.set_crash_plan(CrashPlan { point, after });
    }

    let events: Vec<HookEvent> = (1..=EVENTS as u8).map(ev).collect();
    let ticket = remote.submit_batch(hook.id, events).expect("submit");
    let mut restarted = false;
    let result = loop {
        let progressed = remote.pump();
        // A powered-off node answers nothing; the client keeps
        // retransmitting. Restart it in place from the crashed media —
        // the same exchanges (same tokens) then complete against the
        // restored node, committed ones answered from the journal's
        // resume cache, uncommitted ones re-executed.
        if !restarted && remote.endpoint().inner().crashed() {
            let mut back = LocalNode::restore(
                Platform::CortexM4,
                Engine::FemtoContainer,
                host_config(),
                &media,
                durability(),
                vec![(hook.clone(), offer.clone())],
            )
            .expect("restore from crashed media");
            // Trust anchors are commissioning-time state, not journal
            // state — re-provision before the node takes new deploys.
            back.updates_mut()
                .provision_tenant(TENANT_KEY_ID, key.verifying_key(), 1);
            remote.endpoint_mut().restart(back);
            restarted = true;
        }
        if let Some(result) = remote.take(ticket) {
            break result;
        }
        if !progressed {
            std::thread::yield_now();
        }
    };
    let replies = match result.expect("batch resolves despite the crash") {
        NodeReply::Batch(items) => items,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(replies.len(), EVENTS);
    let reports: Vec<HookReport> = replies
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("event {i} failed: {e:?}")))
        .collect();

    let stats = remote
        .endpoint_mut()
        .inner_mut()
        .stats()
        .expect("local stats");
    let node = remote.endpoint().inner();
    let stores = node.host().env().stores();
    let witness = (1..=EVENTS as u32)
        .map(|k| stores.fetch(0, 0, Scope::Global, k))
        .collect();
    let counter = stores.fetch(0, 0, Scope::Global, COUNTER_KEY);
    Outcome {
        reports,
        witness,
        counter,
        stats,
        restarted,
    }
}

fn assert_exactly_once(out: &Outcome, label: &str) {
    for (i, v) in out.witness.iter().enumerate() {
        assert_eq!(*v, (i + 1) as i64, "{label}: witness global[{}]", i + 1);
    }
    assert_eq!(
        out.counter, EVENTS as i64,
        "{label}: shared counter — any double-execution over-counts, any lost commit under-counts"
    );
    for (i, report) in out.reports.iter().enumerate() {
        assert_eq!(
            report.combined,
            Some((i + 1) as u64),
            "{label}: report {i} echoes its ctx byte"
        );
    }
    assert_eq!(out.stats.dispatched, EVENTS as u64, "{label}: dispatched");
    assert_eq!(out.stats.shed, 0, "{label}: shed");
    assert_eq!(out.stats.deploys_accepted, 1, "{label}: deploys");
    assert_eq!(out.stats.hooks, 1, "{label}: hooks");
}

/// The headline differential: kill the node at every crash seam while
/// the batch is in flight, restart it from the journal, and demand
/// the outcome a never-crashed durable reference produces —
/// bit-identical reports, identical kv state, identical counters.
#[test]
fn kill_and_restart_at_every_crash_point_matches_uncrashed_reference() {
    let reference = run_durable(None);
    assert!(!reference.restarted);
    assert_exactly_once(&reference, "reference");

    for point in [
        CrashPoint::PreCommit,
        CrashPoint::PostCommitPreReply,
        CrashPoint::MidSnapshot,
        CrashPoint::TornRecord,
    ] {
        let crashed = run_durable(Some(point));
        let label = format!("{point:?}");
        assert!(crashed.restarted, "{label}: the crash plan must fire");
        assert_exactly_once(&crashed, &label);
        assert_eq!(
            crashed.reports, reference.reports,
            "{label}: per-event reports differ from the uncrashed reference"
        );
        assert_eq!(crashed.witness, reference.witness, "{label}: kv witness");
        assert_eq!(crashed.counter, reference.counter, "{label}: kv counter");
    }
}

/// Drives 24 events through a node behind a 5 %-loss link — a plain
/// node for `None`, a durable one with the given journal config
/// otherwise. Returns the outcome and the journal length written.
fn load(durability: Option<DurabilityConfig>) -> (Outcome, usize) {
    let key = signing_key();
    let (hook, offer) = hook_spec();
    let media = JournalMedia::new();
    let mut node = match durability {
        Some(durability) => LocalNode::durable(
            Platform::CortexM4,
            Engine::FemtoContainer,
            host_config(),
            &media,
            durability,
        ),
        None => LocalNode::new(Platform::CortexM4, Engine::FemtoContainer, host_config()),
    };
    node.updates_mut()
        .provision_tenant(TENANT_KEY_ID, key.verifying_key(), 1);
    node.register_hook(hook.clone(), offer).expect("register");
    let mut remote = RemoteNode::new(
        node,
        RemoteConfig {
            link: LinkConfig {
                loss: 0.05,
                duplicate: 0.05,
                jitter_us: 20_000,
                mtu: FLEET_MTU,
                seed: 0xd15a_b1ed,
                ..LinkConfig::default()
            },
            max_retransmit: 16,
            window: 4,
            ..RemoteConfig::default()
        },
    );
    let (envelope, payload) =
        author_update(&counter_app(), hook.id, 1, "crash-v1", &key, TENANT_KEY_ID);
    for (i, chunk) in payload.chunks(64).enumerate() {
        remote
            .stage_chunk("crash-v1", i * 64, chunk, i == 0)
            .expect("stage");
    }
    remote.deploy(&envelope).expect("deploy");
    let events: Vec<HookEvent> = (1..=24).map(ev).collect();
    let replies = remote.dispatch_batch(hook.id, events).expect("batch");
    let reports: Vec<HookReport> = replies
        .into_iter()
        .map(|r| r.expect("no crash, no shed"))
        .collect();
    let stats = remote.endpoint_mut().inner_mut().stats().expect("stats");
    let stores_len = media.journal_len();
    let node = remote.endpoint().inner();
    let stores = node.host().env().stores();
    let witness = (1..=24)
        .map(|k| stores.fetch(0, 0, Scope::Global, k))
        .collect();
    let counter = stores.fetch(0, 0, Scope::Global, COUNTER_KEY);
    (
        Outcome {
            reports,
            witness,
            counter,
            stats,
            restarted: false,
        },
        stores_len,
    )
}

/// `DurabilityConfig::disabled()` must leave the node's observable
/// outputs bit-identical to a node built without the journal module:
/// same per-event reports, same kv state, same deterministic stats —
/// and the media untouched.
#[test]
fn disabled_durability_is_bit_identical_to_a_plain_node() {
    let (plain, _) = load(None);
    let (disabled, journal_len) = load(Some(DurabilityConfig::disabled()));
    assert_eq!(journal_len, 0, "disabled durability writes nothing");
    assert_eq!(disabled.reports, plain.reports, "per-event reports");
    assert_eq!(disabled.witness, plain.witness, "kv witness");
    assert_eq!(disabled.counter, plain.counter, "kv counter");
    assert_eq!(disabled.stats.dispatched, plain.stats.dispatched);
    assert_eq!(disabled.stats.shed, plain.stats.shed);
    assert_eq!(
        disabled.stats.deploys_accepted,
        plain.stats.deploys_accepted
    );
    assert_eq!(
        disabled.stats.deploys_rejected,
        plain.stats.deploys_rejected
    );
    assert_eq!(disabled.stats.hooks, plain.stats.hooks);
    assert_eq!(
        disabled.stats.max_shard_busy_cycles,
        plain.stats.max_shard_busy_cycles
    );
}

/// Journaling is host-side bookkeeping against in-sim media: commits
/// and snapshot folds must not add a single simulated device cycle —
/// the cycle model, and so the energy proxy, is exactly a plain
/// node's.
#[test]
fn journaling_adds_no_simulated_cycles() {
    let (plain, _) = load(None);
    let (journaled, journal_len) = load(Some(durability()));
    assert!(journal_len > 0, "the journal was written");
    assert_eq!(journaled.reports, plain.reports, "per-event reports");
    assert_eq!(
        journaled.stats.max_shard_busy_cycles, plain.stats.max_shard_busy_cycles,
        "journaling leaked into simulated device time"
    );
}

/// Retransmissions of pre-crash exchanges must answer from the
/// restored journal **byte-identically** — same wire encoding as the
/// original reply — without re-executing anything.
#[test]
fn restored_node_answers_retransmissions_byte_identically() {
    let key = signing_key();
    let (hook, offer) = hook_spec();
    let media = JournalMedia::new();
    let mut node = LocalNode::durable(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        DurabilityConfig::default(),
    );
    node.updates_mut()
        .provision_tenant(TENANT_KEY_ID, key.verifying_key(), 1);
    node.register_hook(hook.clone(), offer.clone())
        .expect("register");
    let (envelope, payload) = author_update(
        &counter_app(),
        hook.id,
        1,
        "crash-direct-v1",
        &key,
        TENANT_KEY_ID,
    );
    node.stage_chunk("crash-direct-v1", 0, &payload, true)
        .expect("stage");
    node.deploy(&envelope).expect("deploy");

    let first = node
        .dispatch_tagged(hook.id, ev(7), b"tok-a")
        .expect("first exchange");
    assert_eq!(first.combined, Some(7));

    // The second exchange commits, then the node dies before its
    // reply can leave — the client never learns the outcome.
    media.set_crash_plan(CrashPlan {
        point: CrashPoint::PostCommitPreReply,
        after: 0,
    });
    let suppressed = node.dispatch_tagged(hook.id, ev(9), b"tok-b");
    assert!(
        matches!(suppressed, Err(NodeError::Shed)),
        "mid-commit crash suppresses the reply: {suppressed:?}"
    );
    assert!(node.crashed());

    let mut back = LocalNode::restore(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        DurabilityConfig::default(),
        vec![(hook.clone(), offer)],
    )
    .expect("restore");

    // Both commits survived the crash.
    let counter_restored = back
        .host()
        .env()
        .stores()
        .fetch(0, 0, Scope::Global, COUNTER_KEY);
    assert_eq!(counter_restored, 2, "both committed executions survive");

    // Retransmission of the exchange whose reply the crash ate: the
    // journaled outcome, not a re-execution.
    let replayed_b = back
        .dispatch_tagged(hook.id, ev(9), b"tok-b")
        .expect("resume tok-b");
    assert_eq!(replayed_b.combined, Some(9));

    // Retransmission of the exchange that completed long before the
    // crash: byte-identical to the original reply on the wire.
    let replayed_a = back
        .dispatch_tagged(hook.id, ev(7), b"tok-a")
        .expect("resume tok-a");
    assert_eq!(replayed_a, first);
    let mut original_wire = Vec::new();
    wire::put_report(&mut original_wire, &first);
    let mut replayed_wire = Vec::new();
    wire::put_report(&mut replayed_wire, &replayed_a);
    assert_eq!(original_wire, replayed_wire, "wire encodings differ");

    // Neither resume re-executed: the counter is still 2.
    let counter_after = back
        .host()
        .env()
        .stores()
        .fetch(0, 0, Scope::Global, COUNTER_KEY);
    assert_eq!(counter_after, 2, "resume answers must not re-execute");
}

/// Staging is volatile by design (a half-received image is worthless
/// after a reboot): an in-flight Block1 transfer abandoned at the
/// crash — or LRU-evicted before it — reads as a hole afterwards, and
/// restarting from block 0 completes cleanly.
#[test]
fn abandoned_and_evicted_staging_transfers_restart_cleanly() {
    let key = signing_key();
    let (hook, offer) = hook_spec();
    let media = JournalMedia::new();
    let mut node = LocalNode::durable(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        DurabilityConfig::default(),
    );
    node.updates_mut()
        .provision_tenant(TENANT_KEY_ID, key.verifying_key(), 1);
    node.register_hook(hook.clone(), offer.clone())
        .expect("register");
    let (env1, payload1) = author_update(
        &counter_app(),
        hook.id,
        1,
        "crash-stage-v1",
        &key,
        TENANT_KEY_ID,
    );
    node.stage_chunk("crash-stage-v1", 0, &payload1, true)
        .expect("stage v1");
    node.deploy(&env1).expect("deploy v1");

    // Begin the v2 transfer and leave it half-done.
    let (env2, payload2) = author_update(
        &counter_app(),
        hook.id,
        2,
        "crash-stage-v2",
        &key,
        TENANT_KEY_ID,
    );
    assert!(payload2.len() > 128, "two chunks minimum for a real hole");
    node.stage_chunk("crash-stage-v2", 0, &payload2[..64], true)
        .expect("first v2 chunk");

    // LRU eviction: filling the bounded staging area with fresh
    // transfers evicts the least-recently-touched abandoned one.
    for i in 0..16 {
        node.stage_chunk(&format!("crash-filler-{i}"), 0, b"abandoned", true)
            .unwrap_or_else(|e| panic!("filler {i}: {e:?}"));
    }
    let evicted = node.stage_chunk("crash-stage-v2", 64, &payload2[64..128], false);
    match evicted {
        Err(NodeError::Rejected(msg)) => {
            assert!(msg.contains("staging hole"), "unexpected verdict: {msg}");
        }
        other => panic!("continuing an evicted transfer must be a hole: {other:?}"),
    }

    // Start v2 over, get half-way again, then crash the node.
    node.stage_chunk("crash-stage-v2", 0, &payload2[..64], true)
        .expect("restart v2 from block 0");
    media.set_crash_plan(CrashPlan {
        point: CrashPoint::PostCommitPreReply,
        after: 0,
    });
    let _ = node.dispatch_tagged(hook.id, ev(1), b"tok-crash");
    assert!(node.crashed());

    let mut back = LocalNode::restore(
        Platform::CortexM4,
        Engine::FemtoContainer,
        host_config(),
        &media,
        DurabilityConfig::default(),
        vec![(hook.clone(), offer)],
    )
    .expect("restore");
    back.updates_mut()
        .provision_tenant(TENANT_KEY_ID, key.verifying_key(), 1);

    // The pre-crash partial did not survive: continuing is a hole.
    let abandoned = back.stage_chunk("crash-stage-v2", 64, &payload2[64..128], false);
    match abandoned {
        Err(NodeError::Rejected(msg)) => {
            assert!(msg.contains("staging hole"), "unexpected verdict: {msg}");
        }
        other => panic!("continuing an abandoned transfer must be a hole: {other:?}"),
    }

    // Restarting from block 0 completes, and the deploy lands on the
    // restored v1 container at the rollback-protected sequence.
    for (i, chunk) in payload2.chunks(64).enumerate() {
        back.stage_chunk("crash-stage-v2", i * 64, chunk, i == 0)
            .unwrap_or_else(|e| panic!("v2 chunk {i}: {e:?}"));
    }
    let report = back.deploy(&env2).expect("v2 deploys after restart");
    assert_eq!(report.sequence, 2);
    assert!(
        report.replaced.is_some(),
        "v2 replaces the restored v1 container"
    );
}
