//! Loss-injection suite for the node codec adapter: every message
//! class — hook lifecycle, dispatch, batch, SUIT chunk, deploy, stats
//! — is driven over a link that **drops**, **duplicates** and
//! **reorders** (jittered latency) datagrams, and the dedup tokens
//! must turn the resulting at-least-once delivery into exactly-once
//! effect: no operation lost, none executed twice.

use fc_core::contract::{ContractOffer, ContractRequest};
use fc_core::deploy::author_update;
use fc_core::helpers_impl::{helper_name_table, standard_helper_ids};
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_fleet::node::{NodeEndpoint, RemoteConfig, RemoteNode, FLEET_MTU, NODE_OP_PATH};
use fc_fleet::wire::{self, NodeOp};
use fc_fleet::{FcFleet, FleetConfig};
use fc_host::{HookEvent, HostConfig, LocalNode, NodeError, NodeService, TransportStats};
use fc_net::coap::{Code, Message};
use fc_net::link::LinkConfig;
use fc_rbpf::program::{FcProgram, ProgramBuilder};
use fc_rtos::platform::{Engine, Platform};
use fc_suit::{SigningKey, Uuid};

fn echo_program() -> FcProgram {
    ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm("ldxb r0, [r1]\nexit")
        .expect("assembles")
        .build()
}

fn local_node() -> LocalNode {
    LocalNode::new(
        Platform::CortexM4,
        Engine::FemtoContainer,
        HostConfig {
            workers: 2,
            ..HostConfig::default()
        },
    )
}

/// A link that exercises all three failure modes at once, with enough
/// retransmission budget that the seeded run never times out.
fn lossy_config(seed: u64) -> RemoteConfig {
    RemoteConfig {
        link: LinkConfig {
            loss: 0.2,
            duplicate: 0.25,
            jitter_us: 60_000,
            mtu: FLEET_MTU,
            seed,
            ..LinkConfig::default()
        },
        max_events_per_message: 4,
        max_retransmit: 8,
        ..RemoteConfig::default()
    }
}

/// Drives every message class over the lossy link and asserts
/// exactly-once effect end to end.
#[test]
fn every_message_class_survives_drop_duplicate_reorder_exactly_once() {
    let maintainer = SigningKey::from_seed(b"loss-maintainer");
    let mut node = local_node();
    node.updates_mut()
        .provision_tenant(b"loss-tenant", maintainer.verifying_key(), 1);
    let mut remote = RemoteNode::new(node, lossy_config(0x10c1));

    let hook = Hook::new("loss-hook", HookKind::Custom, HookPolicy::First);
    let hook_id = hook.id;
    let mut ops = 0u64;

    // Message class 1: hook lifecycle.
    remote
        .register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
        .unwrap();
    ops += 1;

    // Message classes 2+3: SUIT chunks and the deploy itself. 32-byte
    // chunks force a long multi-message transfer; a duplicated or
    // retransmitted chunk must stay idempotent, a dropped one is
    // retried by the transport before the next is sent.
    let app = echo_program();
    let (envelope, payload) =
        author_update(&app, hook_id, 1, "loss-v1", &maintainer, b"loss-tenant");
    for (i, chunk) in payload.chunks(32).enumerate() {
        remote
            .stage_chunk("loss-v1", i * 32, chunk, i == 0)
            .unwrap();
        ops += 1;
    }
    let report = remote.deploy(&envelope).unwrap();
    ops += 1;
    assert!(report.attached, "deploy attached over the lossy link");

    // Message class 4: single dispatches. The echo container returns
    // its first context byte, so a re-executed or cross-wired event
    // would be visible in the combined result.
    for i in 0..40u8 {
        let report = remote.dispatch(hook_id, HookEvent::new(&[i], &[])).unwrap();
        ops += 1;
        assert_eq!(report.combined, Some(i as u64), "event {i} echoed once");
    }

    // Message class 5: batches (split into sub-batches of 4 on the
    // wire, each sub-batch its own token).
    let events: Vec<HookEvent> = (100..140u8).map(|i| HookEvent::new(&[i], &[])).collect();
    let replies = remote.dispatch_batch(hook_id, events).unwrap();
    ops += 10; // 40 events / 4 per message
    assert_eq!(replies.len(), 40);
    for (i, reply) in replies.into_iter().enumerate() {
        assert_eq!(
            reply.unwrap().combined,
            Some(100 + i as u64),
            "batched replies stay in offer order"
        );
    }

    // Message class 6: stats — and the exactly-once ledger itself.
    let stats = remote.stats().unwrap();
    ops += 1;
    assert_eq!(
        stats.dispatched, 80,
        "every event executed exactly once: none lost, none doubled"
    );
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.deploys_accepted, 1);

    // The transport genuinely misbehaved...
    let link = remote.link();
    assert!(link.dropped_count() > 0, "the link dropped datagrams");
    assert!(link.duplicated_count() > 0, "the link duplicated datagrams");
    // ...and the dedup cache is what absorbed it.
    let endpoint = remote.endpoint();
    assert_eq!(
        endpoint.served_count(),
        ops,
        "each operation executed exactly once on the node"
    );
    assert!(
        endpoint.deduped_count() > 0,
        "retransmitted/duplicated requests were answered from the cache"
    );
}

/// The dedup cache in isolation: a duplicated request (same token)
/// replays the recorded response byte for byte and does not touch the
/// service again — even when the duplicate arrives after later
/// requests.
#[test]
fn endpoint_replays_cached_response_without_reexecuting() {
    let mut node = local_node();
    let hook = Hook::new("dedup-hook", HookKind::Custom, HookPolicy::Sum);
    let hook_id = hook.id;
    node.register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
        .unwrap();
    // A counter container would hide double execution behind identical
    // outputs; instead watch the host's dispatched counter directly.
    let image = ProgramBuilder::new()
        .asm("mov r0, 5\nexit")
        .unwrap()
        .build();
    let container = node
        .host()
        .install("probe", 1, &image.to_bytes(), ContractRequest::default())
        .unwrap();
    node.host().attach(container, hook_id).unwrap();
    let mut endpoint = NodeEndpoint::new(node);

    let op = wire::encode_op(&NodeOp::Dispatch {
        hook: hook_id,
        event: HookEvent::default(),
    });
    let mut first = Message::request(Code::Post, 1, &[9, 9]);
    first.set_path(NODE_OP_PATH);
    first.payload = op;
    let original = endpoint.handle(&first);
    assert_eq!(original.code, Code::Content);
    assert_eq!(endpoint.served_count(), 1);

    // An unrelated request lands in between.
    let other_op = wire::encode_op(&NodeOp::Stats);
    let mut other = Message::request(Code::Post, 2, &[7, 7]);
    other.set_path(NODE_OP_PATH);
    other.payload = other_op;
    endpoint.handle(&other);

    // The late duplicate (retransmission: same token, new message id).
    let mut dup = first.clone();
    dup.message_id = 3;
    let replay = endpoint.handle(&dup);
    assert_eq!(replay.message_id, 3, "replay answers the retransmission");
    assert_eq!(replay.payload, original.payload, "byte-identical verdict");
    assert_eq!(endpoint.served_count(), 2, "dispatch + stats, not 3");
    assert_eq!(endpoint.deduped_count(), 1);
    let dispatched = endpoint.inner_mut().stats().unwrap().dispatched;
    assert_eq!(dispatched, 1, "the event executed exactly once");
}

/// Unknown paths and undecodable operations fail loudly, and a
/// node-side rejection (unknown hook) travels inside the reply payload
/// — the transport cannot confuse it with its own failures.
#[test]
fn endpoint_rejects_garbage_and_carries_node_verdicts() {
    let mut endpoint = NodeEndpoint::new(local_node());
    let mut wrong = Message::request(Code::Get, 1, &[1]);
    wrong.set_path("no/such");
    assert_eq!(endpoint.handle(&wrong).code, Code::NotFound);

    let mut garbage = Message::request(Code::Post, 2, &[2]);
    garbage.set_path(NODE_OP_PATH);
    garbage.payload = vec![0xff, 0xff];
    assert_eq!(endpoint.handle(&garbage).code, Code::BadRequest);
    assert_eq!(endpoint.served_count(), 0);

    let ghost = fc_suit::Uuid::from_name("loss", "ghost");
    let mut missing = Message::request(Code::Post, 3, &[3]);
    missing.set_path(NODE_OP_PATH);
    missing.payload = wire::encode_op(&NodeOp::Dispatch {
        hook: ghost,
        event: HookEvent::default(),
    });
    let resp = endpoint.handle(&missing);
    assert_eq!(resp.code, Code::Content, "verdict rides the payload");
    assert_eq!(
        wire::decode_reply(&resp.payload).unwrap(),
        Err(NodeError::UnknownHook(ghost))
    );
}

/// Builds a lossless remote node with one deployed echo hook, for the
/// MTU-budget tests.
fn lossless_echo_node() -> (RemoteNode<LocalNode>, fc_suit::Uuid) {
    let maintainer = SigningKey::from_seed(b"mtu-maintainer");
    let mut node = local_node();
    node.updates_mut()
        .provision_tenant(b"mtu-tenant", maintainer.verifying_key(), 1);
    let mut remote = RemoteNode::new(node, RemoteConfig::default());
    let hook = Hook::new("mtu-hook", HookKind::Custom, HookPolicy::First);
    let hook_id = hook.id;
    remote
        .register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
        .unwrap();
    let (envelope, payload) = author_update(
        &echo_program(),
        hook_id,
        1,
        "mtu-v1",
        &maintainer,
        b"mtu-tenant",
    );
    for (i, chunk) in payload.chunks(256).enumerate() {
        remote
            .stage_chunk("mtu-v1", i * 256, chunk, i == 0)
            .unwrap();
    }
    remote.deploy(&envelope).unwrap();
    (remote, hook_id)
}

/// A batch whose encoding (or projected reply) exceeds the MTU must
/// split into smaller wire messages transparently — not fail with a
/// transport error.
#[test]
fn oversized_batches_split_instead_of_failing() {
    let (mut remote, hook_id) = lossless_echo_node();
    let before = remote.endpoint().served_count();
    // 6 events with ~600-byte regions: well past the reply budget for
    // one datagram, fine individually.
    let events: Vec<HookEvent> = (0..6u8)
        .map(|i| HookEvent {
            ctx: vec![i + 1],
            extra: vec![fc_core::engine::HostRegion::read_write(
                "blob",
                vec![i; 600],
            )],
        })
        .collect();
    let replies = remote.dispatch_batch(hook_id, events).unwrap();
    assert_eq!(replies.len(), 6);
    for (i, reply) in replies.into_iter().enumerate() {
        let report = reply.unwrap();
        assert_eq!(report.combined, Some(i as u64 + 1), "offer order kept");
        assert_eq!(
            report.executions[0].regions_back[0].1,
            vec![i as u8; 600],
            "regions round-trip through the split"
        );
    }
    assert!(
        remote.endpoint().served_count() - before > 1,
        "the batch rode more than one wire message"
    );
}

/// A single event whose reply cannot fit the link is refused up front
/// — before the node executes anything it could never report back.
#[test]
fn oversized_single_event_is_refused_before_execution() {
    let (mut remote, hook_id) = lossless_echo_node();
    let before = remote.endpoint().served_count();
    let event = HookEvent {
        ctx: vec![1],
        extra: vec![fc_core::engine::HostRegion::read_write(
            "huge",
            vec![0; 2_500],
        )],
    };
    let err = remote.dispatch(hook_id, event).unwrap_err();
    assert!(
        matches!(&err, NodeError::Transport(reason) if reason.contains("mtu")),
        "{err:?}"
    );
    assert_eq!(
        remote.endpoint().served_count(),
        before,
        "nothing executed server-side"
    );
}

/// A dead link exhausts retransmissions and reports `Timeout` — and a
/// later recovery (fresh exchange) still works because tokens are
/// fresh per exchange.
#[test]
fn dead_link_times_out_cleanly() {
    let mut node = local_node();
    let hook = Hook::new("dead-hook", HookKind::Custom, HookPolicy::First);
    let hook_id = hook.id;
    // Register directly on the node: the link is dead for the remote.
    node.register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
        .unwrap();
    let mut remote = RemoteNode::new(
        node,
        RemoteConfig {
            link: LinkConfig {
                loss: 1.0,
                mtu: FLEET_MTU,
                ..LinkConfig::default()
            },
            max_retransmit: 2,
            ..RemoteConfig::default()
        },
    );
    assert_eq!(
        remote.dispatch(hook_id, HookEvent::default()),
        Err(NodeError::Timeout)
    );
    assert_eq!(remote.endpoint().served_count(), 0, "nothing got through");
}

/// Builds a node with the echo container installed directly (no SUIT
/// transfer), wrapped in a remote transport at the given window over a
/// link that drops, duplicates and reorders.
fn windowed_echo_remote(window: usize, seed: u64) -> (RemoteNode<LocalNode>, fc_suit::Uuid) {
    let mut node = local_node();
    let hook = Hook::new("window-hook", HookKind::Custom, HookPolicy::First);
    let hook_id = hook.id;
    node.register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
        .unwrap();
    let image = echo_program();
    let container = node
        .host()
        .install("echo", 1, &image.to_bytes(), ContractRequest::default())
        .unwrap();
    node.host().attach(container, hook_id).unwrap();
    let remote = RemoteNode::new(
        node,
        RemoteConfig {
            window,
            ..lossy_config(seed)
        },
    );
    (remote, hook_id)
}

/// The tentpole's exactly-once claim under multiplexing: with window 8
/// on a link that drops, duplicates and reorders, sub-batch replies
/// complete out of order and retransmitted requests land while others
/// are in flight — yet every per-event report is bit-identical to the
/// window-1 (stop-and-wait) transport over the same seeded link, and
/// the endpoint's ledger shows each sub-batch executed exactly once.
#[test]
fn reordered_duplicated_completions_match_stop_and_wait_reports() {
    use fc_host::WindowedNode;

    let run = |window: usize| {
        let (mut remote, hook_id) = windowed_echo_remote(window, 0x5eed_001d);
        // 600-byte regions keep each sub-batch near the MTU, so the
        // wave spans many datagrams — enough that the seeded link is
        // guaranteed to drop, duplicate and reorder some of them.
        let events: Vec<HookEvent> = (1..=40u8)
            .map(|i| HookEvent {
                ctx: vec![i],
                extra: vec![fc_core::engine::HostRegion::read_write(
                    "blob",
                    vec![i; 600],
                )],
            })
            .collect();
        let replies = remote.dispatch_batch(hook_id, events).unwrap();
        (replies, remote)
    };
    let (baseline, _) = run(1);
    let (windowed, mut remote) = run(8);

    assert_eq!(
        windowed, baseline,
        "per-report bit-identity: window 8 returns exactly what stop-and-wait returns"
    );
    for (i, reply) in windowed.into_iter().enumerate() {
        assert_eq!(reply.unwrap().combined, Some(i as u64 + 1), "offer order");
    }

    // The window genuinely multiplexed and the link genuinely
    // misbehaved...
    let tstats = remote.transport_stats();
    assert!(tstats.in_flight_hwm > 1, "exchanges overlapped: {tstats:?}");
    assert!(
        tstats.completed_out_of_order > 0,
        "replies completed out of submission order: {tstats:?}"
    );
    assert!(remote.link().dropped_count() > 0, "the link dropped");
    assert!(remote.link().duplicated_count() > 0, "the link duplicated");
    // ...and the ledger stayed exact: the 40 events split into 20
    // two-event sub-batches (the reply budget halves the 4-event
    // chunks), each executed once; duplicates answered from cache.
    assert_eq!(remote.endpoint().served_count(), 20);
    assert!(remote.endpoint().deduped_count() > 0);
    assert_eq!(
        remote
            .endpoint_mut()
            .inner_mut()
            .stats()
            .unwrap()
            .dispatched,
        40,
        "every event executed exactly once under window 8"
    );
}

/// Observability must be invisible in the behaviour it observes: the
/// same seeded lossy run with telemetry recording enabled (the
/// default) and fully disabled returns bit-identical per-event
/// reports, the same virtual clock reading, and the same transport
/// counters — at stop-and-wait (window 1) and under multiplexing
/// (window 8).
#[test]
fn telemetry_on_and_off_lossy_runs_are_bit_identical() {
    use fc_host::{TelemetryConfig, WindowedNode};

    let run = |window: usize, telemetry: TelemetryConfig| {
        let mut node = LocalNode::new(
            Platform::CortexM4,
            Engine::FemtoContainer,
            HostConfig {
                workers: 2,
                telemetry,
                ..HostConfig::default()
            },
        );
        let hook = Hook::new("telemetry-hook", HookKind::Custom, HookPolicy::First);
        let hook_id = hook.id;
        node.register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
            .unwrap();
        let image = echo_program();
        let container = node
            .host()
            .install("echo", 1, &image.to_bytes(), ContractRequest::default())
            .unwrap();
        node.host().attach(container, hook_id).unwrap();
        let mut remote = RemoteNode::new(
            node,
            RemoteConfig {
                window,
                ..lossy_config(0x0b5e_7e1e)
            },
        );
        let events: Vec<HookEvent> = (1..=40u8)
            .map(|i| HookEvent {
                ctx: vec![i],
                extra: vec![fc_core::engine::HostRegion::read_write(
                    "blob",
                    vec![i; 600],
                )],
            })
            .collect();
        let replies = remote.dispatch_batch(hook_id, events).unwrap();
        (replies, remote.now_us(), remote.transport_stats())
    };

    let off = TelemetryConfig {
        enabled: false,
        trace_capacity: 0,
    };
    for window in [1usize, 8] {
        let (on_replies, on_now, on_tstats) = run(window, TelemetryConfig::default());
        let (off_replies, off_now, off_tstats) = run(window, off);
        assert_eq!(
            on_replies, off_replies,
            "window {window}: per-event reports bit-identical"
        );
        assert_eq!(
            on_now, off_now,
            "window {window}: virtual clock reads identically"
        );
        assert_eq!(
            on_tstats, off_tstats,
            "window {window}: transport counters identical"
        );
    }
}

/// Satellite for the back-off cap: against a dead link the doubling
/// retransmission interval clamps at `max_transmit_wait_us`, so the
/// exchange dies after a *bounded* virtual time — deterministic to the
/// microsecond — instead of the unbounded exponential (which would be
/// 200ms · (2⁹−1) ≈ 102 s of virtual waiting for the same budget).
#[test]
fn backoff_cap_bounds_dead_link_timeout_virtual_time() {
    use fc_host::WindowedNode;

    let mut node = local_node();
    let hook = Hook::new("capped-hook", HookKind::Custom, HookPolicy::First);
    let hook_id = hook.id;
    node.register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
        .unwrap();
    let mut remote = RemoteNode::new(
        node,
        RemoteConfig {
            link: LinkConfig {
                loss: 1.0,
                mtu: FLEET_MTU,
                ..LinkConfig::default()
            },
            max_retransmit: 8,
            max_transmit_wait_us: 400_000,
            ..RemoteConfig::default()
        },
    );
    assert_eq!(
        remote.dispatch(hook_id, HookEvent::default()),
        Err(NodeError::Timeout)
    );
    // Launch at t=0 with a 200ms timeout; every later interval clamps
    // to the 400ms cap: 200k + 8 · 400k, exactly.
    assert_eq!(
        remote.now_us(),
        200_000 + 8 * 400_000,
        "virtual time to declare the link dead is bounded by the cap"
    );
    assert_eq!(remote.transport_stats().retransmits, 8);
    assert_eq!(remote.endpoint().served_count(), 0, "nothing got through");
}

/// Hooks spread over the ring: enough that consistent hashing's spread,
/// not one lumpy arc, decides each node's share.
const RING_HOOKS: usize = 24;
/// Events per hook in a ring run's one `dispatch_all` wave.
const WAVE: u8 = 16;

/// What a ring run leaves behind, indexed by node id.
struct RingRun {
    hooks_per_node: Vec<usize>,
    busy_cycles: Vec<u64>,
    /// Virtual link time the wave took (deploys excluded).
    wave_us: Vec<u64>,
    transport: Vec<TransportStats>,
}

/// `nodes` stock nodes behind the consistent-hash front, each over a
/// link that drops `loss` of its datagrams and duplicates half as
/// many, at the given transport window. Echo hooks deployed over the
/// ring take one wave of `WAVE` events each, every owner's window
/// driven at once. Every reply is checked, and each node's ledger must
/// show exactly the events its hooks were offered, none shed.
fn ring_run(nodes: usize, loss: f64, window: usize) -> RingRun {
    let maintainer = SigningKey::from_seed(b"ring-maintainer");
    let mut fleet = FcFleet::new(FleetConfig::default());
    for i in 0..nodes {
        let mut node = local_node();
        node.updates_mut()
            .provision_tenant(b"ring-tenant", maintainer.verifying_key(), 1);
        let config = RemoteConfig {
            link: LinkConfig {
                loss,
                duplicate: loss / 2.0,
                jitter_us: if loss > 0.0 { 20_000 } else { 0 },
                mtu: FLEET_MTU,
                seed: 0x000f_1ee7 + i as u64,
                ..LinkConfig::default()
            },
            max_retransmit: 8,
            window,
            ..RemoteConfig::default()
        };
        fleet
            .add_node(Box::new(RemoteNode::new(node, config)))
            .unwrap();
    }
    let hooks: Vec<Uuid> = (0..RING_HOOKS)
        .map(|t| {
            let hook = Hook::new(
                &format!("fleet-t{t}"),
                HookKind::CoapRequest,
                HookPolicy::First,
            );
            let id = hook.id;
            fleet
                .register_hook(hook, ContractOffer::helpers(standard_helper_ids()))
                .unwrap();
            let (envelope, payload) = author_update(
                &echo_program(),
                id,
                1,
                &format!("ring-t{t}-v1"),
                &maintainer,
                b"ring-tenant",
            );
            fleet.deploy(&envelope, &payload).unwrap();
            id
        })
        .collect();
    let deployed_at: Vec<u64> = fleet
        .transport_stats()
        .into_iter()
        .map(|(_, t)| t.virtual_now_us)
        .collect();
    let work = hooks
        .iter()
        .map(|&hook| {
            (
                hook,
                (1..=WAVE).map(|i| HookEvent::new(&[i], &[])).collect(),
            )
        })
        .collect();
    for outcome in fleet.dispatch_all(work) {
        for (i, reply) in outcome.unwrap().into_iter().enumerate() {
            assert_eq!(reply.unwrap().combined, Some(i as u64 + 1), "echoed once");
        }
    }
    let transport: Vec<TransportStats> = fleet
        .transport_stats()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let wave_us = transport
        .iter()
        .zip(deployed_at)
        .map(|(t, start)| t.virtual_now_us - start)
        .collect();
    let mut hooks_per_node = vec![0; nodes];
    for &hook in &hooks {
        hooks_per_node[fleet.owner_of(hook).unwrap()] += 1;
    }
    let mut busy_cycles = Vec::new();
    for (node, stats) in fleet.stats() {
        let stats = stats.unwrap();
        let offered = (hooks_per_node[node] * WAVE as usize) as u64;
        assert_eq!(stats.dispatched, offered, "node {node} at loss {loss}");
        assert_eq!(stats.shed, 0, "node {node} at loss {loss}");
        busy_cycles.push(stats.max_shard_busy_cycles);
    }
    RingRun {
        hooks_per_node,
        busy_cycles,
        wave_us,
        transport,
    }
}

/// Capacity on the cycle model, one tier up: going from one node to
/// four, the hottest shard anywhere in the fleet carries at most half
/// the load, at 0 % and at 5 % loss (capacity scaling ≥ 2.0x) — the
/// ring spreads the hooks over at least three of the four nodes, and
/// every node's ledger stays exactly-once.
#[test]
fn ring_capacity_scales_over_four_nodes_exactly_once_under_loss() {
    for loss in [0.0, 0.05] {
        let one = ring_run(1, loss, 8);
        let four = ring_run(4, loss, 8);
        let scaling = *one.busy_cycles.iter().max().unwrap() as f64
            / *four.busy_cycles.iter().max().unwrap() as f64;
        assert!(
            scaling >= 2.0,
            "capacity scaling 1→4 nodes at loss {loss}: {scaling:.2} < 2.0 ({:?})",
            four.busy_cycles
        );
        assert!(
            four.hooks_per_node.iter().filter(|&&n| n > 0).count() >= 3,
            "hooks concentrated: {:?}",
            four.hooks_per_node
        );
    }
}

/// The regression tripwire for stop-and-wait: the same four-node wave
/// at window 8 takes a fraction of window 1's virtual link time
/// (≥ 2.5x faster lossless, ≥ 2.0x at 5 % loss). Virtual time is the
/// seeded link clock, so this holds on any box.
#[test]
fn window_eight_beats_stop_and_wait_in_virtual_time() {
    let finish = |run: &RingRun| *run.wave_us.iter().max().unwrap();
    for (loss, floor) in [(0.0, 2.5), (0.05, 2.0)] {
        let speedup = finish(&ring_run(4, loss, 1)) as f64 / finish(&ring_run(4, loss, 8)) as f64;
        assert!(
            speedup >= floor,
            "window 8 vs 1 at loss {loss}: {speedup:.2}x < {floor}x"
        );
    }
}

/// Run-to-run determinism of the lossy fleet, which is what lets the
/// ratios above be exact: the same seeded four-node run at 5 % loss
/// repeats every node's virtual clock, retransmit count and
/// out-of-order completions.
#[test]
fn seeded_lossy_fleet_run_repeats_exactly() {
    let counters = |run: RingRun| -> Vec<(u64, u64, u64)> {
        run.transport
            .iter()
            .map(|t| (t.virtual_now_us, t.retransmits, t.completed_out_of_order))
            .collect()
    };
    let first = counters(ring_run(4, 0.05, 8));
    assert_eq!(first, counters(ring_run(4, 0.05, 8)));
}
