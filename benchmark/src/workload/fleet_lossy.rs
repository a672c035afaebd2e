//! `fleet_lossy`: the `FcFleet` front over two `RemoteNode`s (window 8)
//! on a lossy, duplicating, reordering link, `warm_get`'s container
//! behind them. Wire codec, exchange table, retransmission and dedup
//! dominate; exactly-once is part of correctness: the nodes' ledger
//! must show every offered event dispatched once, nothing shed, and
//! duplicates absorbed.
//!
//! The link's loss pattern is part of the simulated environment, not of
//! the inputs: its seeds are constants, `--seed` only changes what the
//! tenants' counters hold. Every wave has the same shape whatever the
//! seed, so the virtual clock repeats exactly.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use fc_core::contract::ContractOffer;
use fc_core::deploy::author_update;
use fc_core::engine::{HookReport, HostRegion};
use fc_core::helpers_impl::{coap_ctx_bytes, standard_helper_ids};
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_fleet::node::{RemoteConfig, RemoteNode, FLEET_MTU};
use fc_fleet::wire::{self, NodeOp, ReplyBody};
use fc_fleet::{FcFleet, FleetConfig};
use fc_host::coap::response_pdu;
use fc_host::{
    DeployReport, HookEvent, LocalNode, MetricsSnapshot, NodeError, NodeReply, NodeService,
    NodeStats, Ticket, TransportStats, WindowedNode,
};
use fc_kvstore::Scope;
use fc_net::coap::{Code, Message};
use fc_net::link::LinkConfig;
use fc_suit::{SigningKey, Uuid};

use super::{
    fnv1a, host_config, is_content_pdu, Ledger, Sizes, Tally, Variant, Workload, ENGINE, FNV_SEED,
    PKT_LEN, PLATFORM, VALUE_KEY, WINDOW,
};
use crate::harness::InputRng;
use crate::shadow::{ShadowEngine, ShadowVm};
use crate::trace::{self, SpanId, L, NO_SPAN};

/// Nodes behind the front.
const NODES: usize = 2;
/// Hooks (= tenants = routes) spread over the ring.
const HOOKS: usize = 8;
/// Concurrent exchanges per node (CoAP NSTART).
const NODE_WINDOW: usize = 8;
/// Distinct pre-encoded requests; request `j` addresses hook `j % HOOKS`.
const POOL: usize = 256;
/// Below this many ops a run may legitimately see no duplicate.
const DEDUP_EXPECTED_FROM: u64 = 1_000;

fn link_config(node: usize) -> LinkConfig {
    LinkConfig {
        loss: 0.05,
        duplicate: 0.025,
        jitter_us: 20_000,
        mtu: FLEET_MTU,
        seed: 0x000f_1ee7 + node as u64,
        ..LinkConfig::default()
    }
}

fn key_id(hook: usize) -> String {
    format!("bench-f{hook}")
}

fn hook_for(hook: usize) -> Hook {
    Hook::new(&key_id(hook), HookKind::CoapRequest, HookPolicy::First)
}

fn route(hook: usize) -> String {
    format!("f{hook}/cnt")
}

/// Inputs of [`FleetLossy`].
pub struct Inputs {
    /// Counter value per tenant (five digits: frame sizes must not
    /// depend on the seed, or MTU coalescing and with it the link's
    /// random draws would).
    values: Vec<u32>,
    /// Encoded CoAP GETs.
    pool: Vec<Vec<u8>>,
    corrupt: Option<usize>,
}

type SharedNode = Rc<RefCell<RemoteNode<LocalNode>>>;

/// The `NodeService` boundary, observed: every call the fleet makes
/// into a node passes through here unchanged. It is how the benchmark
/// times the transport from outside and keeps a handle on the node's
/// link and dedup counters, which the fleet does not expose.
struct Probe {
    node: SharedNode,
    /// The last transport span, for shadows to hang off.
    last_span: Rc<Cell<SpanId>>,
}

impl Probe {
    fn call<T>(&self, f: impl FnOnce(&mut RemoteNode<LocalNode>) -> T) -> T {
        let (span, out) = trace::time_id(L::FleetTransport, || f(&mut self.node.borrow_mut()));
        if span != NO_SPAN {
            self.last_span.set(span);
        }
        out
    }
}

impl NodeService for Probe {
    fn register_hook(&mut self, hook: Hook, offer: ContractOffer) -> Result<(), NodeError> {
        self.call(|n| n.register_hook(hook, offer))
    }
    fn unregister_hook(&mut self, hook: Uuid) -> Result<(), NodeError> {
        self.call(|n| n.unregister_hook(hook))
    }
    fn dispatch(&mut self, hook: Uuid, event: HookEvent) -> Result<HookReport, NodeError> {
        self.call(|n| n.dispatch(hook, event))
    }
    fn dispatch_batch(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
    ) -> Result<Vec<Result<HookReport, NodeError>>, NodeError> {
        self.call(|n| n.dispatch_batch(hook, events))
    }
    fn stage_chunk(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<(), NodeError> {
        self.call(|n| n.stage_chunk(uri, offset, chunk, restart))
    }
    fn deploy(&mut self, envelope: &[u8]) -> Result<DeployReport, NodeError> {
        self.call(|n| n.deploy(envelope))
    }
    fn stats(&mut self) -> Result<NodeStats, NodeError> {
        self.call(|n| n.stats())
    }
    fn metrics(&mut self) -> Result<MetricsSnapshot, NodeError> {
        self.call(|n| n.metrics())
    }
    fn windowed(&mut self) -> Option<&mut dyn WindowedNode> {
        Some(self)
    }
    fn crashed(&self) -> bool {
        self.node.borrow().crashed()
    }
    fn dispatch_tagged(
        &mut self,
        hook: Uuid,
        event: HookEvent,
        token: &[u8],
    ) -> Result<HookReport, NodeError> {
        self.call(|n| n.dispatch_tagged(hook, event, token))
    }
    fn dispatch_batch_tagged(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        token: &[u8],
    ) -> Result<Vec<Result<HookReport, NodeError>>, NodeError> {
        self.call(|n| n.dispatch_batch_tagged(hook, events, token))
    }
    fn deploy_tagged(&mut self, envelope: &[u8], token: &[u8]) -> Result<DeployReport, NodeError> {
        self.call(|n| n.deploy_tagged(envelope, token))
    }
}

impl WindowedNode for Probe {
    fn submit_batch(&mut self, hook: Uuid, events: Vec<HookEvent>) -> Result<Ticket, NodeError> {
        self.call(|n| n.submit_batch(hook, events))
    }
    fn submit_stage(
        &mut self,
        uri: &str,
        offset: usize,
        chunk: &[u8],
        restart: bool,
    ) -> Result<Ticket, NodeError> {
        self.call(|n| n.submit_stage(uri, offset, chunk, restart))
    }
    fn submit_deploy(&mut self, envelope: &[u8]) -> Result<Ticket, NodeError> {
        self.call(|n| n.submit_deploy(envelope))
    }
    fn submit_batch_tagged(
        &mut self,
        hook: Uuid,
        events: Vec<HookEvent>,
        token: &[u8],
    ) -> Result<Ticket, NodeError> {
        self.call(|n| n.submit_batch_tagged(hook, events, token))
    }
    fn submit_deploy_tagged(&mut self, envelope: &[u8], token: &[u8]) -> Result<Ticket, NodeError> {
        self.call(|n| n.submit_deploy_tagged(envelope, token))
    }
    fn pump(&mut self) -> bool {
        self.call(|n| n.pump())
    }
    fn take(&mut self, ticket: Ticket) -> Option<Result<NodeReply, NodeError>> {
        self.call(|n| n.take(ticket))
    }
    fn transport_stats(&self) -> TransportStats {
        self.node.borrow().transport_stats()
    }
}

/// Shadow instances of the traced pass.
struct Shadows {
    engine: ShadowEngine,
    vms: Vec<ShadowVm>,
    wire_bytes: u64,
    runs: u64,
}

/// The fleet, its nodes and the reference model.
pub struct FleetLossy {
    fleet: FcFleet,
    nodes: Vec<SharedNode>,
    hooks: Vec<Uuid>,
    by_path: HashMap<String, usize>,
    last_transport: Rc<Cell<SpanId>>,
    /// Each node's virtual clock when set-up ended.
    clock_at_start: Vec<u64>,
    /// Wall time and ops of the loaded waves.
    wave_ns: u64,
    wave_ops: u64,
    shadows: Option<Shadows>,
}

fn event() -> HookEvent {
    HookEvent {
        ctx: coap_ctx_bytes(PKT_LEN as u32),
        extra: vec![HostRegion::read_write("pkt", vec![0; PKT_LEN])],
    }
}

impl FleetLossy {
    fn check(inputs: &Inputs, op: usize, hook: usize, pdu: Option<&[u8]>) -> bool {
        let matches = is_content_pdu(pdu, inputs.values[hook]);
        matches != (inputs.corrupt == Some(op))
    }

    fn clocks(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.borrow().now_us()).collect()
    }

    /// The layers under `serve`, called again on the op's own event.
    fn shadow_op(&mut self, serve: SpanId, hook: usize, report: Option<&HookReport>) {
        let Some(shadows) = self.shadows.as_mut() else {
            return;
        };
        if serve == NO_SPAN {
            return;
        }
        let id = self.hooks[hook];
        let fleet = &self.fleet;
        trace::shadow(L::RingRoute, serve, || fleet.owner_of(id));
        let transport = self.last_transport.get();
        let ev = event();
        let op = NodeOp::Dispatch {
            hook: id,
            event: ev.clone(),
        };
        let encoded = trace::shadow(L::WireEncode, transport, || wire::encode_op(&op))
            .map_or_else(Vec::new, |(_, b)| b);
        trace::shadow(L::WireDecode, transport, || {
            wire::decode_op(&encoded).is_ok()
        });
        shadows.wire_bytes += encoded.len() as u64;
        if let Some(report) = report {
            let reply = Ok(ReplyBody::Report(report.clone()));
            let encoded = trace::shadow(L::WireEncode, transport, || wire::encode_reply(&reply))
                .map_or_else(Vec::new, |(_, b)| b);
            trace::shadow(L::WireDecode, transport, || {
                wire::decode_reply(&encoded).is_ok()
            });
            shadows.wire_bytes += encoded.len() as u64;
        }
        shadows.runs += 1;
        if let Some((fire, _)) = shadows.engine.fire(transport, id, &ev.ctx, &ev.extra) {
            shadows.vms[hook].run(fire, &ev.ctx, &ev.extra);
        }
    }
}

impl Workload for FleetLossy {
    const NAME: &'static str = "fleet_lossy";
    const SPANS_PER_OP: usize = 16;
    const TWIN: Option<(Variant, &'static str)> = None;
    type Inputs = Inputs;

    fn sizes(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                warmup: 16,
                solo: 96,
                loaded: 640,
            }
        } else {
            Sizes {
                warmup: 256,
                solo: 2_048,
                loaded: 24_000,
            }
        }
    }

    fn inputs(seed: u64, _sizes: Sizes) -> Inputs {
        let mut rng = InputRng::new(seed, 0x666c_6565);
        let values = (0..HOOKS)
            .map(|_| 10_000 + rng.below(80_000) as u32)
            .collect();
        let pool = (0..POOL)
            .map(|j| {
                let token = (rng.next_u64() as u16).to_le_bytes();
                let mut msg = Message::request(Code::Get, rng.next_u64() as u16, &token);
                msg.set_path(&route(j % HOOKS));
                msg.encode()
            })
            .collect();
        Inputs {
            values,
            pool,
            corrupt: None,
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = FNV_SEED;
        for v in &inputs.values {
            h = fnv1a(h, &v.to_le_bytes());
        }
        for r in &inputs.pool {
            h = fnv1a(h, r);
        }
        h
    }

    fn corrupt(inputs: &mut Inputs, op: usize) {
        inputs.corrupt = Some(op);
    }

    fn setup(inputs: &Inputs, variant: Variant) -> Self {
        let key = SigningKey::from_seed(b"fc-benchmark-maintainer");
        let last_transport = Rc::new(Cell::new(NO_SPAN));
        let mut fleet = FcFleet::new(FleetConfig {
            pkt_len: PKT_LEN,
            ..FleetConfig::default()
        });
        let mut nodes = Vec::new();
        for i in 0..NODES {
            let mut node = LocalNode::new(PLATFORM, ENGINE, host_config(variant));
            for (h, value) in inputs.values.iter().enumerate() {
                node.updates_mut().provision_tenant(
                    key_id(h).as_bytes(),
                    key.verifying_key(),
                    h as u32,
                );
                node.host()
                    .env()
                    .stores()
                    .store(0, h as u32, Scope::Tenant, VALUE_KEY, i64::from(*value))
                    .expect("seeds tenant value");
            }
            let remote = RemoteNode::new(
                node,
                RemoteConfig {
                    link: link_config(i),
                    max_retransmit: 8,
                    window: NODE_WINDOW,
                    ..RemoteConfig::default()
                },
            );
            let shared = Rc::new(RefCell::new(remote));
            fleet
                .add_node(Box::new(Probe {
                    node: Rc::clone(&shared),
                    last_span: Rc::clone(&last_transport),
                }))
                .expect("node admitted");
            nodes.push(shared);
        }
        let app = fc_core::apps::coap_formatter();
        let image = app.to_bytes();
        let mut hooks = Vec::new();
        let mut by_path = HashMap::new();
        for h in 0..HOOKS {
            let hook = hook_for(h);
            hooks.push(hook.id);
            by_path.insert(route(h), h);
            fleet.add_route(&route(h), hook.id);
            fleet
                .register_hook(hook.clone(), ContractOffer::helpers(standard_helper_ids()))
                .expect("hook registered");
            let (envelope, payload) = author_update(
                &app,
                hook.id,
                1,
                &format!("f{h}-v1"),
                &key,
                key_id(h).as_bytes(),
            );
            let (_, report) = fleet.deploy(&envelope, &payload).expect("deploy accepted");
            assert!(report.attached, "deploy attached to its hook");
        }
        let shadows = trace::enabled().then(|| {
            let mut engine = ShadowEngine::new();
            let mut vms = Vec::new();
            for (h, value) in inputs.values.iter().enumerate() {
                let request = fc_core::apps::coap_formatter_request();
                vms.push(
                    engine
                        .tenant(&hook_for(h), h as u32, &image, request, *value)
                        .2,
                );
            }
            Shadows {
                engine,
                vms,
                wire_bytes: 0,
                runs: 0,
            }
        });
        let mut w = FleetLossy {
            fleet,
            nodes,
            hooks,
            by_path,
            last_transport,
            clock_at_start: Vec::new(),
            wave_ns: 0,
            wave_ops: 0,
            shadows,
        };
        w.clock_at_start = w.clocks();
        w
    }

    fn solo(&mut self, inputs: &Inputs, op: usize) -> Tally {
        trace::set_op(op as u32);
        let bytes = &inputs.pool[op % inputs.pool.len()];
        let hook = op % inputs.pool.len() % HOOKS;
        let mut shadow_input = None;
        let tally = trace::time(L::Op, || {
            let Ok(msg) = trace::time(L::CoapDecode, || Message::decode(bytes)) else {
                return Tally::one(false, 0);
            };
            let (serve, reply) = trace::time_id(L::FleetServe, || self.fleet.serve(&msg).ok());
            let ok = trace::time(L::Check, || {
                Self::check(inputs, op, hook, reply.as_ref().map(|r| r.pdu.as_slice()))
            });
            let cycles = reply.as_ref().map_or(0, |r| r.report.cycles);
            if trace::enabled() {
                shadow_input = Some((serve, reply.map(|r| r.report)));
            }
            Tally::one(ok, cycles)
        });
        if let Some((serve, report)) = shadow_input {
            self.shadow_op(serve, hook, report.as_ref());
        }
        tally
    }

    fn loaded(
        &mut self,
        inputs: &Inputs,
        ops: Range<usize>,
        mut latencies: Option<&mut Vec<u64>>,
    ) -> Tally {
        let mut tally = Tally::default();
        let started = Instant::now();
        let total = ops.len() as u64;
        let mut next = ops.start;
        while next < ops.end {
            let wave = next..(next + WINDOW).min(ops.end);
            next = wave.end;
            let sent = Instant::now();
            // One entry per hook, its events in request order.
            let mut work: Vec<(Uuid, Vec<HookEvent>)> = Vec::new();
            let mut members: Vec<(usize, Vec<usize>)> = Vec::new();
            for op in wave.clone() {
                let bytes = &inputs.pool[op % inputs.pool.len()];
                let hook = Message::decode(bytes)
                    .ok()
                    .and_then(|msg| self.by_path.get(&msg.path()).copied());
                let Some(hook) = hook else {
                    tally.add(Tally::one(false, 0));
                    continue;
                };
                match members.iter().position(|(h, _)| *h == hook) {
                    Some(i) => {
                        work[i].1.push(event());
                        members[i].1.push(op);
                    }
                    None => {
                        work.push((self.hooks[hook], vec![event()]));
                        members.push((hook, vec![op]));
                    }
                }
            }
            let outcomes = self.fleet.dispatch_all(work);
            for ((hook, ops), outcome) in members.into_iter().zip(outcomes) {
                let mut reports = outcome.ok().unwrap_or_default().into_iter();
                for op in ops {
                    // A missing report is a failed op, like a wrong one.
                    let report = reports.next().and_then(Result::ok);
                    let pdu = report.as_ref().map(response_pdu);
                    tally.add(Tally::one(
                        Self::check(inputs, op, hook, pdu.as_deref()),
                        report.map_or(0, |r| r.cycles),
                    ));
                }
            }
            if let Some(lat) = latencies.as_mut() {
                let ns = sent.elapsed().as_nanos() as u64;
                lat.extend(wave.map(|_| ns));
            }
        }
        self.wave_ns += started.elapsed().as_nanos() as u64;
        self.wave_ops += total;
        tally
    }

    fn finish(mut self, _inputs: &Inputs, offered: u64) -> Ledger {
        let mut ledger = Ledger::default();
        let kops = offered.max(1) as f64 / 1e3;
        // Clocks and transport counters first: asking the nodes for
        // their stats crosses the link too.
        let link_us: u64 = self
            .clocks()
            .iter()
            .zip(&self.clock_at_start)
            .map(|(now, start)| now - start)
            .sum();
        ledger.link_virtual_us = link_us;
        let transport: Vec<TransportStats> = self
            .fleet
            .transport_stats()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let (mut dropped, mut duplicated, mut deduped) = (0u64, 0u64, 0u64);
        for node in &self.nodes {
            let node = node.borrow();
            dropped += node.link().dropped_count();
            duplicated += node.link().duplicated_count();
            deduped += node.endpoint().deduped_count();
        }
        let (mut dispatched, mut shed) = (0u64, 0u64);
        for (id, stats) in self.fleet.stats() {
            match stats {
                Ok(stats) => {
                    dispatched += stats.dispatched;
                    shed += stats.shed;
                }
                Err(e) => ledger.violation = Some(format!("node {id} stats: {e}")),
            }
        }
        if dispatched != offered || shed != 0 {
            ledger.violation = Some(format!(
                "exactly-once ledger: {dispatched} dispatched of {offered} offered, {shed} shed"
            ));
        } else if offered >= DEDUP_EXPECTED_FROM && deduped == 0 {
            ledger.violation = Some("no duplicate was absorbed: loss was not injected".into());
        }
        let mut per_node = [0usize; NODES];
        for hook in &self.hooks {
            if let Some(owner) = self.fleet.owner_of(*hook) {
                per_node[owner] += 1;
            }
        }
        let sum = |f: fn(&TransportStats) -> u64| transport.iter().map(f).sum::<u64>() as f64;
        let max = |f: fn(&TransportStats) -> u64| transport.iter().map(f).max().unwrap_or(0) as f64;
        ledger.layers.extend([
            (
                "net.link.virtual_us_per_op",
                link_us as f64 / offered.max(1) as f64,
            ),
            ("net.link.dropped_per_kop", dropped as f64 / kops),
            ("net.link.duplicated_per_kop", duplicated as f64 / kops),
            (
                "fleet.ring.balance",
                *per_node.iter().min().unwrap_or(&0) as f64
                    / (*per_node.iter().max().unwrap_or(&1)).max(1) as f64,
            ),
            (
                "fleet.front.wave_ns_per_op",
                self.wave_ns as f64 / self.wave_ops.max(1) as f64,
            ),
            (
                "fleet.remote.retransmits_per_kop",
                sum(|t| t.retransmits) / kops,
            ),
            (
                "fleet.remote.out_of_order_per_kop",
                sum(|t| t.completed_out_of_order) / kops,
            ),
            (
                "fleet.remote.coalesced_frames_per_kop",
                sum(|t| t.coalesced_frames) / kops,
            ),
            ("fleet.remote.in_flight_hwm", max(|t| t.in_flight_hwm)),
            ("fleet.remote.srtt_us", max(|t| t.srtt_us)),
            ("fleet.endpoint.deduped_per_kop", deduped as f64 / kops),
            ("fleet.node.dispatched", dispatched as f64),
            ("fleet.node.shed", shed as f64),
            ("host.dispatch.shed_per_kop", shed as f64 / kops),
        ]);
        if let Some(shadows) = self.shadows.take() {
            if shadows.runs > 0 {
                ledger.layers.push((
                    "fleet.wire.bytes_per_op",
                    shadows.wire_bytes as f64 / shadows.runs as f64,
                ));
            }
        }
        ledger
    }

    fn extras(_inputs: &Inputs, _sizes: Sizes) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
