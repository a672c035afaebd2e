//! The three single-host workloads. They share one path — request
//! bytes → CoAP decode → hook event → shard queue → container → reply
//! bytes — and differ in the container and what the reply proves:
//!
//! * [`WarmGet`]: the 21-instruction counter-read container. The VM is
//!   a few percent of the op, so front parse, cross-thread hand-off,
//!   arena reset, helpers and reply encode do the work; an interpreter
//!   change must not move it.
//! * [`ComputeFletcher`]: the paper's fletcher32 over 2 KiB, 16 403
//!   instructions per op. The VM run is about nine tenths of the op, so
//!   tier and lowering changes must move this workload and nothing else.
//! * [`DurablePut`]: `WarmGet`'s path on a durable node with a
//!   container that writes a kv counter: every op is a store plus a
//!   write-ahead commit, with snapshot folds. Writes beside `WarmGet`'s
//!   reads through the same front, queue and kvstore; a journal change
//!   must move this and leave `WarmGet` alone. After the run the node
//!   is restored from its media and its kv compared with a model.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::time::Instant;

use fc_core::contract::{ContractOffer, ContractRequest};
use fc_core::deploy::{author_update, contract_request_for};
use fc_core::engine::{EngineError, HookReport, HostRegion};
use fc_core::helpers_impl::standard_helper_ids;
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_host::coap::response_pdu;
use fc_host::{CoapFront, DurabilityConfig, FcHost, JournalMedia, LocalNode, NodeService};
use fc_kvstore::Scope;
use fc_net::coap::{Code, Message};
use fc_rbpf::program::FcProgram;
use fc_suit::{SigningKey, Uuid};

use super::{
    counter_bump_program, fletcher32, fnv1a, host_config, is_content_pdu, Ledger, Sizes, Tally,
    Variant, Workload, ENGINE, FNV_SEED, PKT_LEN, PLATFORM, VALUE_KEY, WINDOW,
};
use crate::harness::InputRng;
use crate::shadow::{ShadowEngine, ShadowVm};
use crate::trace::{self, SpanId, L, NO_SPAN};

/// Which of the three a [`HostPath`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Counter read through `CoapFront`.
    WarmGet,
    /// fletcher32 over the request payload.
    ComputeFletcher,
    /// Counter write on a durable node.
    DurablePut,
}

/// Compile-time description of one flavour.
pub trait Spec {
    /// Workload name.
    const NAME: &'static str;
    /// Which path variant.
    const FLAVOR: Flavor;
    /// Full-run round sizes, sized so a round takes about a sixth of a second on
    /// the two-CPU reference box.
    const FULL: Sizes;
    /// The twin the traced pass measures against, if any.
    const TWIN: Option<(Variant, &'static str)>;
}

/// See the module docs.
pub struct WarmGet;
impl Spec for WarmGet {
    const NAME: &'static str = "warm_get";
    const FLAVOR: Flavor = Flavor::WarmGet;
    const FULL: Sizes = Sizes {
        warmup: 500,
        solo: 2_000,
        loaded: 44_000,
    };
    const TWIN: Option<(Variant, &'static str)> =
        Some((Variant::TelemetryOff, "host.telemetry.cpu_ns_per_op"));
}

/// See the module docs.
pub struct ComputeFletcher;
impl Spec for ComputeFletcher {
    const NAME: &'static str = "compute_fletcher";
    const FLAVOR: Flavor = Flavor::ComputeFletcher;
    const FULL: Sizes = Sizes {
        warmup: 100,
        solo: 1_000,
        loaded: 2_500,
    };
    const TWIN: Option<(Variant, &'static str)> = None;
}

/// See the module docs.
pub struct DurablePut;
impl Spec for DurablePut {
    const NAME: &'static str = "durable_put";
    const FLAVOR: Flavor = Flavor::DurablePut;
    const FULL: Sizes = Sizes {
        warmup: 500,
        solo: 2_000,
        loaded: 24_000,
    };
    const TWIN: Option<(Variant, &'static str)> =
        Some((Variant::DurabilityOff, "host.journal.cpu_ns_per_op"));
}

/// Tenants (= hooks = routes) on the counter workloads.
const TENANTS: usize = 4;
/// Distinct pre-encoded requests the generator cycles through.
const POOL: usize = 1024;
/// fletcher32 input size: the paper's 2 KiB buffer.
const FLETCHER_BYTES: usize = 2048;
/// Distinct 2 KiB payloads.
const FLETCHER_POOL: usize = 64;

/// One pre-encoded request.
pub struct Request {
    /// The CoAP message as it arrives from the wire.
    pub bytes: Vec<u8>,
    /// Tenant it addresses.
    pub tenant: usize,
    /// The reply bytes the reference code expects, where they do not
    /// depend on run state (fletcher); empty otherwise.
    pub expect: Vec<u8>,
}

/// Inputs of a [`HostPath`] workload.
pub struct Inputs {
    /// Initial kv value per tenant (five digits, so every reply and
    /// every wire frame has the same size whatever the seed).
    pub values: Vec<u32>,
    /// The request pool; op `i` sends `pool[i % pool.len()]`.
    pub pool: Vec<Request>,
    /// Test hook: the op whose reference reply is corrupted.
    pub corrupt: Option<usize>,
}

impl Inputs {
    fn request(&self, op: usize) -> &Request {
        &self.pool[op % self.pool.len()]
    }
}

fn route(tenant: usize) -> String {
    format!("t{tenant}/cnt")
}

fn generate(flavor: Flavor, seed: u64) -> Inputs {
    let mut rng = InputRng::new(seed, 0x686f_7374);
    let values: Vec<u32> = (0..TENANTS)
        .map(|_| 10_000 + rng.below(80_000) as u32)
        .collect();
    let pool = match flavor {
        Flavor::ComputeFletcher => (0..FLETCHER_POOL)
            .map(|_| {
                let mut payload = vec![0u8; FLETCHER_BYTES];
                rng.fill(&mut payload);
                let token = (rng.next_u64() as u16).to_le_bytes();
                let mid = rng.next_u64() as u16;
                let mut msg = Message::request(Code::Post, mid, &token);
                msg.set_path("sum");
                msg.payload = payload;
                // The reference reply, byte for byte: ACK + token
                // length, 2.05, the request's id and token, the
                // payload marker, the checksum big-endian.
                let mut expect = vec![0x60 | token.len() as u8, 0x45];
                expect.extend_from_slice(&mid.to_be_bytes());
                expect.extend_from_slice(&token);
                expect.push(0xff);
                expect.extend_from_slice(&fletcher32(&msg.payload).to_be_bytes());
                Request {
                    bytes: msg.encode(),
                    tenant: 0,
                    expect,
                }
            })
            .collect(),
        Flavor::WarmGet | Flavor::DurablePut => (0..POOL)
            .map(|_| {
                let tenant = rng.below(TENANTS as u64) as usize;
                let token = (rng.next_u64() as u16).to_le_bytes();
                let code = if flavor == Flavor::WarmGet {
                    Code::Get
                } else {
                    Code::Post
                };
                let mut msg = Message::request(code, rng.next_u64() as u16, &token);
                msg.set_path(&route(tenant));
                Request {
                    bytes: msg.encode(),
                    tenant,
                    expect: Vec::new(),
                }
            })
            .collect(),
    };
    Inputs {
        values,
        pool,
        corrupt: None,
    }
}

/// The system under test: a bare host, or a durable node and the media
/// that outlives it.
enum Sut {
    Host(Box<FcHost>),
    Node {
        node: Box<LocalNode>,
        media: JournalMedia,
        durability: DurabilityConfig,
    },
}

impl Sut {
    fn host(&self) -> &FcHost {
        match self {
            Sut::Host(host) => host,
            Sut::Node { node, .. } => node.host(),
        }
    }
}

/// Shadow instances for the traced pass, one VM per tenant.
struct Shadows {
    engine: ShadowEngine,
    vms: Vec<ShadowVm>,
    containers: Vec<u32>,
    install_ns: Vec<u64>,
    /// Shadow ops run, and what their reports added up to.
    runs: u64,
    cycles: u64,
    insns: u64,
    helper_calls: u64,
}

/// A request in flight in the loaded phase.
struct InFlight {
    rx: Receiver<Result<HookReport, EngineError>>,
    msg: Message,
    op: usize,
    sent: Option<Instant>,
}

/// A host, its front and the reference model of what it should reply.
pub struct HostPath<S: Spec> {
    sut: Sut,
    front: CoapFront,
    hooks: Vec<(Hook, ContractOffer)>,
    /// What the next reply of each tenant must carry.
    model: Vec<u32>,
    shadows: Option<Shadows>,
    _spec: PhantomData<S>,
}

fn hook_for(flavor: Flavor, tenant: usize) -> Hook {
    let kind = if flavor == Flavor::ComputeFletcher {
        HookKind::Custom
    } else {
        HookKind::CoapRequest
    };
    Hook::new(&format!("bench-t{tenant}"), kind, HookPolicy::First)
}

fn program_for(flavor: Flavor) -> (FcProgram, ContractRequest) {
    match flavor {
        Flavor::WarmGet => (
            fc_core::apps::coap_formatter(),
            fc_core::apps::coap_formatter_request(),
        ),
        Flavor::ComputeFletcher => (fc_core::apps::fletcher32_app(), ContractRequest::default()),
        Flavor::DurablePut => {
            let program = counter_bump_program();
            let request = contract_request_for(&program);
            (program, request)
        }
    }
}

impl<S: Spec> HostPath<S> {
    /// The (hook, context, granted region) a request maps to. The
    /// counter workloads use the shipped front; fletcher's "front" is
    /// this function, since `CoapFront` only builds CoAP-hook contexts.
    fn event_for(
        &self,
        msg: &Message,
    ) -> Result<(Uuid, Vec<u8>, Option<HostRegion>), fc_host::HostError> {
        trace::time(L::FrontRequestEvent, || match S::FLAVOR {
            Flavor::ComputeFletcher => Ok((
                self.hooks[0].0.id,
                fc_core::apps::fletcher_ctx(&msg.payload),
                None,
            )),
            _ => self
                .front
                .request_event(msg)
                .map(|(hook, ctx, pkt)| (hook, ctx, Some(pkt))),
        })
    }

    /// Turns a report into reply bytes the way a server would put them
    /// on the wire.
    fn reply_bytes(msg: &Message, report: &HookReport) -> Option<Vec<u8>> {
        trace::time(L::FrontReply, || match S::FLAVOR {
            Flavor::ComputeFletcher => {
                let mut reply = Message::response_to(msg, Code::Content);
                reply.payload = (report.combined? as u32).to_be_bytes().to_vec();
                Some(trace::time(L::CoapEncode, || reply.encode()))
            }
            _ => {
                let pdu = response_pdu(report);
                // A server would refuse to send what does not parse.
                let parsed = Message::decode(&pdu).ok()?;
                // The container wrote the PDU itself, so no encode is
                // on this path; the codec's encoder is timed on the
                // same message beside it (a shadow under no op).
                trace::shadow(L::CoapEncode, NO_SPAN, || parsed.encode());
                Some(pdu)
            }
        })
    }

    /// Compares reply bytes with the reference and advances the model.
    fn check(&mut self, inputs: &Inputs, op: usize, reply: Option<&[u8]>) -> bool {
        let request = inputs.request(op);
        let matches = trace::time(L::Check, || match S::FLAVOR {
            Flavor::ComputeFletcher => reply == Some(request.expect.as_slice()),
            Flavor::WarmGet => is_content_pdu(reply, self.model[request.tenant]),
            Flavor::DurablePut => {
                // Every accepted write moves the counter, whether or
                // not its reply was right.
                self.model[request.tenant] += 1;
                is_content_pdu(reply, self.model[request.tenant])
            }
        });
        // A corrupted reference no longer matches the right reply.
        matches != (inputs.corrupt == Some(op))
    }

    /// The traced pass's shadow calls on one op's own input, accounted
    /// inside the span that waited for the worker.
    fn shadow_op(&mut self, wait: SpanId, tenant: usize, ctx: &[u8], regions: &[HostRegion]) {
        let Some(shadows) = self.shadows.as_mut() else {
            return;
        };
        if wait == NO_SPAN {
            return;
        }
        let hook = self.hooks[tenant].0.id;
        let Some((fire, report)) = shadows.engine.fire(wait, hook, ctx, regions) else {
            return;
        };
        let Some((run, vm)) = shadows.vms[tenant].run(fire, ctx, regions) else {
            return;
        };
        shadows.runs += 1;
        shadows.cycles += report.map_or(0, |r| r.cycles);
        shadows.insns += vm.insns;
        shadows.helper_calls += vm.helper_calls;
        if S::FLAVOR != Flavor::ComputeFletcher {
            let stores = shadows.engine.env.stores();
            let container = shadows.containers[tenant];
            let value = trace::shadow(L::KvFetch, run, || {
                stores.fetch(container, tenant as u32, Scope::Tenant, VALUE_KEY)
            })
            .map_or(0, |(_, v)| v);
            if S::FLAVOR == Flavor::DurablePut {
                trace::shadow(L::KvStore, run, || {
                    stores.store(container, tenant as u32, Scope::Tenant, VALUE_KEY, value)
                });
            }
        }
    }

    fn submit(&self, inputs: &Inputs, op: usize, timed: bool) -> Option<InFlight> {
        let request = inputs.request(op);
        let sent = timed.then(Instant::now);
        let msg = Message::decode(&request.bytes).ok()?;
        let (hook, ctx, region) = self.event_for(&msg).ok()?;
        let rx = self
            .sut
            .host()
            .fire_with_reply(hook, &ctx, region.as_slice())
            .ok()?;
        Some(InFlight { rx, msg, op, sent })
    }

    fn complete(
        &mut self,
        inputs: &Inputs,
        flight: InFlight,
        latencies: &mut Option<&mut Vec<u64>>,
    ) -> Tally {
        let report = flight.rx.recv().ok().and_then(Result::ok);
        let reply = report
            .as_ref()
            .and_then(|r| Self::reply_bytes(&flight.msg, r));
        if let (Some(sent), Some(lat)) = (flight.sent, latencies.as_mut()) {
            lat.push(sent.elapsed().as_nanos() as u64);
        }
        let ok = self.check(inputs, flight.op, reply.as_deref());
        Tally::one(ok, report.map_or(0, |r| r.cycles))
    }
}

impl<S: Spec> Workload for HostPath<S> {
    const NAME: &'static str = S::NAME;
    // op, decode, request_event, enqueue, wait, reply, encode, check
    // and five shadows.
    const SPANS_PER_OP: usize = 14;
    const TWIN: Option<(Variant, &'static str)> = S::TWIN;
    type Inputs = Inputs;

    fn sizes(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                warmup: 20,
                solo: 200,
                loaded: 600,
            }
        } else {
            S::FULL
        }
    }

    fn inputs(seed: u64, _sizes: Sizes) -> Inputs {
        generate(S::FLAVOR, seed)
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = FNV_SEED;
        for v in &inputs.values {
            h = fnv1a(h, &v.to_le_bytes());
        }
        for r in &inputs.pool {
            h = fnv1a(h, &r.bytes);
            h = fnv1a(h, &r.expect);
        }
        h
    }

    fn corrupt(inputs: &mut Inputs, op: usize) {
        inputs.corrupt = Some(op);
    }

    fn setup(inputs: &Inputs, variant: Variant) -> Self {
        let flavor = S::FLAVOR;
        let tenants = if flavor == Flavor::ComputeFletcher {
            1
        } else {
            TENANTS
        };
        let (program, request) = program_for(flavor);
        let image = program.to_bytes();
        let offer = ContractOffer::helpers(standard_helper_ids());
        let hooks: Vec<(Hook, ContractOffer)> = (0..tenants)
            .map(|t| (hook_for(flavor, t), offer.clone()))
            .collect();
        let mut front = CoapFront::new().with_pkt_len(PKT_LEN);
        for (t, (hook, _)) in hooks.iter().enumerate() {
            front.add_route(&route(t), hook.id);
        }
        let config = host_config(variant);
        let sut = if flavor == Flavor::DurablePut {
            // Containers arrive the way they do on a real durable
            // node: as journaled SUIT deploys, so a restore brings
            // them back.
            let durability = if variant == Variant::DurabilityOff {
                DurabilityConfig::disabled()
            } else {
                DurabilityConfig::default()
            };
            let media = JournalMedia::new();
            let mut node = LocalNode::durable(PLATFORM, ENGINE, config, &media, durability);
            let key = SigningKey::from_seed(b"fc-benchmark-maintainer");
            for (t, (hook, offer)) in hooks.iter().enumerate() {
                let key_id = format!("bench-t{t}");
                node.updates_mut().provision_tenant(
                    key_id.as_bytes(),
                    key.verifying_key(),
                    t as u32,
                );
                node.register_hook(hook.clone(), offer.clone())
                    .expect("hook registers");
                let uri = format!("bench-t{t}-v1");
                let (envelope, payload) =
                    author_update(&program, hook.id, 1, &uri, &key, key_id.as_bytes());
                node.stage_chunk(&uri, 0, &payload, true).expect("stages");
                node.deploy(&envelope).expect("deploys");
            }
            Sut::Node {
                node: Box::new(node),
                media,
                durability,
            }
        } else {
            let host = FcHost::new(PLATFORM, ENGINE, config);
            for (t, (hook, offer)) in hooks.iter().enumerate() {
                host.register_hook(hook.clone(), offer.clone());
                let id = host
                    .install(&hook.name, t as u32, &image, request.clone())
                    .expect("installs");
                host.attach(id, hook.id).expect("attaches");
            }
            Sut::Host(Box::new(host))
        };
        for (t, value) in inputs.values.iter().enumerate().take(tenants) {
            sut.host()
                .env()
                .stores()
                .store(0, t as u32, Scope::Tenant, VALUE_KEY, i64::from(*value))
                .expect("seeds tenant value");
        }
        let shadows = trace::enabled().then(|| {
            let mut engine = ShadowEngine::new();
            let mut vms = Vec::new();
            let mut containers = Vec::new();
            let mut install_ns = Vec::new();
            for (t, (hook, _)) in hooks.iter().enumerate() {
                let (id, ns, vm) =
                    engine.tenant(hook, t as u32, &image, request.clone(), inputs.values[t]);
                vms.push(vm);
                containers.push(id);
                install_ns.push(ns);
            }
            Shadows {
                engine,
                vms,
                containers,
                install_ns,
                runs: 0,
                cycles: 0,
                insns: 0,
                helper_calls: 0,
            }
        });
        HostPath {
            sut,
            front,
            hooks,
            model: inputs.values.clone(),
            shadows,
            _spec: PhantomData,
        }
    }

    fn solo(&mut self, inputs: &Inputs, op: usize) -> Tally {
        trace::set_op(op as u32);
        let request = inputs.request(op);
        let mut shadow_input = None;
        let tally = trace::time(L::Op, || {
            let Ok(msg) = trace::time(L::CoapDecode, || Message::decode(&request.bytes)) else {
                return Tally::one(false, 0);
            };
            let Ok((hook, ctx, region)) = self.event_for(&msg) else {
                return Tally::one(false, 0);
            };
            let rx = trace::time(L::DispatchEnqueue, || {
                self.sut
                    .host()
                    .fire_with_reply(hook, &ctx, region.as_slice())
            });
            let (wait, report) = trace::time_id(L::DispatchWait, || {
                rx.ok().and_then(|rx| rx.recv().ok()).and_then(Result::ok)
            });
            let reply = report.as_ref().and_then(|r| Self::reply_bytes(&msg, r));
            let ok = self.check(inputs, op, reply.as_deref());
            if trace::enabled() {
                shadow_input = Some((wait, ctx, region));
            }
            Tally::one(ok, report.map_or(0, |r| r.cycles))
        });
        if let Some((wait, ctx, region)) = shadow_input {
            self.shadow_op(wait, request.tenant, &ctx, region.as_slice());
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
        let mut window: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
        let timed = latencies.is_some();
        for op in ops {
            if window.len() == WINDOW {
                // One worker serves the hooks in arrival order, so the
                // oldest request is the next to complete.
                let oldest = window.pop_front().expect("window is full");
                tally.add(self.complete(inputs, oldest, &mut latencies));
            }
            match self.submit(inputs, op, timed) {
                Some(flight) => window.push_back(flight),
                None => tally.add(Tally::one(false, 0)),
            }
        }
        for flight in window {
            tally.add(self.complete(inputs, flight, &mut latencies));
        }
        tally
    }

    fn finish(self, inputs: &Inputs, offered: u64) -> Ledger {
        let mut ledger = Ledger::default();
        let host = self.sut.host();
        host.quiesce();
        let stats = host.stats();
        let (dispatched, shed) = (
            stats.dispatched.load(Ordering::Relaxed),
            stats.shed.load(Ordering::Relaxed),
        );
        if dispatched != offered || shed != 0 {
            ledger.violation = Some(format!(
                "host ledger: dispatched {dispatched} of {offered} offered, shed {shed}"
            ));
        }
        let kops = offered.max(1) as f64 / 1e3;
        ledger
            .layers
            .push(("host.dispatch.shed_per_kop", shed as f64 / kops));
        if let Some(shadows) = &self.shadows {
            let slot = shadows
                .engine
                .engine
                .container(shadows.containers[0])
                .expect("shadow container");
            let t = shadows.vms[0].times;
            let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
            ledger.layers.extend([
                ("core.engine.install_ns", mean(&shadows.install_ns)),
                ("core.engine.slot_ram_bytes", slot.ram_bytes() as f64),
                ("rbpf.verify_ns", t.verify_ns as f64),
                ("rbpf.decode_ns", t.decode_ns as f64),
                ("rbpf.lower_ns", t.lower_ns as f64),
                ("rbpf.vm.image_bytes", t.image_bytes as f64),
            ]);
            if shadows.runs > 0 {
                let per_op = |total: u64| total as f64 / shadows.runs as f64;
                ledger.layers.extend([
                    ("core.engine.sim_cycles_per_op", per_op(shadows.cycles)),
                    ("rbpf.vm.insns_per_op", per_op(shadows.insns)),
                    ("rbpf.vm.helper_calls_per_op", per_op(shadows.helper_calls)),
                ]);
            }
        }
        let Sut::Node {
            node,
            media,
            durability,
        } = self.sut
        else {
            return ledger;
        };
        if let Some(journal) = node.host().journal() {
            let ops = journal.ops();
            ledger.layers.extend([
                (
                    "host.journal.bytes_per_op",
                    ops.bytes as f64 / offered.max(1) as f64,
                ),
                (
                    "host.journal.appends_per_op",
                    ops.appends as f64 / offered.max(1) as f64,
                ),
                ("host.journal.folds_per_kop", ops.folds as f64 / kops),
            ]);
        }
        if !durability.enabled {
            return ledger;
        }
        // Power the node off and bring a new one up from the media
        // alone: its kv must be where the model says.
        drop(node);
        let started = Instant::now();
        let restored = LocalNode::restore(
            PLATFORM,
            ENGINE,
            host_config(Variant::Default),
            &media,
            durability,
            self.hooks,
        );
        let restore_us = started.elapsed().as_secs_f64() * 1e6;
        match restored {
            Ok(restored) => {
                ledger
                    .layers
                    .push(("host.journal.restore_us_per_kcommit", restore_us / kops));
                for (t, want) in self.model.iter().enumerate() {
                    let got =
                        restored
                            .host()
                            .env()
                            .stores()
                            .fetch(0, t as u32, Scope::Tenant, VALUE_KEY);
                    if got != i64::from(*want) {
                        ledger.violation = Some(format!(
                            "restored kv of tenant {t} is {got}, model says {want} (seeded {})",
                            inputs.values[t]
                        ));
                    }
                }
            }
            Err(e) => ledger.violation = Some(format!("restore failed: {e}")),
        }
        ledger
    }

    fn extras(inputs: &Inputs, sizes: Sizes) -> Vec<(&'static str, f64)> {
        let mut w = Self::setup(inputs, Variant::Default);
        crate::harness::settle_threads();
        for op in 0..sizes.warmup {
            w.solo(inputs, op);
        }
        let ops = sizes.warmup..sizes.warmup + (sizes.loaded / 4).max(WINDOW);
        let batch = w.batch_ns_per_op(inputs, ops);
        let snapshots: Vec<f64> = (0..9).map(|_| w.snapshot_ns()).collect();
        vec![
            ("host.dispatch.batch_ns_per_op", batch),
            (
                "host.telemetry.snapshot_ns",
                crate::harness::median(&snapshots),
            ),
        ]
    }
}

impl<S: Spec> HostPath<S> {
    /// The same ops through `CoapFront::dispatch_batch` (one queue
    /// round-trip per hook per batch of [`WINDOW`]): nanoseconds per
    /// op. 0 for fletcher, which has no `CoapFront` route.
    pub fn batch_ns_per_op(&mut self, inputs: &Inputs, ops: Range<usize>) -> f64 {
        if S::FLAVOR == Flavor::ComputeFletcher {
            return 0.0;
        }
        let total = ops.len();
        let started = Instant::now();
        let mut next = ops.start;
        while next < ops.end {
            let end = (next + WINDOW).min(ops.end);
            let requests: Vec<Message> = (next..end)
                .filter_map(|op| Message::decode(&inputs.request(op).bytes).ok())
                .collect();
            let replies = self.front.dispatch_batch(self.sut.host(), &requests);
            for (op, reply) in (next..end).zip(replies) {
                let pdu = reply.ok().map(|r| r.pdu);
                self.check(inputs, op, pdu.as_deref());
            }
            next = end;
        }
        started.elapsed().as_nanos() as f64 / total.max(1) as f64
    }

    /// Time of one `FcHost::metrics_snapshot`, nanoseconds.
    pub fn snapshot_ns(&self) -> f64 {
        let started = Instant::now();
        std::hint::black_box(self.sut.host().metrics_snapshot());
        started.elapsed().as_nanos() as f64
    }
}
