//! `cold_deploy`: one live SUIT deploy of a fresh image version per op
//! — Block1 staging, sha256, signature, CBOR, verify, decode, lower,
//! control-lane swap — plus the first request to the new container.
//!
//! It uses fc-rbpf for *lowering* instead of running, so a tier that
//! buys run speed with lowering work pays here what it gains on
//! `compute_fletcher`. Every image replies with a constant baked into
//! it, so the first reply proves which version is live.
//!
//! The deploy API is synchronous, so the loaded phase is the same op
//! back to back without per-op clock reads, not a window of 32.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Instant;

use fc_core::contract::ContractOffer;
use fc_core::deploy::{author_update, contract_request_for};
use fc_core::helpers_impl::standard_helper_ids;
use fc_core::hooks::{Hook, HookKind, HookPolicy};
use fc_host::coap::response_pdu;
use fc_host::{CoapFront, FcHost, LiveUpdateService};
use fc_net::block::Block;
use fc_net::coap::{option, Code, Message};
use fc_suit::manifest::Manifest;
use fc_suit::{SigningKey, VerifyingKey};

use super::{
    constant_reply_program, fnv1a, host_config, is_content_pdu, Ledger, Sizes, Tally, Variant,
    Workload, ENGINE, FNV_SEED, PKT_LEN, PLATFORM,
};
use crate::harness::{AllocCount, InputRng};
use crate::shadow::{ShadowEngine, ShadowVm};
use crate::trace::{self, SpanId, L, NO_SPAN};

/// Components (= hooks = tenants) deploys rotate over.
const COMPONENTS: usize = 8;
/// Block1 size of the staging transfer.
const BLOCK_BYTES: usize = 64;

/// One op's pre-encoded requests.
pub struct Deploy {
    component: usize,
    /// What the image replies with.
    value: u32,
    /// `POST /suit/payload?<uri>` Block1 requests, in order, each with
    /// the ACK it must get.
    blocks: Vec<(Vec<u8>, Vec<u8>)>,
    /// What the accepted manifest's report must say (` seq=<version> `).
    sequence_text: String,
    /// `POST /suit/manifest` carrying the signed envelope.
    manifest: Vec<u8>,
    /// The first `GET` to the freshly deployed container.
    get: Vec<u8>,
}

/// Inputs of [`ColdDeploy`].
pub struct Inputs {
    deploys: Vec<Deploy>,
    key: VerifyingKey,
    corrupt: Option<usize>,
}

fn key_id(component: usize) -> String {
    format!("bench-c{component}")
}

fn hook_for(component: usize) -> Hook {
    Hook::new(&key_id(component), HookKind::CoapRequest, HookPolicy::First)
}

fn route(component: usize) -> String {
    format!("c{component}/val")
}

/// The ACK a Block1 POST must get, byte for byte: the request's id and
/// token, 2.31 Continue or 2.04 Changed, and the Block1 option echoed.
fn expected_block_ack(request: &Message, block: Block) -> Vec<u8> {
    let code = if block.more { 0x5f } else { 0x44 };
    let mut ack = vec![0x60 | request.token.len() as u8, code];
    ack.extend_from_slice(&request.message_id.to_be_bytes());
    ack.extend_from_slice(&request.token);
    let value = block.to_uint().to_be_bytes();
    let value = &value[value.iter().position(|b| *b != 0).unwrap_or(value.len())..];
    // Option 27 from 0: delta nibble 13 (+ one extension byte, 27 - 13).
    ack.push(0xd0 | value.len() as u8);
    ack.push((option::BLOCK1 - 13) as u8);
    ack.extend_from_slice(value);
    ack
}

/// Shadow instances of the traced pass.
struct Shadows {
    engine: ShadowEngine,
    /// Staging buffer the `fc_net::block` shadow fills.
    staging: Vec<u8>,
    previous: [Option<u32>; COMPONENTS],
    last_lower: Option<crate::shadow::LowerTimes>,
}

/// A host taking live deploys.
pub struct ColdDeploy {
    host: FcHost,
    front: CoapFront,
    updates: LiveUpdateService,
    shadows: Option<Shadows>,
}

impl ColdDeploy {
    /// Sends one request to a SUIT resource and returns the decoded
    /// request, the span around the layer call and the response bytes.
    fn suit_exchange(&mut self, bytes: &[u8], layer: L) -> Option<(Message, SpanId, Vec<u8>)> {
        let msg = trace::time(L::CoapDecode, || Message::decode(bytes)).ok()?;
        let (span, resp) = trace::time_id(layer, || {
            self.front
                .dispatch_suit(&self.host, &mut self.updates, &msg)
        });
        let resp = resp?;
        let out = trace::time(L::CoapEncode, || resp.encode());
        Some((msg, span, out))
    }

    /// The first request to the new container, through the same front,
    /// queue and reply path as `warm_get`.
    fn first_request(&self, bytes: &[u8]) -> Option<(Vec<u8>, u64)> {
        trace::time(L::DeployFirstReply, || {
            let msg = trace::time(L::CoapDecode, || Message::decode(bytes)).ok()?;
            let (hook, ctx, pkt) =
                trace::time(L::FrontRequestEvent, || self.front.request_event(&msg)).ok()?;
            let rx = trace::time(L::DispatchEnqueue, || {
                self.host
                    .fire_with_reply(hook, &ctx, std::slice::from_ref(&pkt))
            })
            .ok()?;
            let report = trace::time(L::DispatchWait, || rx.recv()).ok()?.ok()?;
            let pdu = trace::time(L::FrontReply, || {
                let pdu = response_pdu(&report);
                Message::decode(&pdu).ok().map(|_| pdu)
            })?;
            Some((pdu, report.cycles))
        })
    }

    fn op(&mut self, inputs: &Inputs, op: usize) -> Tally {
        trace::set_op(op as u32);
        let deploy = &inputs.deploys[op];
        let mut apply_span = NO_SPAN;
        let mut stage_spans: Vec<(SpanId, Message)> = Vec::new();
        let tally = trace::time(L::Op, || {
            let mut ok = true;
            for (bytes, expected_ack) in &deploy.blocks {
                let Some((msg, span, ack)) = self.suit_exchange(bytes, L::DeployStage) else {
                    return Tally::one(false, 0);
                };
                ok &= trace::time(L::Check, || ack == *expected_ack);
                if trace::enabled() {
                    stage_spans.push((span, msg));
                }
            }
            let Some((msg, span, resp)) = self.suit_exchange(&deploy.manifest, L::DeployApply)
            else {
                return Tally::one(false, 0);
            };
            apply_span = span;
            ok &= trace::time(L::Check, || {
                // The report names program-assigned ids; the reference
                // knows the header, the sequence and that it attached.
                let body = 4 + msg.token.len();
                let text = String::from_utf8_lossy(resp.get(body + 1..).unwrap_or_default());
                resp.starts_with(&[0x60 | msg.token.len() as u8, 0x44])
                    && resp.get(2..4) == Some(&msg.message_id.to_be_bytes()[..])
                    && resp.get(4..body) == Some(&msg.token[..])
                    && resp.get(body) == Some(&0xff)
                    && text.contains(&deploy.sequence_text)
                    && text.contains("attached=true")
            });
            let first = self.first_request(&deploy.get);
            ok &= trace::time(L::Check, || {
                is_content_pdu(first.as_ref().map(|(pdu, _)| pdu.as_slice()), deploy.value)
            });
            Tally::one(
                ok != (inputs.corrupt == Some(op)),
                first.map_or(0, |(_, cycles)| cycles),
            )
        });
        if apply_span != NO_SPAN {
            self.shadow_op(inputs, deploy, apply_span, &stage_spans);
        }
        tally
    }

    /// The inner layers a deploy runs through, called again on the op's
    /// own bytes and accounted inside the spans that waited for them.
    fn shadow_op(
        &mut self,
        inputs: &Inputs,
        deploy: &Deploy,
        apply: SpanId,
        stages: &[(SpanId, Message)],
    ) {
        let Some(shadows) = self.shadows.as_mut() else {
            return;
        };
        for (span, msg) in stages {
            let Some(block) = msg.option_uint(option::BLOCK1).and_then(Block::from_uint) else {
                continue;
            };
            let staging = &mut shadows.staging;
            trace::shadow(L::BlockStage, *span, || {
                fc_net::block::stage_chunk(staging, block.offset(), &msg.payload, block.num == 0)
            });
        }
        let payload = std::mem::take(&mut shadows.staging);
        let Ok(manifest) = Message::decode(&deploy.manifest) else {
            return;
        };
        trace::shadow(L::SuitVerify, apply, || {
            Manifest::verify_and_parse(&manifest.payload, &inputs.key).is_ok()
        });
        trace::shadow(L::SuitDigest, apply, || fc_suit::sha256::sha256(&payload));
        let tenant = deploy.component as u32;
        let engine = &mut shadows.engine.engine;
        let installed = trace::shadow(L::EngineInstall, apply, || {
            let program = fc_rbpf::program::FcProgram::from_bytes(&payload).ok()?;
            engine
                .install("shadow", tenant, &payload, contract_request_for(&program))
                .ok()
        });
        if let Some((install, Some(id))) = installed {
            let vm = ShadowVm::lower(&payload, &shadows.engine.env, id, tenant, Some(install));
            shadows.last_lower = Some(vm.times);
            if let Some(old) = shadows.previous[deploy.component].replace(id) {
                shadows.engine.engine.remove(old);
            }
        }
        shadows.staging = payload;
    }
}

impl Workload for ColdDeploy {
    const NAME: &'static str = "cold_deploy";
    const SPANS_PER_OP: usize = 40;
    const TWIN: Option<(Variant, &'static str)> = None;
    type Inputs = Inputs;

    fn sizes(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                warmup: 16,
                solo: 40,
                loaded: 80,
            }
        } else {
            Sizes {
                warmup: 32,
                solo: 1_200,
                loaded: 4_000,
            }
        }
    }

    fn inputs(seed: u64, sizes: Sizes) -> Inputs {
        let mut rng = InputRng::new(seed, 0x636f_6c64);
        let key = SigningKey::from_seed(b"fc-benchmark-maintainer");
        let deploys = (0..sizes.total())
            .map(|op| {
                let component = op % COMPONENTS;
                let version = (op / COMPONENTS) as u64 + 1;
                let value = 10_000 + rng.below(80_000) as u32;
                let uri = format!("c{component}-v{version}");
                let (envelope, payload) = author_update(
                    &constant_reply_program(value),
                    hook_for(component).id,
                    version,
                    &uri,
                    &key,
                    key_id(component).as_bytes(),
                );
                let token = (rng.next_u64() as u16).to_le_bytes();
                let mut mid = rng.next_u64() as u16;
                let mut next_mid = || {
                    mid = mid.wrapping_add(1);
                    mid
                };
                let count = payload.len().div_ceil(BLOCK_BYTES).max(1);
                let blocks = (0..count)
                    .map(|num| {
                        let chunk =
                            &payload[num * BLOCK_BYTES..payload.len().min((num + 1) * BLOCK_BYTES)];
                        let mut msg = Message::request(Code::Post, next_mid(), &token);
                        msg.set_path("suit/payload");
                        msg.add_option(option::URI_QUERY, uri.as_bytes().to_vec());
                        let block = Block::with_size(num as u32, num + 1 < count, BLOCK_BYTES);
                        msg.add_option_uint(option::BLOCK1, block.to_uint());
                        msg.payload = chunk.to_vec();
                        (msg.encode(), expected_block_ack(&msg, block))
                    })
                    .collect();
                let mut manifest = Message::request(Code::Post, next_mid(), &token);
                manifest.set_path("suit/manifest");
                manifest.payload = envelope;
                let mut get = Message::request(Code::Get, next_mid(), &token);
                get.set_path(&route(component));
                Deploy {
                    component,
                    sequence_text: format!(" seq={version} "),
                    value,
                    blocks,
                    manifest: manifest.encode(),
                    get: get.encode(),
                }
            })
            .collect();
        Inputs {
            deploys,
            key: key.verifying_key(),
            corrupt: None,
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = FNV_SEED;
        for d in &inputs.deploys {
            for (request, ack) in &d.blocks {
                h = fnv1a(h, request);
                h = fnv1a(h, ack);
            }
            h = fnv1a(h, &d.manifest);
            h = fnv1a(h, &d.get);
            h = fnv1a(h, &d.value.to_le_bytes());
        }
        h
    }

    fn corrupt(inputs: &mut Inputs, op: usize) {
        inputs.corrupt = Some(op);
    }

    fn setup(inputs: &Inputs, variant: Variant) -> Self {
        let host = FcHost::new(PLATFORM, ENGINE, host_config(variant));
        let mut front = CoapFront::new().with_pkt_len(PKT_LEN);
        let mut updates = LiveUpdateService::new();
        for component in 0..COMPONENTS {
            let hook = hook_for(component);
            front.add_route(&route(component), hook.id);
            host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
            updates.provision_tenant(key_id(component).as_bytes(), inputs.key, component as u32);
        }
        let shadows = trace::enabled().then(|| Shadows {
            engine: ShadowEngine::new(),
            staging: Vec::new(),
            previous: [None; COMPONENTS],
            last_lower: None,
        });
        ColdDeploy {
            host,
            front,
            updates,
            shadows,
        }
    }

    fn solo(&mut self, inputs: &Inputs, op: usize) -> Tally {
        self.op(inputs, op)
    }

    fn loaded(
        &mut self,
        inputs: &Inputs,
        ops: Range<usize>,
        mut latencies: Option<&mut Vec<u64>>,
    ) -> Tally {
        let mut tally = Tally::default();
        for op in ops {
            let sent = latencies.is_some().then(Instant::now);
            tally.add(self.op(inputs, op));
            if let (Some(sent), Some(lat)) = (sent, latencies.as_mut()) {
                lat.push(sent.elapsed().as_nanos() as u64);
            }
        }
        tally
    }

    fn finish(self, _inputs: &Inputs, offered: u64) -> Ledger {
        let mut ledger = Ledger::default();
        self.host.quiesce();
        let stats = self.host.stats();
        let (dispatched, shed, deploys) = (
            stats.dispatched.load(Ordering::Relaxed),
            stats.shed.load(Ordering::Relaxed),
            stats.deploys.load(Ordering::Relaxed),
        );
        let (accepted, rejected) = (self.updates.accepted_count(), self.updates.rejected_count());
        if dispatched != offered || shed != 0 || deploys != offered || accepted != offered {
            ledger.violation = Some(format!(
                "deploy ledger: {offered} offered, {deploys} landed, {accepted} accepted, \
                 {rejected} rejected, {dispatched} first requests served, {shed} shed"
            ));
        }
        ledger.layers.extend([
            ("host.deploy.rejected", rejected as f64),
            (
                "host.dispatch.shed_per_kop",
                shed as f64 * 1e3 / offered.max(1) as f64,
            ),
        ]);
        if let Some(t) = self.shadows.and_then(|s| s.last_lower) {
            ledger.layers.extend([
                ("rbpf.verify_ns", t.verify_ns as f64),
                ("rbpf.decode_ns", t.decode_ns as f64),
                ("rbpf.lower_ns", t.lower_ns as f64),
                ("rbpf.vm.image_bytes", t.image_bytes as f64),
            ]);
        }
        ledger
    }

    fn extras(_inputs: &Inputs, _sizes: Sizes) -> Vec<(&'static str, f64)> {
        // What one more installed container keeps resident: live heap
        // bytes across a batch of installs on a bare engine.
        const BATCH: usize = 64;
        let mut shadow = ShadowEngine::new();
        let images: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| constant_reply_program(10_000 + i as u32).to_bytes())
            .collect();
        let request = contract_request_for(&constant_reply_program(10_000));
        let before = AllocCount::this_thread();
        let mut last = 0;
        for image in &images {
            last = shadow
                .engine
                .install("resident", 0, image, request.clone())
                .expect("installs");
        }
        let live = AllocCount::this_thread().since(before).live_bytes();
        let slot = shadow.engine.container(last).expect("installed");
        vec![
            (
                "core.engine.rss_bytes_per_container",
                live as f64 / BATCH as f64,
            ),
            ("core.engine.slot_ram_bytes", slot.ram_bytes() as f64),
        ]
    }
}
