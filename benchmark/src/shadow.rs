//! Shadow instances of the inner layers: a benchmark-owned
//! `HostingEngine` holding the same container the host runs (the
//! "native" row — bare `fire_hook`, no queue, no threads), and the same
//! image lowered and run directly through `fc-rbpf`'s public pipeline.
//! The traced pass calls them on each op's own input, because the
//! program has no spans of its own yet.

use std::sync::Arc;
use std::time::Instant;

use fc_core::contract::{ContractOffer, ContractRequest};
use fc_core::engine::{ContainerId, HookReport, HostRegion, HostingEngine};
use fc_core::helpers_impl::{build_registry, standard_helper_ids, HelperMeter, HostEnv};
use fc_core::hooks::Hook;
use fc_kvstore::{Scope, TenantId};
use fc_rbpf::helpers::HelperRegistry;
use fc_rbpf::isa::OpClass;
use fc_rbpf::mem::{MemoryMap, Perm, RegionId, CTX_VADDR, STACK_SIZE};
use fc_rbpf::program::FcProgram;
use fc_rbpf::{verify, DecodedProgram, ExecConfig, ThreadedInterpreter, ThreadedProgram};
use fc_suit::Uuid;

use crate::trace::{self, SpanId, L};
use crate::workload::{ENGINE, PLATFORM, VALUE_KEY};

/// Wall nanoseconds of each step from image bytes to a runnable
/// threaded program — the pipeline `HostingEngine::install` runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerTimes {
    /// `fc_rbpf::verify`.
    pub verify_ns: u64,
    /// `DecodedProgram::lower` + helper pre-check and binding.
    pub decode_ns: u64,
    /// `ThreadedProgram::lower`.
    pub lower_ns: u64,
    /// Size of the stored image.
    pub image_bytes: usize,
}

/// One image lowered outside any engine, with the memory map and helper
/// registry a run needs.
pub struct ShadowVm {
    threaded: ThreadedProgram,
    helpers: HelperRegistry<'static>,
    mem: MemoryMap,
    stack: RegionId,
    pool: Vec<Vec<u8>>,
    /// How long each lowering step took.
    pub times: LowerTimes,
}

/// What one direct run reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmRun {
    /// Instructions retired.
    pub insns: u64,
    /// Helper calls among them.
    pub helper_calls: u64,
}

impl ShadowVm {
    /// Parses, verifies and lowers `image` the way `install` does,
    /// timing each public step. When `parent` is a span, the steps are
    /// also recorded as shadows accounted inside it.
    pub fn lower(
        image: &[u8],
        env: &Arc<HostEnv>,
        container: ContainerId,
        tenant: TenantId,
        parent: Option<SpanId>,
    ) -> Self {
        let program = FcProgram::from_bytes(image).expect("benchmark image parses");
        assert!(
            program.data.is_empty() && program.rodata.is_empty(),
            "shadow runs assume text-only images"
        );
        let granted = fc_core::deploy::required_helpers(&program);
        let step = |layer: L, f: &mut dyn FnMut()| -> u64 {
            let started = Instant::now();
            match parent {
                Some(parent) if trace::enabled() => {
                    trace::shadow(layer, parent, f);
                }
                _ => f(),
            }
            started.elapsed().as_nanos() as u64
        };
        let mut verified = None;
        let verify_ns = step(L::RbpfVerify, &mut || {
            verified = Some(verify(&program.text, &granted).expect("benchmark image verifies"));
        });
        let verified = verified.expect("verified");
        let meter = HelperMeter::new();
        let helpers = build_registry(env, &meter, container, tenant, &granted);
        let mut decoded = None;
        let decode_ns = step(L::RbpfDecode, &mut || {
            let mut d = DecodedProgram::lower(&verified);
            d.precheck_helpers(&granted).expect("helpers granted");
            d.bind_helpers(&helpers);
            decoded = Some(d);
        });
        let decoded = decoded.expect("decoded");
        let mut threaded = None;
        let lower_ns = step(L::RbpfLower, &mut || {
            threaded = Some(ThreadedProgram::lower(&decoded));
        });
        let mut mem = MemoryMap::new();
        let stack = mem.add_stack(STACK_SIZE);
        ShadowVm {
            threaded: threaded.expect("lowered"),
            helpers,
            mem,
            stack,
            pool: Vec::new(),
            times: LowerTimes {
                verify_ns,
                decode_ns,
                lower_ns,
                image_bytes: image.len(),
            },
        }
    }

    /// Runs the program on `ctx` and `regions` as a shadow of `parent`:
    /// the memory map is rebuilt outside the span, so the span is the
    /// interpreter alone. Returns the span and what the run reported.
    pub fn run(
        &mut self,
        parent: SpanId,
        ctx: &[u8],
        regions: &[HostRegion],
    ) -> Option<(SpanId, VmRun)> {
        self.mem.recycle_regions(1, &mut self.pool);
        self.mem.region_bytes_mut(self.stack).fill(0);
        let ctx_addr = if ctx.is_empty() {
            0
        } else {
            let mut buf = self.pool.pop().unwrap_or_default();
            buf.extend_from_slice(ctx);
            self.mem.add_ctx(buf, Perm::RW);
            CTX_VADDR
        };
        for r in regions {
            let mut buf = self.pool.pop().unwrap_or_default();
            buf.extend_from_slice(&r.data);
            let perm = if r.writable { Perm::RW } else { Perm::RO };
            self.mem.add_host_region(&r.name, buf, perm);
        }
        let (mem, helpers, threaded) = (&mut self.mem, &mut self.helpers, &self.threaded);
        trace::shadow(L::VmRun, parent, || {
            match ThreadedInterpreter::new(threaded, ExecConfig::default())
                .run(mem, helpers, ctx_addr)
            {
                Ok(exec) => VmRun {
                    insns: exec.counts.total(),
                    helper_calls: exec.counts.count(OpClass::HelperCall),
                },
                Err(_) => VmRun::default(),
            }
        })
    }
}

/// A benchmark-owned engine with one container per hook, over an
/// environment of its own.
pub struct ShadowEngine {
    /// The engine.
    pub engine: HostingEngine,
    /// Its environment (shared with the [`ShadowVm`]s built over it).
    pub env: Arc<HostEnv>,
}

impl ShadowEngine {
    /// An empty engine on the benchmark's platform and flavour, running
    /// the tier the host defaults to.
    pub fn new() -> Self {
        let env = Arc::new(HostEnv::new(fc_kvstore::DEFAULT_CAPACITY));
        let mut engine = HostingEngine::with_env(PLATFORM, ENGINE, Arc::clone(&env));
        engine.set_tier(fc_host::HostConfig::default().exec_tier);
        ShadowEngine { engine, env }
    }

    /// One tenant of a host, shadowed: registers `hook`, installs and
    /// attaches `image` to it (timed), seeds the tenant's counter the
    /// way the host's is seeded, and lowers the same image for direct
    /// runs. Returns the container id, install nanoseconds and the VM.
    pub fn tenant(
        &mut self,
        hook: &Hook,
        tenant: TenantId,
        image: &[u8],
        request: ContractRequest,
        value: u32,
    ) -> (ContainerId, u64, ShadowVm) {
        let (id, install_ns) = self.install(hook, tenant, image, request);
        self.env
            .stores()
            .store(0, tenant, Scope::Tenant, VALUE_KEY, i64::from(value))
            .expect("seeds shadow value");
        let vm = ShadowVm::lower(image, &self.env, id, tenant, None);
        (id, install_ns, vm)
    }

    fn install(
        &mut self,
        hook: &Hook,
        tenant: TenantId,
        image: &[u8],
        request: ContractRequest,
    ) -> (ContainerId, u64) {
        self.engine
            .register_hook(hook.clone(), ContractOffer::helpers(standard_helper_ids()));
        let started = Instant::now();
        let id = self
            .engine
            .install(&hook.name, tenant, image, request)
            .expect("shadow install");
        let ns = started.elapsed().as_nanos() as u64;
        self.engine.attach(id, hook.id).expect("shadow attach");
        (id, ns)
    }

    /// Bare `fire_hook` as a shadow of `parent`.
    pub fn fire(
        &mut self,
        parent: SpanId,
        hook: Uuid,
        ctx: &[u8],
        regions: &[HostRegion],
    ) -> Option<(SpanId, Option<HookReport>)> {
        let engine = &mut self.engine;
        trace::shadow(L::EngineFireHook, parent, || {
            engine.fire_hook(hook, ctx, regions).ok()
        })
    }
}
