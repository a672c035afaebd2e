//! The five workloads and what they share: the round shape, the
//! reference replies and the container programs the benchmark installs.
//!
//! Every workload is a closed loop driven by one generator thread: a
//! CoAP confirmable exchange waits for its reply. A round is a fixed
//! number of operations — never a time box — so every count repeats
//! exactly: warm-up, then a `solo` phase (window 1, strict ping-pong,
//! per-op latency sampled), then a `loaded` phase (window [`WINDOW`]
//! kept full). Hosts run one worker and otherwise
//! `HostConfig::default()`, so a change of a shipped default is
//! measured.

pub mod cold_deploy;
pub mod fleet_lossy;
pub mod host_path;

use std::ops::Range;

use fc_core::helpers_impl::helper_name_table;
use fc_host::HostConfig;
use fc_rbpf::program::{FcProgram, ProgramBuilder};
use fc_rtos::platform::{Engine, Platform};

/// Requests kept in flight in the loaded phase.
pub const WINDOW: usize = 32;
/// The device the cycle model simulates (the paper's Cortex-M4 board).
pub const PLATFORM: Platform = Platform::CortexM4;
/// The engine flavour hosts run.
pub const ENGINE: Engine = Engine::FemtoContainer;
/// Response packet buffer handed to CoAP containers.
pub const PKT_LEN: usize = 64;
/// Tenant-store key the responders read (and the counter writes).
pub const VALUE_KEY: u32 = 1;

/// Operations per phase of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Checked but untimed ops that end set-up.
    pub warmup: usize,
    /// Window-1 ops, each timed.
    pub solo: usize,
    /// Window-32 ops, timed as a whole.
    pub loaded: usize,
}

impl Sizes {
    /// Ops of one round.
    pub fn total(&self) -> usize {
        self.warmup + self.solo + self.loaded
    }
}

/// Which twin of a workload's host to build: the shipped defaults, or
/// one mechanism switched off so its cost shows as a difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `HostConfig::default()` with one worker.
    Default,
    /// Telemetry registry and trace ring off.
    TelemetryOff,
    /// Journal off (only differs on a durable workload).
    DurabilityOff,
}

/// The host configuration of a variant.
pub fn host_config(variant: Variant) -> HostConfig {
    let mut config = HostConfig {
        workers: 1,
        ..HostConfig::default()
    };
    if variant == Variant::TelemetryOff {
        config.telemetry = fc_host::TelemetryConfig {
            enabled: false,
            trace_capacity: 0,
        };
    }
    config
}

/// Result of checked operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops whose reply matched the reference.
    pub ok: u64,
    /// Ops with a wrong, missing or duplicated reply.
    pub failed: u64,
    /// Simulated device cycles the replies reported.
    pub cycles: u64,
}

impl Tally {
    /// One checked op.
    pub fn one(ok: bool, cycles: u64) -> Self {
        Tally {
            ok: u64::from(ok),
            failed: u64::from(!ok),
            cycles,
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.cycles += other.cycles;
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

/// What a workload reports when a round's host is torn down.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Whole-run checks held (exactly-once ledger, restored kv, …);
    /// the reason when one did not.
    pub violation: Option<String>,
    /// Virtual link time the round took, microseconds (0 off a link).
    pub link_virtual_us: u64,
    /// Counts and timings read from the layers' public statistics at
    /// teardown, by per-layer metric name.
    pub layers: Vec<(&'static str, f64)>,
}

/// One workload: how to make its inputs from a seed, build the system
/// under test, run one checked op and a checked window of ops, and tear
/// down with whole-run checks.
pub trait Workload: Sized {
    /// Name on the command line and in results.
    const NAME: &'static str;
    /// Spans one traced solo op records at most (buffer sizing).
    const SPANS_PER_OP: usize;
    /// A twin to measure against in the traced pass: the variant to
    /// build and the per-layer metric that takes the CPU-per-op
    /// difference between the default and it.
    const TWIN: Option<(Variant, &'static str)>;
    /// Generated inputs (a function of the seed alone).
    type Inputs;

    /// Round sizes; `smoke` is the tiny variant for tests.
    fn sizes(smoke: bool) -> Sizes;
    /// Generates the inputs.
    fn inputs(seed: u64, sizes: Sizes) -> Self::Inputs;
    /// A digest of every generated byte (determinism tests).
    fn fingerprint(inputs: &Self::Inputs) -> u64;
    /// Test hook: corrupts the reference reply of op `op`, which must
    /// then be counted as failed.
    fn corrupt(inputs: &mut Self::Inputs, op: usize);
    /// Builds the host/fleet, registers hooks, installs containers.
    fn setup(inputs: &Self::Inputs, variant: Variant) -> Self;
    /// One closed-loop op at window 1: request bytes in, checked reply
    /// bytes out.
    fn solo(&mut self, inputs: &Self::Inputs, op: usize) -> Tally;
    /// Ops `ops` with the window kept full. `latencies`, when given,
    /// receives submit→reply nanoseconds per op.
    fn loaded(
        &mut self,
        inputs: &Self::Inputs,
        ops: Range<usize>,
        latencies: Option<&mut Vec<u64>>,
    ) -> Tally;
    /// Tears down; `offered` is every op this instance was given.
    fn finish(self, inputs: &Self::Inputs, offered: u64) -> Ledger;
    /// Measurements that need instances of their own (twins, cold
    /// paths), traced pass only.
    fn extras(inputs: &Self::Inputs, sizes: Sizes) -> Vec<(&'static str, f64)>;
}

// ---------------------------------------------------------------------------
// Reference replies (the benchmark's own code, never the program's)
// ---------------------------------------------------------------------------

/// Header of the reply PDU a CoAP responder container must produce:
/// ACK, 2.05 Content, message id 0, no token, Content-Format
/// text/plain, payload marker. The decimal value follows.
const CONTENT_HEADER: [u8; 6] = [0x60, 0x45, 0x00, 0x00, 0xc0, 0xff];

/// Whether `reply` is, byte for byte, the PDU a responder must produce
/// for `value`. It runs inside the measured loop, so it allocates
/// nothing: what `allocs_per_op` counts is the program's.
pub fn is_content_pdu(reply: Option<&[u8]>, value: u32) -> bool {
    let Some(payload) = reply.and_then(|r| r.strip_prefix(&CONTENT_HEADER)) else {
        return false;
    };
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = value;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    payload == &digits[at..]
}

/// fletcher32 over little-endian 16-bit words, as the paper's
/// application computes it (both sums start at 0xffff and fold after
/// every word; a trailing odd byte is ignored by construction here:
/// inputs are even-sized).
pub fn fletcher32(data: &[u8]) -> u32 {
    let fold = |s: u64| (s & 0xffff) + (s >> 16);
    let (mut a, mut b) = (0xffffu64, 0xffffu64);
    for word in data.chunks_exact(2) {
        a = fold(a + u64::from(u16::from_le_bytes([word[0], word[1]])));
        b = fold(b + a);
    }
    ((fold(b) as u32) << 16) | fold(a) as u32
}

/// FNV-1a, for input fingerprints.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

// ---------------------------------------------------------------------------
// Container programs the benchmark authors itself
// ---------------------------------------------------------------------------

fn assemble(src: &str) -> FcProgram {
    ProgramBuilder::new()
        .helpers(helper_name_table().iter().map(|(n, i)| (n.as_str(), *i)))
        .asm(src)
        .expect("benchmark container assembles")
        .build()
}

/// Formats the value left in `r7` as a 2.05 Content reply into the
/// granted packet buffer (`r6` = CoAP context) and returns the PDU
/// length: the tail of `fc_core::apps::coap_formatter`.
const FORMAT_R7: &str = "\
    mov r1, r6
    mov r2, 0x45           ; 2.05 Content
    call bpf_gcoap_resp_init
    mov r1, r6
    mov r2, 0              ; text/plain
    call bpf_coap_add_format
    mov r1, r6
    call bpf_coap_opt_finish
    mov r8, r0             ; payload offset
    ldxdw r1, [r6]         ; pkt buffer address from ctx
    add r1, r8
    mov r2, r7
    call bpf_fmt_u32_dec   ; returns payload length
    add r0, r8             ; total PDU length
    exit
";

/// A CoAP responder that bumps the tenant's kv counter and replies with
/// the new value: one fetch, one store, the same reply path as the
/// counter-read container.
pub fn counter_bump_program() -> FcProgram {
    assemble(&format!(
        "\
    mov r6, r1             ; keep coap ctx
    mov r1, {VALUE_KEY}
    mov r2, r10
    add r2, -8
    call bpf_fetch_shared
    ldxw r7, [r10-8]
    add r7, 1
    mov r1, {VALUE_KEY}
    mov r2, r7
    call bpf_store_shared
{FORMAT_R7}"
    ))
}

/// A CoAP responder that replies with a constant baked into the image:
/// each deployed version of it is a different image with a different
/// digest, and its first reply proves which version is live.
pub fn constant_reply_program(value: u32) -> FcProgram {
    assemble(&format!(
        "\
    mov r6, r1             ; keep coap ctx
    mov r7, {value}
{FORMAT_R7}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_decides_inputs<W: Workload>() {
        let sizes = W::sizes(true);
        let fingerprint = |seed| W::fingerprint(&W::inputs(seed, sizes));
        assert_eq!(
            fingerprint(1),
            fingerprint(1),
            "{}: same seed, same bytes",
            W::NAME
        );
        assert_ne!(
            fingerprint(1),
            fingerprint(2),
            "{}: another seed, other bytes",
            W::NAME
        );
    }

    #[test]
    fn same_seed_generates_byte_identical_inputs() {
        use host_path::{ComputeFletcher, DurablePut, HostPath, WarmGet};
        seed_decides_inputs::<HostPath<WarmGet>>();
        seed_decides_inputs::<HostPath<ComputeFletcher>>();
        seed_decides_inputs::<HostPath<DurablePut>>();
        seed_decides_inputs::<cold_deploy::ColdDeploy>();
        seed_decides_inputs::<fleet_lossy::FleetLossy>();
    }

    #[test]
    fn fletcher32_matches_known_vectors() {
        // "abcde" padded to even length is not used here; the classic
        // even-length vectors:
        assert_eq!(fletcher32(b"abcdef"), 0x5650_2d2a);
        assert_eq!(fletcher32(b"abcdefgh"), 0xebe1_9591);
    }

    #[test]
    fn reference_pdu_is_ack_content_text_plain() {
        let mut pdu = CONTENT_HEADER.to_vec();
        pdu.extend_from_slice(b"20655");
        let msg = fc_net::coap::Message::decode(&pdu).unwrap();
        assert_eq!(msg.code, fc_net::coap::Code::Content);
        assert_eq!(msg.mtype, fc_net::coap::MsgType::Ack);
        assert_eq!(msg.payload, b"20655");
        assert_eq!(msg.content_format(), Some(0));
        assert!(is_content_pdu(Some(&pdu), 20_655));
        assert!(!is_content_pdu(Some(&pdu), 20_656));
        assert!(!is_content_pdu(Some(&pdu[..pdu.len() - 1]), 20_655));
        assert!(!is_content_pdu(None, 20_655));
        pdu.truncate(CONTENT_HEADER.len());
        pdu.push(b'0');
        assert!(is_content_pdu(Some(&pdu), 0));
    }
}
