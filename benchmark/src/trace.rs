//! The span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files around each call
//! into a layer's public functions: name, start, end, the span that
//! caused it, and the op id shared by one request's spans. They stay in
//! memory until the workload ends. Only the generator thread records.
//!
//! A **shadow** span times a second call of an inner layer's public
//! function on the op's own input (the program has no spans inside it
//! yet). Its parent link says "this work is accounted inside that
//! span" — the real call ran on the shard worker while the parent span
//! waited — so a span's self time (duration minus its children's) is
//! computed the same way for both kinds.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::harness::thread_allocs;
use crate::json::{obj, Value};

/// Index of a span in the recorder.
pub type SpanId = u32;
/// "No span": the parent of a root, and every id while tracing is off.
pub const NO_SPAN: SpanId = u32::MAX;

macro_rules! layers {
    ($($variant:ident => $name:literal,)*) => {
        /// What a span measures: `<crate>.<module>.<call>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum L { $($variant,)* }
        impl L {
            /// Every layer, in declaration order.
            pub const ALL: &'static [L] = &[$(L::$variant,)*];
            /// The span name written to the trace file.
            pub fn name(self) -> &'static str {
                match self { $(L::$variant => $name,)* }
            }
        }
    };
}

layers! {
    Op => "bench.op",
    Check => "bench.check",
    CoapDecode => "net.coap.decode",
    CoapEncode => "net.coap.encode",
    BlockStage => "net.block.stage",
    FrontRequestEvent => "host.front.request_event",
    FrontReply => "host.front.reply",
    DispatchEnqueue => "host.dispatch.enqueue",
    DispatchWait => "host.dispatch.wait",
    DeployStage => "host.deploy.stage",
    DeployApply => "host.deploy.apply",
    DeployFirstReply => "host.deploy.first_reply",
    EngineFireHook => "core.engine.fire_hook",
    EngineInstall => "core.engine.install",
    VmRun => "rbpf.vm.run",
    RbpfVerify => "rbpf.verify",
    RbpfDecode => "rbpf.decode",
    RbpfLower => "rbpf.lower",
    KvFetch => "kvstore.fetch",
    KvStore => "kvstore.store",
    SuitDigest => "suit.digest",
    SuitVerify => "suit.verify",
    FleetServe => "fleet.front.serve",
    FleetTransport => "fleet.transport",
    RingRoute => "fleet.ring.route",
    WireEncode => "fleet.wire.encode",
    WireDecode => "fleet.wire.decode",
}

/// One recorded span (times in ns since the recorder was enabled).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Op id shared by one request's spans.
    pub op: u32,
    /// The span that caused this one, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Allocator calls the generator thread made inside the span.
    pub allocs: u32,
    /// What it measures.
    pub layer: L,
    /// A second call on the op's input rather than the op's own call.
    pub shadow: bool,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open real spans, innermost last: the implicit parent.
    stack: Vec<SpanId>,
    op: u32,
}

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
    });
}

/// Whether spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Starts recording on the calling thread with room for `capacity`
/// spans (reserved now, so recording a span never grows the buffer
/// inside someone else's span).
pub fn enable(capacity: usize) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Instant::now();
        r.spans = Vec::with_capacity(capacity);
        r.stack = Vec::with_capacity(16);
        r.op = 0;
    });
    ON.store(true, Ordering::Relaxed);
}

/// Pauses or resumes recording without dropping what was recorded.
pub fn set_recording(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Stops recording and hands over the spans.
pub fn take() -> Vec<Span> {
    ON.store(false, Ordering::Relaxed);
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Sets the op id stamped on the spans that follow.
#[inline]
pub fn set_op(op: u32) {
    if enabled() {
        RECORDER.with(|r| r.borrow_mut().op = op);
    }
}

fn begin(layer: L, shadow_of: Option<SpanId>) -> SpanId {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len() as SpanId;
        let parent = match shadow_of {
            Some(parent) => parent,
            None => r.stack.last().copied().unwrap_or(NO_SPAN),
        };
        if shadow_of.is_none() {
            r.stack.push(id);
        }
        let op = r.op;
        let allocs = thread_allocs() as u32;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            start_ns,
            end_ns: start_ns,
            op,
            parent,
            allocs,
            layer,
            shadow: shadow_of.is_some(),
        });
        id
    })
}

fn end(id: SpanId) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        let allocs = thread_allocs() as u32;
        let span = &mut r.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = allocs.wrapping_sub(span.allocs);
        if !span.shadow {
            r.stack.pop();
        }
    })
}

/// Runs `f` inside a span of `layer` whose parent is the innermost
/// open span; returns the span's id for shadows to hang off.
#[inline]
pub fn time_id<T>(layer: L, f: impl FnOnce() -> T) -> (SpanId, T) {
    if !enabled() {
        return (NO_SPAN, f());
    }
    let id = begin(layer, None);
    let out = f();
    end(id);
    (id, out)
}

/// As [`time_id`], for callers that do not need the id.
#[inline]
pub fn time<T>(layer: L, f: impl FnOnce() -> T) -> T {
    time_id(layer, f).1
}

/// Runs `f` as a shadow span accounted inside `parent` (see the module
/// docs). Returns its id so deeper shadows can nest under it. Runs
/// nothing when tracing is off: shadows exist only to be measured.
pub fn shadow<T>(layer: L, parent: SpanId, f: impl FnOnce() -> T) -> Option<(SpanId, T)> {
    if !enabled() {
        return None;
    }
    let id = begin(layer, Some(parent));
    let out = f();
    end(id);
    Some((id, out))
}

/// Per-span self time: duration minus the part its children cover.
/// `span_cost_ns` is what recording one span costs ([`span_cost_ns`]):
/// a child's own clock reads bracket only its body, so the rest of the
/// recorder's work for it lands in the parent's interval and is taken
/// out again here. A shadow ran outside its parent's interval and
/// left nothing there.
pub fn self_times(spans: &[Span], span_cost_ns: u64) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = own.get_mut(span.parent as usize) {
            let cost = if span.shadow { 0 } else { span_cost_ns };
            *parent = parent.saturating_sub(span.duration() + cost);
        }
    }
    own
}

/// What recording one span costs its parent, in ns: the median over a
/// few thousand ops of an op span's duration divided by its empty
/// children. Measured on the calling thread with a recorder of its
/// own; leaves recording off and the recorder empty.
pub fn span_cost_ns() -> u64 {
    const OPS: usize = 4_000;
    const CHILDREN: u64 = 8;
    enable(OPS * (CHILDREN as usize + 1));
    for _ in 0..OPS {
        time(L::Op, || {
            for _ in 0..CHILDREN {
                time(L::Check, || std::hint::black_box(()));
            }
        });
    }
    let mut per_child: Vec<u64> = take()
        .iter()
        .filter(|s| s.layer == L::Op)
        .map(|s| s.duration() / CHILDREN)
        .collect();
    per_child.sort_unstable();
    per_child.get(per_child.len() / 2).copied().unwrap_or(0)
}

/// The trace file: layer names once, then one row per span.
pub fn to_json(spans: &[Span], workload: &str, seed: u64, total_recorded: usize) -> Value {
    obj([
        ("workload", Value::from(workload)),
        ("seed", Value::from(seed)),
        ("spans_recorded", Value::from(total_recorded)),
        ("spans_written", Value::from(spans.len())),
        (
            "layers",
            Value::Arr(L::ALL.iter().map(|l| Value::from(l.name())).collect()),
        ),
        (
            "columns",
            Value::Arr(
                [
                    "layer", "op", "parent", "start_ns", "end_ns", "allocs", "shadow",
                ]
                .into_iter()
                .map(Value::from)
                .collect(),
            ),
        ),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Value::Arr(vec![
                            Value::from(s.layer as u8 as u64),
                            Value::from(u64::from(s.op)),
                            if s.parent == NO_SPAN {
                                Value::Null
                            } else {
                                Value::from(u64::from(s.parent))
                            },
                            Value::from(s.start_ns),
                            Value::from(s.end_ns),
                            Value::from(u64::from(s.allocs)),
                            Value::from(s.shadow),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_real_and_shadow_children() {
        enable(64);
        set_op(7);
        let (op, wait) = time_id(L::Op, || {
            time(L::CoapDecode, || std::hint::black_box(1 + 1));
            time_id(L::DispatchWait, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
            .0
        });
        let (fire, _) = shadow(L::EngineFireHook, wait, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        })
        .unwrap();
        shadow(L::VmRun, fire, || ()).unwrap();
        let spans = take();
        assert!(!enabled());
        assert_eq!(spans.len(), 5);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[op as usize].parent, NO_SPAN);
        assert_eq!(spans[wait as usize].parent, op);
        assert_eq!(spans[fire as usize].parent, wait);
        assert!(spans[fire as usize].shadow && !spans[wait as usize].shadow);
        let own = self_times(&spans, 0);
        // The op's self time excludes decode and wait; wait's excludes
        // the shadow accounted inside it.
        assert!(own[op as usize] < spans[op as usize].duration());
        assert_eq!(
            own[wait as usize],
            spans[wait as usize].duration() - spans[fire as usize].duration()
        );
        // Off: closures still run, nothing is recorded, shadows skip.
        assert_eq!(time(L::Op, || 5), 5);
        assert!(shadow(L::VmRun, NO_SPAN, || 1).is_none());
        assert!(take().is_empty());
    }
}
