//! Turns one traced round's spans into per-layer metrics.
//!
//! A call's metric (`*_ns`) is the median duration of its spans. A
//! layer's *self* metric is the median, over ops, of the self time its
//! spans add up to inside that op's tree (duration minus children, real
//! or shadow). The ledger is the sum of those medians over every layer
//! in an op's tree; it is compared with the untraced `solo_p50_us`.

use crate::harness::quantile_sorted;
use crate::trace::{self_times, Span, L, NO_SPAN};

const LAYERS: usize = L::ALL.len();

/// Per-layer figures of one traced round.
pub struct SpanStats {
    /// Median duration of a layer's spans, ns.
    duration_p50: [f64; LAYERS],
    /// Median over ops of a layer's summed self time, ns.
    self_p50: [f64; LAYERS],
    /// Generator-thread allocator calls inside a layer's spans per op.
    allocs_per_op: [f64; LAYERS],
    /// Median over ops of enqueue + wait self time, ns.
    pub dispatch_self_p50: f64,
    /// Sorted durations of the root op spans, ns.
    pub op_durations: Vec<u64>,
}

fn p50(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    quantile_sorted(values, 0.5) as f64
}

impl SpanStats {
    /// Analyses a round's spans; `span_cost_ns` as in [`self_times`].
    pub fn new(spans: &[Span], span_cost_ns: u64) -> Self {
        let own = self_times(spans, span_cost_ns);
        // A parent is always recorded before its children, so one
        // forward pass resolves every span's root.
        let mut root = vec![0u32; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            root[i] = match span.parent {
                NO_SPAN => i as u32,
                parent => root[parent as usize],
            };
        }
        let mut op_index = vec![usize::MAX; spans.len()];
        let mut ops = 0usize;
        for (i, span) in spans.iter().enumerate() {
            if span.parent == NO_SPAN && span.layer == L::Op {
                op_index[i] = ops;
                ops += 1;
            }
        }
        let mut self_by_op = vec![[0u64; LAYERS]; ops];
        let mut durations: Vec<Vec<u64>> = vec![Vec::new(); LAYERS];
        let mut allocs = [0u64; LAYERS];
        for (i, span) in spans.iter().enumerate() {
            let l = span.layer as usize;
            durations[l].push(span.duration());
            allocs[l] += u64::from(span.allocs);
            if let Some(row) = self_by_op.get_mut(op_index[root[i] as usize]) {
                row[l] += own[i];
            }
        }
        let denom = ops.max(1) as f64;
        let mut stats = SpanStats {
            duration_p50: [0.0; LAYERS],
            self_p50: [0.0; LAYERS],
            allocs_per_op: [0.0; LAYERS],
            dispatch_self_p50: 0.0,
            op_durations: Vec::new(),
        };
        for l in 0..LAYERS {
            stats.duration_p50[l] = p50(&mut durations[l]);
            let mut column: Vec<u64> = self_by_op.iter().map(|row| row[l]).collect();
            stats.self_p50[l] = p50(&mut column);
            stats.allocs_per_op[l] = allocs[l] as f64 / denom;
        }
        let (enqueue, wait) = (L::DispatchEnqueue as usize, L::DispatchWait as usize);
        let mut dispatch: Vec<u64> = self_by_op
            .iter()
            .map(|row| row[enqueue] + row[wait])
            .collect();
        stats.dispatch_self_p50 = p50(&mut dispatch);
        stats.op_durations = std::mem::take(&mut durations[L::Op as usize]);
        stats
    }

    /// Median span duration of a layer.
    pub fn duration(&self, layer: L) -> f64 {
        self.duration_p50[layer as usize]
    }

    /// Median per-op self time of a layer.
    pub fn self_time(&self, layer: L) -> f64 {
        self.self_p50[layer as usize]
    }

    /// Mean allocator calls per op inside a layer's spans.
    pub fn allocs(&self, layer: L) -> f64 {
        self.allocs_per_op[layer as usize]
    }

    /// Sum over layers of the median per-op self time.
    pub fn ledger_ns(&self) -> f64 {
        self.self_p50.iter().sum()
    }

    /// The per-layer metrics the spans determine, by catalogue name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let d = |l| self.duration(l);
        vec![
            ("net.coap.decode_ns", d(L::CoapDecode)),
            ("net.coap.encode_ns", d(L::CoapEncode)),
            ("net.block.stage_ns_per_block", d(L::BlockStage)),
            ("host.front.request_event_ns", d(L::FrontRequestEvent)),
            ("host.front.reply_ns", d(L::FrontReply)),
            (
                "host.front.allocs_per_op",
                self.allocs(L::FrontRequestEvent) + self.allocs(L::FrontReply),
            ),
            ("host.dispatch.enqueue_ns", d(L::DispatchEnqueue)),
            ("host.dispatch.wait_ns", d(L::DispatchWait)),
            ("host.dispatch.self_ns", self.dispatch_self_p50),
            ("core.engine.fire_hook_ns", d(L::EngineFireHook)),
            ("core.engine.self_ns", self.self_time(L::EngineFireHook)),
            ("core.engine.allocs_per_op", self.allocs(L::EngineFireHook)),
            ("core.engine.install_ns", d(L::EngineInstall)),
            ("rbpf.vm.run_ns", d(L::VmRun)),
            ("kvstore.fetch_ns", d(L::KvFetch)),
            ("kvstore.store_ns", d(L::KvStore)),
            ("suit.digest_ns", d(L::SuitDigest)),
            ("suit.verify_ns", d(L::SuitVerify)),
            ("host.deploy.stage_ns_per_block", d(L::DeployStage)),
            ("host.deploy.apply_ns", d(L::DeployApply)),
            ("host.deploy.first_reply_ns", d(L::DeployFirstReply)),
            ("host.deploy.self_ns", self.self_time(L::DeployApply)),
            ("fleet.ring.route_ns", d(L::RingRoute)),
            ("fleet.wire.encode_ns", d(L::WireEncode)),
            ("fleet.wire.decode_ns", d(L::WireDecode)),
            ("fleet.front.serve_ns", d(L::FleetServe)),
            (
                "fleet.transport.self_ns_per_op",
                self.self_time(L::FleetTransport),
            ),
            (
                "bench.op.self_ns",
                self.self_time(L::Op) + self.self_time(L::Check),
            ),
            ("bench.solo.ledger_ns", self.ledger_ns()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: L, parent: u32, start: u64, end: u64, shadow: bool) -> Span {
        Span {
            start_ns: start,
            end_ns: end,
            op: 0,
            parent,
            allocs: 1,
            layer,
            shadow,
        }
    }

    #[test]
    fn ledger_sums_self_times_and_skips_unparented_shadows() {
        // Two identical ops: op 0..1000 with decode 0..100 and wait
        // 200..900; the shadow fire_hook (500 long) is accounted in the
        // wait, a vm run (300) inside the fire_hook. A root shadow
        // (encode) belongs to no op.
        let mut spans = Vec::new();
        for base in [0u32, 6] {
            spans.push(span(L::Op, NO_SPAN, 0, 1000, false));
            spans.push(span(L::CoapDecode, base, 0, 100, false));
            spans.push(span(L::DispatchWait, base, 200, 900, false));
            spans.push(span(L::EngineFireHook, base + 2, 2000, 2500, true));
            spans.push(span(L::VmRun, base + 3, 3000, 3300, true));
            spans.push(span(L::CoapEncode, NO_SPAN, 4000, 4050, true));
        }
        let stats = SpanStats::new(&spans, 0);
        assert_eq!(stats.duration(L::DispatchWait), 700.0);
        assert_eq!(stats.self_time(L::DispatchWait), 200.0);
        assert_eq!(stats.self_time(L::EngineFireHook), 200.0);
        assert_eq!(stats.self_time(L::VmRun), 300.0);
        assert_eq!(stats.self_time(L::Op), 200.0);
        assert_eq!(stats.self_time(L::CoapEncode), 0.0);
        assert_eq!(stats.duration(L::CoapEncode), 50.0);
        // 200 (op) + 100 (decode) + 200 (wait) + 200 (engine) + 300 (vm)
        assert_eq!(stats.ledger_ns(), 1000.0);
        assert_eq!(stats.allocs(L::CoapDecode), 1.0);
        assert_eq!(stats.op_durations, vec![1000, 1000]);
    }
}
