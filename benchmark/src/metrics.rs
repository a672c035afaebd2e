//! The metric catalogue: every name the benchmark prints, with its
//! unit and direction. `BENCHMARK.json` at the repository root carries
//! the same lists (a test holds the two together) plus the bounds.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, per workload (untraced pass).
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("solo_p50_us", "us"),
    higher("loaded_ops_s", "1/s"),
    lower("cpu_ns_per_op", "ns/op"),
    lower("allocs_per_op", "allocs/op"),
    lower("alloc_bytes_per_op", "B/op"),
    lower("peak_rss_kb", "kB"),
    lower("sim_cycles_per_op", "cycles/op"),
    lower("virtual_us_per_op", "virt_us/op"),
];

/// Single layers (traced pass). A layer a workload does not touch
/// prints 0 there: the prediction "no change" for that pairing.
pub const PER_LAYER: &[Metric] = &[
    // fc-net
    lower("net.coap.decode_ns", "ns"),
    lower("net.coap.encode_ns", "ns"),
    lower("net.block.stage_ns_per_block", "ns"),
    lower("net.link.virtual_us_per_op", "virt_us/op"),
    lower("net.link.dropped_per_kop", "1/kop"),
    lower("net.link.duplicated_per_kop", "1/kop"),
    // fc-host front
    lower("host.front.request_event_ns", "ns"),
    lower("host.front.reply_ns", "ns"),
    lower("host.front.allocs_per_op", "allocs/op"),
    // fc-host dispatch (host / queue / shard)
    lower("host.dispatch.enqueue_ns", "ns"),
    lower("host.dispatch.wait_ns", "ns"),
    lower("host.dispatch.self_ns", "ns"),
    lower("host.dispatch.worker_cpu_ns_per_op", "ns/op"),
    lower("host.dispatch.generator_cpu_ns_per_op", "ns/op"),
    lower("host.dispatch.wakeups_per_op", "1/op"),
    lower("host.dispatch.batch_ns_per_op", "ns/op"),
    lower("host.dispatch.worker_allocs_per_op", "allocs/op"),
    lower("host.dispatch.shed_per_kop", "1/kop"),
    // fc-host telemetry
    lower("host.telemetry.cpu_ns_per_op", "ns/op"),
    lower("host.telemetry.snapshot_ns", "ns"),
    // fc-core
    lower("core.engine.fire_hook_ns", "ns"),
    lower("core.engine.self_ns", "ns"),
    lower("core.engine.allocs_per_op", "allocs/op"),
    lower("core.engine.install_ns", "ns"),
    lower("core.engine.slot_ram_bytes", "B"),
    lower("core.engine.rss_bytes_per_container", "B"),
    lower("core.engine.sim_cycles_per_op", "cycles/op"),
    // fc-rbpf
    lower("rbpf.vm.run_ns", "ns"),
    lower("rbpf.vm.ns_per_insn", "ns"),
    lower("rbpf.vm.insns_per_op", "insns/op"),
    lower("rbpf.vm.helper_calls_per_op", "1/op"),
    lower("rbpf.verify_ns", "ns"),
    lower("rbpf.decode_ns", "ns"),
    lower("rbpf.lower_ns", "ns"),
    lower("rbpf.vm.image_bytes", "B"),
    // fc-kvstore
    lower("kvstore.fetch_ns", "ns"),
    lower("kvstore.store_ns", "ns"),
    // fc-host journal
    lower("host.journal.cpu_ns_per_op", "ns/op"),
    lower("host.journal.bytes_per_op", "B/op"),
    lower("host.journal.appends_per_op", "1/op"),
    lower("host.journal.folds_per_kop", "1/kop"),
    lower("host.journal.restore_us_per_kcommit", "us/kop"),
    // fc-suit + fc-host deploy
    lower("suit.digest_ns", "ns"),
    lower("suit.verify_ns", "ns"),
    lower("host.deploy.stage_ns_per_block", "ns"),
    lower("host.deploy.apply_ns", "ns"),
    lower("host.deploy.first_reply_ns", "ns"),
    lower("host.deploy.self_ns", "ns"),
    lower("host.deploy.rejected", "count"),
    // fc-fleet
    lower("fleet.ring.route_ns", "ns"),
    higher("fleet.ring.balance", "ratio"),
    lower("fleet.wire.encode_ns", "ns"),
    lower("fleet.wire.decode_ns", "ns"),
    lower("fleet.wire.bytes_per_op", "B/op"),
    lower("fleet.front.serve_ns", "ns"),
    lower("fleet.front.wave_ns_per_op", "ns/op"),
    lower("fleet.transport.self_ns_per_op", "ns/op"),
    lower("fleet.remote.retransmits_per_kop", "1/kop"),
    lower("fleet.remote.out_of_order_per_kop", "1/kop"),
    higher("fleet.remote.coalesced_frames_per_kop", "1/kop"),
    lower("fleet.remote.in_flight_hwm", "count"),
    lower("fleet.remote.srtt_us", "virt_us"),
    lower("fleet.endpoint.deduped_per_kop", "1/kop"),
    higher("fleet.node.dispatched", "count"),
    lower("fleet.node.shed", "count"),
    // harness
    lower("bench.solo.p99_us", "us"),
    lower("bench.loaded.p99_us", "us"),
    lower("bench.solo.ledger_ns", "ns"),
    lower("bench.solo.ledger_gap_pct", "%"),
    lower("bench.op.self_ns", "ns"),
    lower("trace.overhead_pct", "%"),
    higher("trace.spans_recorded", "count"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}
