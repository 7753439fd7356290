//! The metric tables (names and units, mirrored by `BENCHMARK.json`) and the
//! JSON the benchmark prints.

use crate::harness::Layer;
use crate::trace::Agg;
use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics: name and unit. Printed by the untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("work_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    // Virtual (simulated) milliseconds, not host time: deterministic, so it
    // reads the same on every run of one commit.
    ("sim_ms_per_op", "sim_ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit. Printed by the traced run; a metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 90] = [
    ("softmmu.protect_ns", "ns"),
    ("softmmu.protect_run_ns", "ns"),
    ("softmmu.check_ns", "ns"),
    ("softmmu.load_ns", "ns"),
    ("softmmu.map_unmap_us", "us"),
    ("softmmu.write_bytes_gbps", "GB/s"),
    ("softmmu.read_bytes_gbps", "GB/s"),
    ("hetsim.copy_h2d_gbps", "GB/s"),
    ("hetsim.copy_d2h_gbps", "GB/s"),
    ("hetsim.copy_small_ns", "ns"),
    ("hetsim.reserve_commit_ns", "ns"),
    ("hetsim.launch_sync_us", "us"),
    ("hetsim.dev_alloc_free_ns", "ns"),
    ("hetsim.kernel_host_share", "ratio"),
    ("hetsim.host_ns_per_sim_us", "ns/us"),
    ("hetsim.virtual_share.copy", "ratio"),
    ("hetsim.virtual_share.gpu", "ratio"),
    ("hetsim.virtual_share.cpu", "ratio"),
    ("hetsim.virtual_share.io", "ratio"),
    ("hetsim.virtual_share.signal", "ratio"),
    ("cudart.suite_host_ms", "ms"),
    ("core.session.alloc_us", "us"),
    ("core.session.free_us", "us"),
    ("core.session.call_us", "us"),
    ("core.session.sync_us", "us"),
    ("core.session.typed_read_ns", "ns"),
    ("core.session.typed_write_ns", "ns"),
    ("core.session.typed_spread_ns", "ns"),
    ("core.session.untyped_load_ns", "ns"),
    ("core.session.untyped_store_ns", "ns"),
    ("core.session.read_fault_ns", "ns"),
    ("core.session.write_fault_ns", "ns"),
    ("core.session.sparse_fault_ns", "ns"),
    ("core.session.write_slice_gbps", "GB/s"),
    ("core.session.read_slice_gbps", "GB/s"),
    ("core.session.memcpy_in_gbps", "GB/s"),
    ("core.session.memcpy_out_gbps", "GB/s"),
    ("core.session.memcpy_s2s_gbps", "GB/s"),
    ("core.session.memset_gbps", "GB/s"),
    ("core.session.file_io_gbps", "GB/s"),
    ("core.protocol.faults_read", "count/op"),
    ("core.protocol.faults_write", "count/op"),
    ("core.protocol.blocks_fetched", "count/op"),
    ("core.protocol.blocks_flushed", "count/op"),
    ("core.protocol.eager_evictions", "count/op"),
    ("core.protocol.fetch_bytes_per_fault", "B"),
    ("core.protocol.useful_fetch_ratio", "ratio"),
    ("core.xfer.h2d_jobs", "count/op"),
    ("core.xfer.d2h_jobs", "count/op"),
    ("core.xfer.h2d_coalescing", "ratio"),
    ("core.xfer.d2h_coalescing", "ratio"),
    ("core.xfer.jobs_overlapped", "count/op"),
    ("core.xfer.queue_high_water", "count"),
    ("core.xfer.dma_wait_ms", "ms"),
    ("core.xfer.plan_ns_per_range", "ns"),
    ("core.xfer.engine_job_us", "us"),
    ("core.manager.locate_ns", "ns"),
    ("core.evict.evict_refetch_ms", "ms"),
    ("core.evict.evictions", "count"),
    ("core.service.submit_us", "us"),
    ("core.service.queue_wait_ms.low", "ms"),
    ("core.service.queue_wait_ms.normal", "ms"),
    ("core.service.queue_wait_ms.high", "ms"),
    ("core.service.run_us", "us"),
    ("core.service.served_share.low", "ratio"),
    ("core.service.served_share.normal", "ratio"),
    ("core.service.served_share.high", "ratio"),
    ("core.service.queue_high_water", "count"),
    ("core.service.rejected", "count"),
    ("core.service.place_ns", "ns"),
    ("core.service.generator_idle_share", "ratio"),
    ("workloads.cp.host_ms", "ms"),
    ("workloads.mri-fhd.host_ms", "ms"),
    ("workloads.mri-q.host_ms", "ms"),
    ("workloads.pns.host_ms", "ms"),
    ("workloads.rpes.host_ms", "ms"),
    ("workloads.sad.host_ms", "ms"),
    ("workloads.tpacf.host_ms", "ms"),
    ("workloads.vecadd.host_ms", "ms"),
    ("workloads.stencil3d.host_ms", "ms"),
    ("workloads.stream.host_ms", "ms"),
    ("workloads.gmac_vs_cuda_sim.batch", "ratio"),
    ("workloads.gmac_vs_cuda_sim.lazy", "ratio"),
    ("workloads.gmac_vs_cuda_sim.rolling", "ratio"),
    ("workloads.gmac_vs_cuda_host.rolling", "ratio"),
    ("workloads.digest_mismatches", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.timer_floor_ns", "ns"),
    ("bench.op_self_share", "ratio"),
    ("bench.calibration_ns", "ns"),
];

/// Turns span totals into the per-layer metrics that share their names. The
/// unit decides the reading: `_gbps` is bytes per ns over the spans, `_ns` is
/// ns per unit of work, `_us`/`_ms` is the mean span duration.
pub fn spans_into_layer(spans: &BTreeMap<&'static str, Agg>, out: &mut Layer) {
    for (name, unit) in PER_LAYER {
        let Some(agg) = spans.get(name) else { continue };
        let value = match unit {
            "GB/s" => agg.gbps(),
            "ns" => agg.ns_per_unit(),
            "us" => agg.mean_ns() / 1e3,
            "ms" => agg.mean_ns() / 1e6,
            _ => continue,
        };
        out.insert(name, value);
    }
}

/// A JSON number: finite values print with all their digits; anything else
/// (a division by a zero the guards missed) prints as 0 so the line stays
/// valid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in table order.
pub fn metrics_json(table: &[(&str, &str)], values: &Layer) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)
        );
    }
    s.push('}');
    s
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// Escapes a string for a JSON value (host facts come from `/proc`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
