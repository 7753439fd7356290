//! Figure 11 — vector addition (8M elements): host↔accelerator transfer
//! time (lines) and attained PCIe bandwidth (boxes) for block sizes from
//! 4 KB to 32 MB under rolling-update.
//!
//! Paper shape: attained bandwidth rises with block size and saturates
//! around tens of MB; transfer *time* is worst at tiny blocks (per-transfer
//! latency + per-fault overhead dominate), best at mid sizes where eager
//! eviction fully overlaps the CPU's input initialisation, and degrades
//! again for huge blocks that forfeit the overlap (nothing is evicted before
//! the call).

use gmac::{Gmac, GmacConfig, Param, Protocol};
use gmac_bench::{emit, fmt_secs, TextTable};
use hetsim::{Category, LaunchDims, Platform};
use std::sync::Arc;
use workloads::vecadd::{alloc_buffers, VecAddKernel};

const N: usize = 8 * 1024 * 1024;

fn main() {
    let block_sizes: &[u64] = &[
        4 << 10,
        8 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
        16 << 20,
        32 << 20,
    ];
    let mut body = String::new();
    body.push_str("Figure 11 — vecadd (8M elements) transfer time and bandwidth vs block size\n\n");
    let mut t = TextTable::new([
        "block size",
        "H2D phase",
        "D2H phase",
        "total",
        "PCIe H2D bw",
        "PCIe D2H bw",
        "faults",
    ]);
    let link_h2d = hetsim::LinkModel::pcie2_x16_h2d();
    let link_d2h = hetsim::LinkModel::pcie2_x16_d2h();
    for &bs in block_sizes {
        eprintln!("[fig11] block size {} ...", gmac_bench::fmt_bytes(bs));
        let platform = Platform::desktop_g280();
        platform.register_kernel(Arc::new(VecAddKernel));
        let gmac = Gmac::new(
            platform,
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(bs),
        );
        let ctx = gmac.session();
        let bufs = alloc_buffers(&ctx, N).expect("alloc");
        let av: Vec<f32> = (0..N).map(|i| i as f32 * 0.5).collect();
        let bv: Vec<f32> = (0..N).map(|i| i as f32 * 0.25).collect();

        // --- produce phase (H2D side: faults + eager evictions + call flush)
        let copy0 = gmac.ledger().get(Category::Copy);
        ctx.store_slice(bufs.a, &av).expect("store a");
        ctx.store_slice(bufs.b, &bv).expect("store b");
        let params = [
            Param::Shared(bufs.a),
            Param::Shared(bufs.b),
            Param::Shared(bufs.c),
            Param::U64(N as u64),
        ];
        ctx.call("vecadd", LaunchDims::for_elements(N as u64, 256), &params)
            .expect("call");
        let h2d_time = gmac.ledger().get(Category::Copy) - copy0;

        ctx.sync().expect("sync");

        // --- consume phase (D2H side: fetch-on-read of the output)
        let copy1 = gmac.ledger().get(Category::Copy);
        let cv: Vec<f32> = ctx.load_slice(bufs.c, N).expect("load c");
        assert_eq!(cv[1234], 1234.0 * 0.75);
        let d2h_time = gmac.ledger().get(Category::Copy) - copy1;

        t.row([
            gmac_bench::fmt_bytes(bs),
            fmt_secs(h2d_time.as_secs_f64()),
            fmt_secs(d2h_time.as_secs_f64()),
            fmt_secs(gmac.elapsed().as_secs_f64()),
            link_h2d.attained_bandwidth(bs).to_string(),
            link_d2h.attained_bandwidth(bs).to_string(),
            gmac.counters().faults().to_string(),
        ]);
    }
    body.push_str(&t.render());
    body.push_str(
        "\nH2D/D2H phase = CPU time blocked on transfers while producing inputs / \
         consuming the output. Bandwidth columns are the per-transfer attained \
         PCIe bandwidth at that block size (the paper's boxes): they rise and \
         saturate. Small blocks lose to latency + faults; huge blocks lose the \
         eager-eviction overlap (the paper's 64KB anomaly discussion, §5.2).\n",
    );
    emit("fig11", &body);
}
