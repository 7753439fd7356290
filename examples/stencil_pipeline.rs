//! A scientific-computing pipeline: iterative 3D stencil with CPU-side
//! source injection and periodic checkpoints to disk (the paper's §5.1
//! Figure 9 scenario).
//!
//! Demonstrates why rolling-update matters: the CPU touches *one block* per
//! time-step (the emitter), so only that block moves before the next kernel
//! call — lazy-update would transfer the entire volume.
//!
//! Run with: `cargo run --release --example stencil_pipeline`

use adsm::gmac::{GmacConfig, Protocol};
use adsm::workloads::stencil3d::Stencil3d;
use adsm::workloads::{run_variant_with, Variant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sim = Stencil3d {
        n: 96,
        steps: 8,
        dump_every: 4,
    };

    println!(
        "3D stencil {0}x{0}x{0}, {1} steps, checkpoint every {2}:",
        sim.n, sim.steps, sim.dump_every
    );
    println!();

    for (label, protocol, block) in [
        ("lazy-update (whole-object)", Protocol::Lazy, None),
        (
            "rolling-update, 256 KiB blocks",
            Protocol::Rolling,
            Some(256 * 1024u64),
        ),
        (
            "rolling-update, 1 MiB blocks",
            Protocol::Rolling,
            Some(1 << 20),
        ),
    ] {
        let mut cfg = GmacConfig::default().protocol(protocol);
        if let Some(b) = block {
            cfg = cfg.block_size(b);
        }
        let r = run_variant_with(&sim, Variant::Gmac(protocol), cfg)?;
        println!(
            "{label:<32} time {:>10}   H2D {:>10}   D2H {:>10}",
            r.elapsed.to_string(),
            adsm::hetsim::fmt_bytes(r.transfers.h2d_bytes),
            adsm::hetsim::fmt_bytes(r.transfers.d2h_bytes),
        );
    }

    println!();
    println!("note how rolling-update's H2D traffic is a fraction of lazy-update's:");
    println!("source introduction dirties one block, not the whole volume (paper §5.1).");
    Ok(())
}
