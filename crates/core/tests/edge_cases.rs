//! Edge cases of the GMAC API surface: degenerate sizes, repeated calls,
//! object lifetime corner cases, and cross-protocol state checks.

use gmac::{Gmac, GmacConfig, GmacError, Param, Protocol, Session};
use hetsim::{
    read_f32_slice, write_f32_slice, Args, DeviceMemory, Kernel, KernelProfile, LaunchDims,
    Platform, SimResult,
};
use softmmu::PAGE_SIZE;
use std::sync::Arc;

#[derive(Debug)]
struct Inc;

impl Kernel for Inc {
    fn name(&self) -> &str {
        "inc"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(1)?;
        let mut v = read_f32_slice(mem, args.ptr(0)?, n)?;
        for x in v.iter_mut() {
            *x += 1.0;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

fn session(protocol: Protocol) -> Session {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(Inc));
    Gmac::new(platform, GmacConfig::default().protocol(protocol)).session()
}

#[test]
fn one_byte_alloc_rounds_to_a_page() {
    let c = session(Protocol::Rolling);
    let p = c.alloc(1).unwrap();
    let obj = c.object_at(p).unwrap();
    assert_eq!(obj.size, PAGE_SIZE);
    // The whole page is usable.
    c.store::<u8>(p.byte_add(PAGE_SIZE - 1), 0xFF).unwrap();
    assert_eq!(c.load::<u8>(p.byte_add(PAGE_SIZE - 1)).unwrap(), 0xFF);
    // One past is not.
    assert!(c.store::<u8>(p.byte_add(PAGE_SIZE), 1).is_err());
}

#[test]
fn zero_size_alloc_also_rounds_up() {
    let c = session(Protocol::Rolling);
    let p = c.alloc(0).unwrap();
    assert_eq!(c.object_at(p).unwrap().size, PAGE_SIZE);
    c.free(p).unwrap();
}

#[test]
fn consecutive_calls_without_sync_pipeline_on_the_stream() {
    // Two calls back-to-back: the stream serialises them; one sync joins
    // both, and the data reflects both kernels.
    for protocol in Protocol::ALL {
        let c = session(protocol);
        let n = 1024u64;
        let p = c.alloc(n * 4).unwrap();
        c.store_slice(p, &vec![0.0f32; n as usize]).unwrap();
        let params = [Param::Shared(p), Param::U64(n)];
        c.call("inc", LaunchDims::for_elements(n, 256), &params)
            .unwrap();
        c.call("inc", LaunchDims::for_elements(n, 256), &params)
            .unwrap();
        assert!(c.has_pending_call());
        c.sync().unwrap();
        assert!(!c.has_pending_call());
        let v: f32 = c.load(p).unwrap();
        assert_eq!(v, 2.0, "{protocol}: both increments applied");
        // Second sync has nothing to wait on.
        assert!(matches!(c.sync(), Err(GmacError::NothingToSync)));
    }
}

#[test]
fn double_free_is_reported() {
    let c = session(Protocol::Rolling);
    let p = c.alloc(4096).unwrap();
    c.free(p).unwrap();
    assert!(matches!(c.free(p), Err(GmacError::NotShared(_))));
}

#[test]
fn free_discards_dirty_data_without_flushing() {
    // Freeing a dirty object must not crash the rolling bookkeeping.
    let c = Gmac::new(
        Platform::desktop_g280(),
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .rolling_size(2)
            .block_size(4096),
    )
    .session();
    let a = c.alloc(8 * 4096).unwrap();
    let b = c.alloc(8 * 4096).unwrap();
    for i in 0..4u64 {
        c.store::<u8>(a.byte_add(i * 4096), 1).unwrap();
        c.store::<u8>(b.byte_add(i * 4096), 2).unwrap();
    }
    c.free(a).unwrap();
    // The other object still works; the dirty bound still holds.
    c.store::<u8>(b.byte_add(5 * 4096), 3).unwrap();
    assert!(c.dirty_block_count() <= 2);
}

#[test]
fn alloc_after_free_reuses_device_memory() {
    let c = session(Protocol::Lazy);
    let first = c.alloc(1 << 20).unwrap();
    let addr1 = first.addr();
    c.free(first).unwrap();
    let second = c.alloc(1 << 20).unwrap();
    // First-fit allocator hands back the same window; the unified mapping
    // must have been torn down and re-established cleanly.
    assert_eq!(second.addr(), addr1);
    c.store::<u32>(second, 42).unwrap();
    assert_eq!(c.load::<u32>(second).unwrap(), 42);
}

#[test]
fn load_slice_beyond_object_end_is_rejected() {
    let c = session(Protocol::Rolling);
    let p = c.alloc(4096).unwrap();
    assert!(matches!(
        c.load_slice::<f32>(p, 2000),
        Err(GmacError::OutOfObjectBounds { .. })
    ));
    // Interior pointer with a length crossing the end as well.
    assert!(c.store_slice(p.byte_add(4000), &[0u8; 200]).is_err());
}

#[test]
fn device_memory_exhaustion_is_clean() {
    // With eviction off the device is a hard capacity limit: on a 1 GiB
    // G280 two 400 MiB objects fit, the third fails with a typed OOM.
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(Inc));
    let c = Gmac::new(
        platform,
        GmacConfig::default()
            .protocol(Protocol::Rolling)
            .evict(false),
    )
    .session();
    let a = c.alloc(400 << 20).unwrap();
    let _b = c.alloc(400 << 20).unwrap();
    let err = c.alloc(400 << 20).unwrap_err();
    assert!(matches!(err, GmacError::DeviceOom { .. }));
    // Freeing recovers the space.
    c.free(a).unwrap();
    assert!(c.alloc(400 << 20).is_ok());
}

#[test]
fn device_pressure_evicts_instead_of_failing() {
    // Same pressure with eviction on (the default): the third allocation
    // succeeds by evicting a cold object back to host, and the evicted
    // data stays fully readable and writable through the host mirror.
    let c = session(Protocol::Rolling);
    let a = c.alloc(400 << 20).unwrap();
    c.store::<u32>(a, 0xA11C_E5ED).unwrap();
    let _b = c.alloc(400 << 20).unwrap();
    let d = c.alloc(400 << 20).unwrap();
    assert_eq!(c.gmac().counters().evictions, 1);
    assert_eq!(c.load::<u32>(a).unwrap(), 0xA11C_E5ED);
    c.store::<u32>(d, 7).unwrap();
    assert_eq!(c.load::<u32>(d).unwrap(), 7);
}

#[test]
fn states_after_full_cycle_match_protocol_semantics() {
    for protocol in Protocol::ALL {
        let c = session(protocol);
        let n = 4096u64;
        let p = c.alloc(n).unwrap();
        c.store::<u8>(p, 1).unwrap();
        c.call(
            "inc",
            LaunchDims::for_elements(8, 8),
            &[Param::Shared(p), Param::U64(8)],
        )
        .unwrap();
        c.sync().unwrap();
        // `blocks` counts (invalid, read-only, dirty); the object is one block.
        let obj = c.object_at(p).unwrap();
        assert!(obj.size <= obj.block_size, "{protocol}: one block");
        match protocol {
            // Batch fetched everything back at sync: dirty.
            Protocol::Batch => assert_eq!(obj.blocks, (0, 0, 1)),
            // Lazy/rolling leave data on the accelerator: invalid.
            _ => assert_eq!(obj.blocks, (1, 0, 0)),
        }
        // A read faults it back in (except batch, which already has it).
        let _: u8 = c.load(p).unwrap();
        let obj = c.object_at(p).unwrap();
        assert_eq!(obj.blocks.0, 0, "{protocol}");
    }
}

#[test]
fn scalar_type_matrix_through_shared_memory() {
    let c = session(Protocol::Rolling);
    let p = c.alloc(4096).unwrap();
    c.store::<i8>(p, -5).unwrap();
    assert_eq!(c.load::<i8>(p).unwrap(), -5);
    c.store::<u16>(p.byte_add(2), 0xBEEF).unwrap();
    assert_eq!(c.load::<u16>(p.byte_add(2)).unwrap(), 0xBEEF);
    c.store::<i32>(p.byte_add(4), i32::MIN).unwrap();
    assert_eq!(c.load::<i32>(p.byte_add(4)).unwrap(), i32::MIN);
    c.store::<u64>(p.byte_add(8), u64::MAX).unwrap();
    assert_eq!(c.load::<u64>(p.byte_add(8)).unwrap(), u64::MAX);
    c.store::<f64>(p.byte_add(16), std::f64::consts::PI)
        .unwrap();
    assert_eq!(c.load::<f64>(p.byte_add(16)).unwrap(), std::f64::consts::PI);
}

#[test]
fn many_small_objects_stress_the_registry() {
    let c = session(Protocol::Rolling);
    let ptrs: Vec<_> = (0..200).map(|_| c.alloc(PAGE_SIZE).unwrap()).collect();
    assert_eq!(c.gmac().object_count(), 200);
    for (i, p) in ptrs.iter().enumerate() {
        c.store::<u32>(*p, i as u32).unwrap();
    }
    for (i, p) in ptrs.iter().enumerate() {
        assert_eq!(c.load::<u32>(*p).unwrap(), i as u32);
    }
    // Free every other object and verify the rest still resolve.
    for p in ptrs.iter().step_by(2) {
        c.free(*p).unwrap();
    }
    assert_eq!(c.gmac().object_count(), 100);
    for (i, p) in ptrs.iter().enumerate().skip(1).step_by(2) {
        assert_eq!(c.load::<u32>(*p).unwrap(), i as u32);
    }
}
