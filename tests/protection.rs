//! Full-stack protection and fault-injection tests: the paper's security
//! argument exercised through the public API.

use fbufs::fbuf::{AllocMode, FbufError, FbufSystem, SendMode};
use fbufs::sim::{CostCategory, MachineConfig};
use fbufs::vm::{Fault, KERNEL_DOMAIN};
use fbufs::xkernel::integrated::{self, DagBuilder, TraverseLimits};
use fbufs::xkernel::{deliver, Msg, MsgRefs};

fn system() -> FbufSystem {
    let mut fbs = FbufSystem::new(MachineConfig::decstation_5000_200());
    integrated::install_null_template(&mut fbs);
    fbs
}

#[test]
fn immutability_is_enforced_not_assumed() {
    let mut fbs = system();
    let producer = fbs.create_domain();
    let consumer = fbs.create_domain();
    let id = fbs.alloc(producer, AllocMode::Uncached, 4096).unwrap();
    fbs.write_fbuf(producer, id, 0, b"checked data").unwrap();
    fbs.send(id, producer, consumer, SendMode::Secure).unwrap();
    // Every byte of every page is now immutable from the producer's side.
    for off in [0u64, 1, 4095] {
        assert!(
            matches!(
                fbs.write_fbuf(producer, id, off, &[0]),
                Err(FbufError::Vm(Fault::AccessViolation { .. }))
            ),
            "write at {off} must fault"
        );
    }
    // Securing is idempotent.
    fbs.secure(id, consumer).unwrap();
    // Reads remain fine on both sides.
    assert_eq!(fbs.read_fbuf(producer, id, 0, 4).unwrap(), b"chec");
    assert_eq!(fbs.read_fbuf(consumer, id, 0, 4).unwrap(), b"chec");
}

#[test]
fn write_permission_returns_with_the_free_list() {
    // "Write permissions are returned to the originator, and the fbuf is
    // placed on a free list" — after deallocation the producer can write
    // again (into its reused buffer), without affecting past receivers.
    let mut fbs = system();
    let producer = fbs.create_domain();
    let consumer = fbs.create_domain();
    let path = fbs.create_path(vec![producer, consumer]).unwrap();
    let id = fbs.alloc(producer, AllocMode::Cached(path), 64).unwrap();
    fbs.write_fbuf(producer, id, 0, b"v1").unwrap();
    fbs.send(id, producer, consumer, SendMode::Secure).unwrap();
    assert!(fbs.write_fbuf(producer, id, 0, b"v2").is_err());
    fbs.free(id, consumer).unwrap();
    // Still secured: the producer itself has not freed yet.
    assert!(fbs.write_fbuf(producer, id, 0, b"v2").is_err());
    fbs.free(id, producer).unwrap();
    let id2 = fbs.alloc(producer, AllocMode::Cached(path), 64).unwrap();
    assert_eq!(id2, id, "recycled from the free list");
    fbs.write_fbuf(producer, id2, 0, b"v2").unwrap();
}

#[test]
fn hostile_integrated_aggregate_through_proxy() {
    // A malicious producer ships a DAG whose nodes it keeps mutating and
    // whose pointers aim everywhere; the consumer must never crash and
    // never read outside the fbuf region.
    let mut fbs = system();
    let producer = fbs.create_domain();
    let consumer = fbs.create_domain();

    let data = fbs.alloc(producer, AllocMode::Uncached, 4096).unwrap();
    fbs.write_fbuf(producer, data, 0, b"real").unwrap();
    let data_va = fbs.fbuf(data).unwrap().va;
    let region_base = fbs.machine().config().fbuf_region_base;

    let mut b = DagBuilder::new(&mut fbs, producer, AllocMode::Uncached, 16).unwrap();
    let ok_leaf = b.leaf(&mut fbs, data_va, 4).unwrap();
    let wild_leaf = b.raw(&mut fbs, [1, 0x12_3456, 64]).unwrap(); // out of region
    let null_leaf = b.raw(&mut fbs, [1, region_base + (30 << 20), 8]).unwrap(); // unmapped
    let garbage = b.raw(&mut fbs, [777, 1, 2]).unwrap(); // unknown kind
    let c1 = b.concat(&mut fbs, ok_leaf, wild_leaf).unwrap();
    let c2 = b.concat(&mut fbs, null_leaf, garbage).unwrap();
    let root = b.concat(&mut fbs, c1, c2).unwrap();

    fbs.send(b.node_fbuf(), producer, consumer, SendMode::Volatile)
        .unwrap();
    fbs.send(data, producer, consumer, SendMode::Volatile)
        .unwrap();

    let out = integrated::traverse(&mut fbs, consumer, root, TraverseLimits::default()).unwrap();
    // The one honest leaf and the null-page leaf survive; the wild leaf is
    // rejected; the garbage node reads as empty.
    assert_eq!(out.range_failures, 1);
    assert!(!out.cycle_detected);
    let gathered = integrated::gather(
        &mut fbs,
        consumer,
        integrated::IntegratedMsg { root },
        TraverseLimits::default(),
    )
    .unwrap();
    // "real" plus 8 bytes from the synthetic null page (the empty-leaf
    // template pattern — safe, receiver-local, never another domain's
    // memory).
    assert_eq!(&gathered[..4], b"real");
    assert_eq!(gathered.len(), 12);
    assert!(fbs.stats().wild_reads_nullified() >= 1);
}

#[test]
fn receiver_crash_mid_path_cleans_up() {
    let mut fbs = system();
    let mut refs = MsgRefs::new();
    let producer = fbs.create_domain();
    let middle = fbs.create_domain();
    let consumer = fbs.create_domain();

    let id = fbs.alloc(producer, AllocMode::Uncached, 8192).unwrap();
    fbs.write_fbuf(producer, id, 0, b"in flight").unwrap();
    let msg = Msg::from_fbuf(id, 0, 8192);
    refs.adopt(producer, &msg);
    deliver(
        &mut fbs,
        &mut refs,
        &msg,
        producer,
        middle,
        SendMode::Volatile,
    )
    .unwrap();
    deliver(
        &mut fbs,
        &mut refs,
        &msg,
        middle,
        consumer,
        SendMode::Volatile,
    )
    .unwrap();

    // The middle domain dies abnormally without releasing anything.
    fbs.terminate_domain(middle).unwrap();

    // The consumer still reads its data.
    assert_eq!(fbs.read_fbuf(consumer, id, 0, 9).unwrap(), b"in flight");
    // Producer and consumer release normally; the buffer is retired.
    refs.release(&mut fbs, consumer, &msg).unwrap();
    refs.release(&mut fbs, producer, &msg).unwrap();
    assert!(fbs.fbuf(id).is_err());
}

#[test]
fn originator_crash_preserves_receivers_data_then_reclaims() {
    let mut fbs = system();
    let producer = fbs.create_domain();
    let consumer = fbs.create_domain();
    let frames0 = fbs.machine().free_frames();

    let id = fbs.alloc(producer, AllocMode::Uncached, 4096).unwrap();
    fbs.write_fbuf(producer, id, 0, b"survivor").unwrap();
    fbs.send(id, producer, consumer, SendMode::Volatile)
        .unwrap();
    fbs.terminate_domain(producer).unwrap();
    assert_eq!(fbs.read_fbuf(consumer, id, 0, 8).unwrap(), b"survivor");
    fbs.free(id, consumer).unwrap();
    // Everything (frames and chunks) is back.
    assert_eq!(fbs.machine().free_frames(), frames0);
}

#[test]
fn kernel_buffers_never_need_securing() {
    let mut fbs = system();
    let consumer = fbs.create_domain();
    let id = fbs.alloc(KERNEL_DOMAIN, AllocMode::Uncached, 64).unwrap();
    fbs.send(id, KERNEL_DOMAIN, consumer, SendMode::Secure)
        .unwrap();
    // Eager securing of a trusted (kernel) originator is a no-op: the
    // kernel can still write, and nothing was counted.
    fbs.write_fbuf(KERNEL_DOMAIN, id, 0, b"k").unwrap();
    assert_eq!(fbs.stats().fbufs_secured(), 0);
}

#[test]
fn quota_denial_is_clean_and_recoverable() {
    let mut fbs = system();
    let producer = fbs.create_domain();
    let consumer = fbs.create_domain();
    let path = fbs.create_path(vec![producer, consumer]).unwrap();
    let chunk = fbs.machine().config().chunk_size;
    let mut held = Vec::new();
    loop {
        match fbs.alloc(producer, AllocMode::Cached(path), chunk) {
            Ok(id) => held.push(id),
            Err(FbufError::QuotaExceeded { path: Some(p) }) => {
                assert_eq!(p, path);
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(held.len(), fbs.machine().config().max_chunks_per_path);
    // Freeing restores allocatability without growing the chunk count.
    let granted = fbs.stats().chunks_granted();
    fbs.free(held[0], producer).unwrap();
    fbs.alloc(producer, AllocMode::Cached(path), chunk).unwrap();
    assert_eq!(fbs.stats().chunks_granted(), granted);
}

#[test]
fn pooled_frames_never_leak_a_previous_owners_bytes() {
    // Physical memory recycles freed page storage. A frame one domain
    // wrote and retired must reach the next domain's uncached buffer
    // cleared, and the clear must be billed exactly as before pooling:
    // one 57 µs page clear per page when clearing is charged, none when
    // it is not.
    for charge in [true, false] {
        let mut fbs = system();
        fbs.charge_clearing = charge;
        let (a, b) = (fbs.create_domain(), fbs.create_domain());
        let page = fbs.machine().page_size();
        let pages = 4u64;
        let len = pages * page;
        let id = fbs.alloc(a, AllocMode::Uncached, len).unwrap();
        fbs.write_fbuf(a, id, 0, &vec![0x5C; len as usize]).unwrap();
        fbs.free(id, a).unwrap();
        let pooled = fbs.machine().pooled_frames();
        assert!(pooled >= pages as usize, "A's retired pages are pooled");

        let clock = fbs.machine().clock();
        let cleared = fbs.stats().pages_cleared();
        let moved = clock.spent_on(CostCategory::DataMove);
        let id = fbs.alloc(b, AllocMode::Uncached, len).unwrap();
        assert_eq!(
            fbs.machine().pooled_frames(),
            pooled - pages as usize,
            "B's buffer is built from the pooled storage"
        );
        let billed = if charge { pages } else { 0 };
        assert_eq!(fbs.stats().pages_cleared() - cleared, billed);
        assert_eq!(
            clock.spent_on(CostCategory::DataMove) - moved,
            fbs.machine().costs().page_zero * billed
        );
        assert_eq!(
            fbs.read_fbuf(b, id, 0, len).unwrap(),
            vec![0u8; len as usize],
            "charge_clearing = {charge}: B reads zeros, not A's bytes"
        );
    }
}
