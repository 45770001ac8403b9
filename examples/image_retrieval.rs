//! Digital image retrieval — the paper's second motivating application —
//! told through the fbuf API itself: the server fills the image in place
//! (§5.2 aggregate I/O), encrypts it into a new buffer (fbufs are
//! immutable), and sends it over a lossy wire, resending each lost
//! segment from the fbuf it still holds (copy semantics, §2.1.3); the
//! client reads the image back as scanlines through a `Generator`.
//!
//! Run with: `cargo run --release --example image_retrieval`

use fbufs::fbuf::{AllocMode, FbufSystem, SendMode};
use fbufs::sim::MachineConfig;
use fbufs::xkernel::{Generator, Msg, MsgRefs};

const IMAGE: u64 = 300_000; // one ~300 KB image
const SEGMENT: usize = 16 << 10;
const DROP_EVERY: u64 = 5; // the wire eats every 5th transmission
const SCANLINE: u64 = 1500;

/// The presentation-layer "cipher": an XOR stream, its own inverse.
fn cipher(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .enumerate()
        .map(|(i, &b)| b ^ 0x5A ^ i as u8)
        .collect()
}

fn main() {
    let mut cfg = MachineConfig::decstation_5000_200();
    cfg.phys_mem = 24 << 20;
    // Whole images live in single buffers; size the chunks accordingly.
    cfg.chunk_size = 1 << 20;
    let mut fbs = FbufSystem::new(cfg);
    let mut refs = MsgRefs::new();
    let server = fbs.create_domain();
    let client = fbs.create_domain();
    let path = fbs.create_path(vec![server, client]).unwrap();
    let pixels: Vec<u8> = (0..IMAGE).map(|i| (i.wrapping_mul(7) >> 3) as u8).collect();

    // --- server side -----------------------------------------------------
    // The image buffer comes from the path and is filled in place from
    // "disk": no staging copy, the aggregate *is* the buffer.
    let plain = fbs.alloc(server, AllocMode::Cached(path), IMAGE).unwrap();
    fbs.write_fbuf(server, plain, 0, &pixels).unwrap();
    let image = Msg::from_fbuf(plain, 0, IMAGE);
    refs.adopt(server, &image);
    let plaintext = image.gather(&mut fbs, server).unwrap();
    assert_eq!(plaintext, pixels);
    println!("server: image filled in place, {} KB", IMAGE >> 10);

    // Encryption writes a new buffer; the plaintext is never modified.
    let ciphertext = cipher(&plaintext);
    let encrypted = fbs.alloc(server, AllocMode::Uncached, IMAGE).unwrap();
    fbs.write_fbuf(server, encrypted, 0, &ciphertext).unwrap();
    assert_ne!(encrypted, plain);
    assert_eq!(image.gather(&mut fbs, server).unwrap(), pixels);
    println!("server: encrypted into a new buffer (plaintext immutable)");

    // --- the wire ---------------------------------------------------------
    // Each segment travels in an fbuf of its own. The sender keeps its
    // reference until the segment arrives, so a lost transmission is
    // resent from that same fbuf, and nothing is ever copied.
    let copies = fbs.stats().pages_copied();
    let rpcs = fbs.stats().ipc_messages();
    let (mut transmissions, mut drops) = (0, 0);
    let mut received = Vec::with_capacity(IMAGE as usize);
    for chunk in ciphertext.chunks(SEGMENT) {
        let len = chunk.len() as u64;
        let seg = fbs.alloc(server, AllocMode::Cached(path), len).unwrap();
        fbs.write_fbuf(server, seg, 0, chunk).unwrap();
        loop {
            transmissions += 1;
            fbs.hop(server, client);
            if transmissions % DROP_EVERY != 0 {
                break;
            }
            drops += 1;
            assert_eq!(fbs.read_fbuf(server, seg, 0, len).unwrap(), chunk);
        }
        fbs.send(seg, server, client, SendMode::Volatile).unwrap();
        received.extend(fbs.read_fbuf(client, seg, 0, len).unwrap());
        fbs.free(seg, client).unwrap();
        fbs.free(seg, server).unwrap();
    }
    assert!(drops > 0);
    assert_eq!(fbs.stats().ipc_messages() - rpcs, transmissions);
    assert_eq!(fbs.stats().pages_copied(), copies);
    println!("wire:   {transmissions} transmissions, {drops} dropped and resent from held fbufs");

    // --- client side -------------------------------------------------------
    let decrypted = cipher(&received);
    assert_eq!(decrypted, pixels, "image corrupted in transit");
    let copy = fbs.alloc(client, AllocMode::Uncached, IMAGE).unwrap();
    fbs.write_fbuf(client, copy, 0, &decrypted).unwrap();
    let view = Msg::from_fbuf(copy, 0, IMAGE);
    refs.adopt(client, &view);
    // One scanline per record; a one-fragment image is read all in place.
    let mut rows = Generator::new(view.clone(), SCANLINE);
    let (mut n, mut in_place) = (0, 0);
    while let Some(row) = rows.next_unit(&mut fbs, client).unwrap() {
        n += 1;
        in_place += u64::from(row.is_zero_copy());
    }
    assert_eq!((n, in_place), (IMAGE.div_ceil(SCANLINE), n));
    println!("client: image decrypted and verified, {n} scanlines read in place");

    refs.release(&mut fbs, client, &view).unwrap();
    refs.release(&mut fbs, server, &image).unwrap();
    fbs.free(encrypted, server).unwrap();
    assert_eq!(refs.outstanding(), 0);
    println!("done: no buffer leaks.");
}
