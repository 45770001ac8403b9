//! Integrated buffer management: the aggregate DAG stored *in* fbufs.
//!
//! "Consider now an optimization that incorporates knowledge about the
//! aggregate object into the transfer facility ... by placing the entire
//! aggregate object into fbufs. Since the fbuf region is mapped at the same
//! virtual address in all domains, no internal pointer translations are
//! required. During a send operation, a reference to the root node of the
//! aggregate object is passed to the kernel." (§3.2.3)
//!
//! Because a receiver traverses a DAG whose memory a (possibly malicious)
//! originator may still be able to write, §3.2.4 requires three defenses,
//! all implemented by [`traverse`]:
//!
//! 1. child pointers are range-checked against the fbuf region;
//! 2. traversals detect cycles (and bound total node count);
//! 3. reads of fbuf-region addresses the receiver has no mapping for
//!    complete against a synthetic page stamped with empty leaf nodes
//!    (installed by [`install_null_template`]).
//!
//! # Node format
//!
//! Nodes are 24-byte records of three little-endian `u64` words:
//!
//! | word 0 (kind) | word 1 | word 2 |
//! |---|---|---|
//! | 1 = leaf | data virtual address | data length |
//! | 2 = concat | left child address | right child address |
//!
//! Any other kind tag — including the zeros produced by reading a null
//! page at an unaligned offset — parses as an empty leaf.

use std::collections::HashSet;

use fbuf::{AllocMode, FbufId, FbufResult, FbufSystem};
use fbuf_sim::EventKind;
use fbuf_vm::DomainId;

/// Node record size in bytes.
pub const NODE_SIZE: u64 = 24;
const KIND_LEAF: u64 = 1;
const KIND_CONCAT: u64 = 2;

/// An integrated message: just the root node's (globally valid) virtual
/// address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegratedMsg {
    /// Virtual address of the root DAG node, inside the fbuf region.
    pub root: u64,
}

/// Stamps the machine's null-read template with empty leaf records so that
/// wild DAG reads decode as the absence of data. Call once at system
/// setup.
pub fn install_null_template(fbs: &mut FbufSystem) {
    let mut rec = Vec::with_capacity(NODE_SIZE as usize);
    rec.extend_from_slice(&KIND_LEAF.to_le_bytes());
    rec.extend_from_slice(&0u64.to_le_bytes());
    rec.extend_from_slice(&0u64.to_le_bytes());
    fbs.machine_mut().set_null_template(rec);
}

/// Builds DAG nodes inside an fbuf.
#[derive(Debug)]
pub struct DagBuilder {
    dom: DomainId,
    node_fbuf: FbufId,
    cursor: u64,
    capacity: u64,
}

impl DagBuilder {
    /// Allocates a node fbuf (from `mode`) with room for `max_nodes`
    /// records.
    pub fn new(
        fbs: &mut FbufSystem,
        dom: DomainId,
        mode: AllocMode,
        max_nodes: u64,
    ) -> FbufResult<DagBuilder> {
        let node_fbuf = fbs.alloc(dom, mode, max_nodes * NODE_SIZE)?;
        Ok(DagBuilder {
            dom,
            node_fbuf,
            cursor: 0,
            capacity: max_nodes,
        })
    }

    /// The fbuf holding the node records.
    pub fn node_fbuf(&self) -> FbufId {
        self.node_fbuf
    }

    fn write_node(&mut self, fbs: &mut FbufSystem, words: [u64; 3]) -> FbufResult<u64> {
        assert!(self.cursor < self.capacity, "node fbuf full");
        let off = self.cursor * NODE_SIZE;
        self.cursor += 1;
        let mut bytes = Vec::with_capacity(NODE_SIZE as usize);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        fbs.write_fbuf(self.dom, self.node_fbuf, off, &bytes)?;
        Ok(fbs.fbuf(self.node_fbuf)?.va + off)
    }

    /// Emits a leaf node describing `len` bytes at `data_va`; returns the
    /// node's address.
    pub fn leaf(&mut self, fbs: &mut FbufSystem, data_va: u64, len: u64) -> FbufResult<u64> {
        self.write_node(fbs, [KIND_LEAF, data_va, len])
    }

    /// Emits a concat node over two child node addresses.
    pub fn concat(&mut self, fbs: &mut FbufSystem, left: u64, right: u64) -> FbufResult<u64> {
        self.write_node(fbs, [KIND_CONCAT, left, right])
    }

    /// Emits a raw node (tests use this to forge hostile records).
    pub fn raw(&mut self, fbs: &mut FbufSystem, words: [u64; 3]) -> FbufResult<u64> {
        self.write_node(fbs, words)
    }
}

/// Traversal safety limits.
#[derive(Debug, Clone, Copy)]
pub struct TraverseLimits {
    /// Maximum nodes visited before aborting (bounds hostile deep DAGs).
    pub max_nodes: usize,
}

impl Default for TraverseLimits {
    fn default() -> TraverseLimits {
        TraverseLimits { max_nodes: 4096 }
    }
}

/// What a receive-side traversal found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraverseOutcome {
    /// In-order (virtual address, length) data extents.
    pub extents: Vec<(u64, u64)>,
    /// Nodes visited.
    pub nodes: usize,
    /// Whether a cycle (revisited node) was detected and skipped.
    pub cycle_detected: bool,
    /// Child or data pointers rejected by the fbuf-region range check.
    pub range_failures: usize,
    /// Whether the node budget was exhausted.
    pub truncated: bool,
}

impl TraverseOutcome {
    /// Total data length described.
    pub fn len(&self) -> u64 {
        self.extents.iter().map(|&(_, l)| l).sum()
    }

    /// True when no data extents were found.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }
}

/// Traverses the DAG rooted at `root` as domain `dom`, applying the §3.2.4
/// defenses. Never panics on hostile input; anomalies are reported in the
/// outcome and counted in the machine statistics.
pub fn traverse(
    fbs: &mut FbufSystem,
    dom: DomainId,
    root: u64,
    limits: TraverseLimits,
) -> FbufResult<TraverseOutcome> {
    let mut out = TraverseOutcome::default();
    let mut visited: HashSet<u64> = HashSet::new();
    // Explicit stack of node addresses; children pushed right-first so the
    // left child is processed first (in-order data).
    let mut stack = vec![root];
    while let Some(va) = stack.pop() {
        if out.nodes >= limits.max_nodes {
            out.truncated = true;
            break;
        }
        // Defense 1: range check before dereferencing anything.
        if !fbs.machine().config().in_fbuf_region(va, NODE_SIZE) {
            out.range_failures += 1;
            fbs.machine_mut().stats_mut().inc_dag_range_check_failures();
            continue;
        }
        // Defense 2: cycle check.
        if !visited.insert(va) {
            out.cycle_detected = true;
            fbs.machine_mut().stats_mut().inc_dag_cycles_detected();
            continue;
        }
        out.nodes += 1;
        fbs.machine_mut().stats_mut().inc_dag_nodes_visited();
        let m = fbs.machine();
        m.tracer()
            .instant(m.now(), EventKind::DagVisit, dom.0, None, fbs.fbuf_at_va(va).map(|f| f.0));
        // Defense 3 happens inside the VM: if `dom` has no mapping, the
        // read faults to a null page stamped with empty leaves.
        let bytes = fbs.machine_mut().read(dom, va, NODE_SIZE)?;
        let word =
            |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
        match word(0) {
            KIND_CONCAT => {
                stack.push(word(2));
                stack.push(word(1));
            }
            KIND_LEAF => {
                let (data_va, len) = (word(1), word(2));
                if len == 0 {
                    continue; // empty leaf: the absence of data
                }
                if !fbs.machine().config().in_fbuf_region(data_va, len) {
                    out.range_failures += 1;
                    fbs.machine_mut().stats_mut().inc_dag_range_check_failures();
                    continue;
                }
                out.extents.push((data_va, len));
            }
            _ => {
                // Garbage kind (e.g. unaligned read of a null page):
                // treated as an empty leaf.
            }
        }
    }
    Ok(out)
}

/// Gathers the data content of an integrated message as `dom` (reads
/// charged through the VM; unmapped data pages read as zeros via the null
/// page).
pub fn gather(
    fbs: &mut FbufSystem,
    dom: DomainId,
    msg: IntegratedMsg,
    limits: TraverseLimits,
) -> FbufResult<Vec<u8>> {
    let outcome = traverse(fbs, dom, msg.root, limits)?;
    let mut data = Vec::with_capacity(outcome.len() as usize);
    for (va, len) in outcome.extents {
        data.extend(fbs.machine_mut().read(dom, va, len)?);
    }
    Ok(data)
}

/// The distinct fbufs reachable from an integrated message in `from`'s
/// view — node fbufs and data fbufs — in the order encountered. Used by
/// the send path: "the kernel inspects the aggregate and transfers all
/// fbufs in which reachable nodes reside, unless shared mappings already
/// exist."
pub fn reachable_fbufs(
    fbs: &mut FbufSystem,
    from: DomainId,
    msg: IntegratedMsg,
    limits: TraverseLimits,
) -> FbufResult<Vec<FbufId>> {
    let mut result: Vec<FbufId> = Vec::new();
    let push = |id: Option<FbufId>, result: &mut Vec<FbufId>| {
        if let Some(id) = id {
            if !result.contains(&id) {
                result.push(id);
            }
        }
    };
    // Re-walk the DAG tracking the fbufs the *nodes* live in as well as the
    // data extents.
    let mut visited: HashSet<u64> = HashSet::new();
    let mut nodes = 0usize;
    let mut stack = vec![msg.root];
    while let Some(va) = stack.pop() {
        if nodes >= limits.max_nodes {
            break;
        }
        if !fbs.machine().config().in_fbuf_region(va, NODE_SIZE) || !visited.insert(va) {
            continue;
        }
        nodes += 1;
        push(fbs.fbuf_at_va(va), &mut result);
        let bytes = fbs.machine_mut().read(from, va, NODE_SIZE)?;
        let word =
            |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
        match word(0) {
            KIND_CONCAT => {
                stack.push(word(2));
                stack.push(word(1));
            }
            KIND_LEAF if word(2) > 0 => {
                push(fbs.fbuf_at_va(word(1)), &mut result);
            }
            _ => {}
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf::SendMode;
    use fbuf_sim::MachineConfig;

    fn setup() -> (FbufSystem, DomainId, DomainId) {
        let mut fbs = FbufSystem::new(MachineConfig::tiny());
        install_null_template(&mut fbs);
        let a = fbs.create_domain();
        let b = fbs.create_domain();
        (fbs, a, b)
    }

    /// Builds a 2-leaf message: concat(leaf(data1), leaf(data2)).
    fn two_leaf_msg(fbs: &mut FbufSystem, dom: DomainId) -> (IntegratedMsg, FbufId, FbufId) {
        let data = fbs.alloc(dom, AllocMode::Uncached, 8192).unwrap();
        fbs.write_fbuf(dom, data, 0, b"hello ").unwrap();
        fbs.write_fbuf(dom, data, 4096, b"world").unwrap();
        let data_va = fbs.fbuf(data).unwrap().va;
        let mut b = DagBuilder::new(fbs, dom, AllocMode::Uncached, 8).unwrap();
        let l1 = b.leaf(fbs, data_va, 6).unwrap();
        let l2 = b.leaf(fbs, data_va + 4096, 5).unwrap();
        let root = b.concat(fbs, l1, l2).unwrap();
        (IntegratedMsg { root }, data, b.node_fbuf())
    }

    #[test]
    fn build_and_gather_in_originator() {
        let (mut fbs, a, _) = setup();
        let (msg, _, _) = two_leaf_msg(&mut fbs, a);
        let data = gather(&mut fbs, a, msg, TraverseLimits::default()).unwrap();
        assert_eq!(data, b"hello world");
    }

    #[test]
    fn transfer_by_root_pointer_only() {
        let (mut fbs, a, b) = setup();
        let (msg, data, nodes) = two_leaf_msg(&mut fbs, a);
        // Send: inspect the aggregate, transfer every reachable fbuf.
        let reach = reachable_fbufs(&mut fbs, a, msg, TraverseLimits::default()).unwrap();
        assert_eq!(reach.len(), 2);
        assert!(reach.contains(&data) && reach.contains(&nodes));
        for id in reach {
            fbs.send(id, a, b, SendMode::Volatile).unwrap();
        }
        // Receiver needs nothing but the root va.
        let got = gather(&mut fbs, b, msg, TraverseLimits::default()).unwrap();
        assert_eq!(got, b"hello world");
    }

    #[test]
    fn cycle_is_detected_not_looped() {
        let (mut fbs, a, _) = setup();
        let mut b = DagBuilder::new(&mut fbs, a, AllocMode::Uncached, 4).unwrap();
        // node0 = concat(node1, node1), node1 = concat(node0, node0):
        // build node1 first pointing at where node0 will be.
        let base = fbs.fbuf(b.node_fbuf()).unwrap().va;
        let node0_va = base; // first record
        let node1 = b.raw(&mut fbs, [KIND_CONCAT, node0_va, node0_va]).unwrap();
        assert_eq!(node1, base); // builder writes sequentially
        let node2 = b.raw(&mut fbs, [KIND_CONCAT, node1, node1]).unwrap();
        let out = traverse(&mut fbs, a, node2, TraverseLimits::default()).unwrap();
        assert!(out.cycle_detected);
        assert!(out.extents.is_empty());
        assert!(fbs.stats().dag_cycles_detected() > 0);
    }

    #[test]
    fn wild_pointer_outside_region_rejected() {
        let (mut fbs, a, _) = setup();
        let mut b = DagBuilder::new(&mut fbs, a, AllocMode::Uncached, 4).unwrap();
        let evil = b.raw(&mut fbs, [KIND_CONCAT, 0xdead_beef, 0x10]).unwrap();
        let out = traverse(&mut fbs, a, evil, TraverseLimits::default()).unwrap();
        assert_eq!(out.range_failures, 2);
        assert!(out.extents.is_empty());
        assert!(fbs.stats().dag_range_check_failures() >= 2);
    }

    #[test]
    fn unmapped_fbuf_region_pointer_reads_as_empty_leaf() {
        let (mut fbs, a, b) = setup();
        let region_base = fbs.machine().config().fbuf_region_base;
        let mut builder = DagBuilder::new(&mut fbs, a, AllocMode::Uncached, 4).unwrap();
        // Points into the fbuf region at an address nobody mapped — the
        // receiver's read faults to a null page stamped with empty leaves.
        let wild_in_region = region_base + 512 * 1024 - 4096;
        let root = builder
            .raw(
                &mut fbs,
                [KIND_CONCAT, wild_in_region, wild_in_region + NODE_SIZE],
            )
            .unwrap();
        fbs.send(builder.node_fbuf(), a, b, SendMode::Volatile)
            .unwrap();
        let out = traverse(&mut fbs, b, root, TraverseLimits::default()).unwrap();
        assert!(!out.cycle_detected);
        assert!(
            out.extents.is_empty(),
            "wild refs look like absence of data"
        );
        assert!(fbs.stats().wild_reads_nullified() >= 1);
    }

    #[test]
    fn hostile_deep_chain_is_bounded() {
        let (mut fbs, a, _) = setup();
        let mut b = DagBuilder::new(&mut fbs, a, AllocMode::Uncached, 64).unwrap();
        // A long right-leaning chain.
        let data = fbs.alloc(a, AllocMode::Uncached, 64).unwrap();
        let data_va = fbs.fbuf(data).unwrap().va;
        let mut node = b.leaf(&mut fbs, data_va, 1).unwrap();
        for _ in 0..50 {
            node = b.concat(&mut fbs, node, node).unwrap();
        }
        // Shared-substructure DAG: visited-set makes this linear, and the
        // budget caps it regardless.
        let out = traverse(&mut fbs, a, node, TraverseLimits { max_nodes: 10 }).unwrap();
        assert!(out.truncated);
        assert!(out.nodes <= 10);
    }

    #[test]
    fn unaligned_null_page_read_parses_as_empty() {
        let (mut fbs, _, b) = setup();
        let region_base = fbs.machine().config().fbuf_region_base;
        // Traverse a root at an unaligned offset in an unmapped page.
        let out = traverse(
            &mut fbs,
            b,
            region_base + 1_000_001,
            TraverseLimits::default(),
        )
        .unwrap();
        assert!(out.extents.is_empty());
        assert_eq!(out.nodes, 1);
    }

    #[test]
    fn shared_subtree_data_counted_once_per_visit() {
        let (mut fbs, a, _) = setup();
        let data = fbs.alloc(a, AllocMode::Uncached, 64).unwrap();
        fbs.write_fbuf(a, data, 0, b"xy").unwrap();
        let data_va = fbs.fbuf(data).unwrap().va;
        let mut b = DagBuilder::new(&mut fbs, a, AllocMode::Uncached, 4).unwrap();
        let leaf = b.leaf(&mut fbs, data_va, 2).unwrap();
        // concat(leaf, leaf): the leaf node is visited once (it is the same
        // node), so the data appears once — a DAG, not a tree.
        let root = b.concat(&mut fbs, leaf, leaf).unwrap();
        let out = traverse(&mut fbs, a, root, TraverseLimits::default()).unwrap();
        assert_eq!(out.extents.len(), 1);
    }
}
