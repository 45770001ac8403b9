//! The §5.2 application interface: data units out of buffer aggregates.
//!
//! "To minimize inconvenience to application programmers, our proposed
//! interface supports a generator-like operation that retrieves data from a
//! buffer aggregate at the granularity of an application-defined data unit,
//! such as a structure or a line of text. Copying only occurs when a data
//! unit crosses a buffer fragment boundary."

use fbuf::{FbufResult, FbufSystem};
use fbuf_vm::DomainId;

use crate::msg::Msg;

/// One application data unit retrieved from an aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataUnit {
    /// The unit lies inside a single fragment: the application reads it in
    /// place (zero copy). The address is globally valid (fbuf region).
    Borrowed {
        /// Virtual address of the unit.
        va: u64,
        /// Length in bytes.
        len: u64,
    },
    /// The unit straddled a fragment boundary and was copied into
    /// contiguous storage.
    Copied(Vec<u8>),
}

impl DataUnit {
    /// Materializes the unit's bytes (reading through `dom` if borrowed).
    pub fn bytes(&self, fbs: &mut FbufSystem, dom: DomainId) -> FbufResult<Vec<u8>> {
        match self {
            DataUnit::Borrowed { va, len } => Ok(fbs.machine_mut().read(dom, *va, *len)?),
            DataUnit::Copied(v) => Ok(v.clone()),
        }
    }

    /// True when no copy was needed.
    pub fn is_zero_copy(&self) -> bool {
        matches!(self, DataUnit::Borrowed { .. })
    }
}

/// Iterates fixed-size records out of a message.
#[derive(Debug)]
pub struct Generator {
    msg: Msg,
    unit: u64,
    pos: u64,
}

impl Generator {
    /// Creates a generator yielding `unit`-byte records.
    pub fn new(msg: Msg, unit: u64) -> Generator {
        assert!(unit > 0, "unit size must be positive");
        Generator { msg, unit, pos: 0 }
    }

    /// Retrieves the next record as `dom`, or `None` past the end. A final
    /// partial record is returned with its true (shorter) length.
    pub fn next_unit(
        &mut self,
        fbs: &mut FbufSystem,
        dom: DomainId,
    ) -> FbufResult<Option<DataUnit>> {
        let total = self.msg.len();
        if self.pos >= total {
            return Ok(None);
        }
        let len = self.unit.min(total - self.pos);
        let unit = slice_unit(fbs, dom, &self.msg, self.pos, len)?;
        self.pos += len;
        Ok(Some(unit))
    }
}

/// Extracts `[pos, pos+len)` from the message: borrowed if it fits in one
/// fragment, copied otherwise.
fn slice_unit(
    fbs: &mut FbufSystem,
    dom: DomainId,
    msg: &Msg,
    pos: u64,
    len: u64,
) -> FbufResult<DataUnit> {
    let mut cursor = 0u64;
    for e in msg.extents() {
        if pos >= cursor + e.len {
            cursor += e.len;
            continue;
        }
        let within = pos - cursor;
        if within + len <= e.len {
            // Entirely inside this fragment: zero copy.
            let va = fbs.fbuf(e.fbuf)?.va + e.off + within;
            return Ok(DataUnit::Borrowed { va, len });
        }
        // Straddles: gather with a real copy.
        fbs.machine_mut().stats_mut().inc_generator_copies();
        let (_, tail) = msg.split(pos);
        let (unit, _) = tail.split(len);
        return Ok(DataUnit::Copied(unit.gather(fbs, dom)?));
    }
    Ok(DataUnit::Copied(Vec::new()))
}

/// Splits a message into newline-delimited lines (delimiter included),
/// copying only lines that straddle fragment boundaries. A trailing
/// fragment without a newline is yielded as a final line.
pub fn lines(fbs: &mut FbufSystem, dom: DomainId, msg: &Msg) -> FbufResult<Vec<DataUnit>> {
    let bytes = msg.gather(fbs, dom)?;
    let mut out = Vec::new();
    let mut start = 0u64;
    let mut i = 0u64;
    for &b in &bytes {
        i += 1;
        if b == b'\n' {
            out.push(slice_unit(fbs, dom, msg, start, i - start)?);
            start = i;
        }
    }
    if start < bytes.len() as u64 {
        out.push(slice_unit(
            fbs,
            dom,
            msg,
            start,
            bytes.len() as u64 - start,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbuf::AllocMode;
    use fbuf_sim::MachineConfig;
    use fbuf_vm::DomainId as D;

    fn setup() -> (FbufSystem, D) {
        let mut fbs = FbufSystem::new(MachineConfig::tiny());
        let a = fbs.create_domain();
        (fbs, a)
    }

    /// A message split across two fbufs: "ABCDEFGH" + "IJKLMNOP".
    fn fragmented(fbs: &mut FbufSystem, a: D) -> Msg {
        let f1 = fbs.alloc(a, AllocMode::Uncached, 8).unwrap();
        let f2 = fbs.alloc(a, AllocMode::Uncached, 8).unwrap();
        fbs.write_fbuf(a, f1, 0, b"ABCDEFGH").unwrap();
        fbs.write_fbuf(a, f2, 0, b"IJKLMNOP").unwrap();
        Msg::from_fbuf(f1, 0, 8).concat(&Msg::from_fbuf(f2, 0, 8))
    }

    #[test]
    fn aligned_units_are_zero_copy() {
        let (mut fbs, a) = setup();
        let msg = fragmented(&mut fbs, a);
        let mut g = Generator::new(msg, 4);
        let mut seen = Vec::new();
        while let Some(u) = g.next_unit(&mut fbs, a).unwrap() {
            assert!(u.is_zero_copy(), "4-byte units never straddle");
            seen.extend(u.bytes(&mut fbs, a).unwrap());
        }
        assert_eq!(seen, b"ABCDEFGHIJKLMNOP");
        assert_eq!(fbs.stats().generator_copies(), 0);
    }

    #[test]
    fn straddling_units_copy_exactly_once_each() {
        let (mut fbs, a) = setup();
        let msg = fragmented(&mut fbs, a);
        // 5-byte units over a 8+8 split: unit [5,10) straddles.
        let mut g = Generator::new(msg, 5);
        let mut copies = 0;
        let mut seen = Vec::new();
        while let Some(u) = g.next_unit(&mut fbs, a).unwrap() {
            if !u.is_zero_copy() {
                copies += 1;
            }
            seen.extend(u.bytes(&mut fbs, a).unwrap());
        }
        assert_eq!(seen, b"ABCDEFGHIJKLMNOP");
        assert_eq!(copies, 1);
        assert_eq!(fbs.stats().generator_copies(), 1);
    }

    #[test]
    fn final_partial_unit() {
        let (mut fbs, a) = setup();
        let msg = fragmented(&mut fbs, a);
        let mut g = Generator::new(msg, 7);
        let mut lens = Vec::new();
        while let Some(u) = g.next_unit(&mut fbs, a).unwrap() {
            lens.push(u.bytes(&mut fbs, a).unwrap().len());
        }
        assert_eq!(lens, vec![7, 7, 2]);
    }

    #[test]
    fn lines_copy_only_straddlers() {
        let (mut fbs, a) = setup();
        let f1 = fbs.alloc(a, AllocMode::Uncached, 8).unwrap();
        let f2 = fbs.alloc(a, AllocMode::Uncached, 8).unwrap();
        fbs.write_fbuf(a, f1, 0, b"ab\ncdef\n").unwrap();
        fbs.write_fbuf(a, f2, 0, b"gh\nij\nkl").unwrap();
        let msg = Msg::from_fbuf(f1, 0, 8).concat(&Msg::from_fbuf(f2, 0, 8));
        let ls = lines(&mut fbs, a, &msg).unwrap();
        let texts: Vec<Vec<u8>> = ls.iter().map(|u| u.bytes(&mut fbs, a).unwrap()).collect();
        assert_eq!(
            texts,
            vec![
                b"ab\n".to_vec(),
                b"cdef\n".to_vec(),
                b"gh\n".to_vec(),
                b"ij\n".to_vec(),
                b"kl".to_vec()
            ]
        );
        // Every line here is inside one fragment: zero copies.
        assert!(ls.iter().all(|u| u.is_zero_copy()));
    }

    #[test]
    fn straddling_line_is_copied() {
        let (mut fbs, a) = setup();
        let f1 = fbs.alloc(a, AllocMode::Uncached, 8).unwrap();
        let f2 = fbs.alloc(a, AllocMode::Uncached, 8).unwrap();
        fbs.write_fbuf(a, f1, 0, b"abcdefgh").unwrap();
        fbs.write_fbuf(a, f2, 0, b"ij\nklmn\n").unwrap();
        let msg = Msg::from_fbuf(f1, 0, 8).concat(&Msg::from_fbuf(f2, 0, 8));
        let ls = lines(&mut fbs, a, &msg).unwrap();
        assert_eq!(ls.len(), 2);
        assert!(!ls[0].is_zero_copy(), "line crosses the fragment boundary");
        assert!(ls[1].is_zero_copy());
        assert_eq!(ls[0].bytes(&mut fbs, a).unwrap(), b"abcdefghij\n");
    }

    #[test]
    #[should_panic(expected = "unit size")]
    fn zero_unit_rejected() {
        Generator::new(Msg::empty(), 0);
    }
}
