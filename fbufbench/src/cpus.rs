//! Moves the benchmark's one thread between the CPUs it may use.
//!
//! On a shared host each CPU's speed depends on what its neighbours run,
//! and that changes over seconds to minutes. A thread left where the
//! scheduler put it measures one CPU's luck for the whole run; rounds
//! that take turns on every allowed CPU sample them all, so the fastest
//! rounds of a run (see [`crate::runner`]) come from whichever CPU was
//! least disturbed. Pinning goes through the C library's
//! `sched_{get,set}affinity`; where it fails, or off Linux, the thread
//! stays where it is.

/// The CPUs this thread may run on, taken at start.
#[derive(Debug, Clone)]
pub struct Cpus {
    ids: Vec<usize>,
    next: usize,
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of the C library: 1024 bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut Mask) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const Mask) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub type Mask = [u64; 16];

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

impl Cpus {
    /// The CPUs the calling thread may use now (none where unknown).
    pub fn allowed() -> Cpus {
        let ids = sys::get().map_or_else(Vec::new, |mask| {
            (0..mask.len() * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        Cpus { ids, next: 0 }
    }

    /// How many CPUs the thread takes turns on.
    pub fn count(&self) -> usize {
        self.ids.len().max(1)
    }

    /// Pins the thread to the next allowed CPU in turn; does nothing with
    /// fewer than two.
    pub fn advance(&mut self) {
        if self.ids.len() < 2 {
            return;
        }
        let cpu = self.ids[self.next % self.ids.len()];
        self.next += 1;
        let mut mask: sys::Mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        if !sys::set(&mask) {
            self.ids.clear();
        }
    }

    /// Lets the thread run on every CPU it was allowed at start again.
    pub fn release(&self) {
        if self.ids.len() < 2 {
            return;
        }
        let mut mask: sys::Mask = [0; 16];
        for &cpu in &self.ids {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        sys::set(&mask);
    }
}
