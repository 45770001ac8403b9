//! Simulated time: the [`Ns`] unit and the accounting [`Clock`].

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span (or instant) of simulated time, in nanoseconds.
///
/// All costs charged by the simulated machine are expressed in `Ns`. The
/// type is a thin wrapper over `u64`; arithmetic saturates on subtraction so
/// interval math never panics in release-mode experiment code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    /// Zero nanoseconds.
    pub const ZERO: Ns = Ns(0);

    /// Constructs a span from whole microseconds.
    pub const fn from_us(us: u64) -> Ns {
        Ns(us * 1_000)
    }

    /// Constructs a span from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Ns {
        Ns(ms * 1_000_000)
    }

    /// Returns this span in (truncated) microseconds.
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns this span as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns this span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Throughput, in megabits per second, of moving `bytes` in this span.
    ///
    /// Returns `f64::INFINITY` for a zero span, matching how the paper's
    /// asymptotic-throughput columns are computed (bits per incremental
    /// cost).
    ///
    /// # Examples
    ///
    /// ```
    /// use fbuf_sim::Ns;
    ///
    /// // Table 1's headline: a 4 KB page every 3 µs is ~10.9 Gb/s.
    /// let mbps = Ns::from_us(3).mbps(4096);
    /// assert!((mbps - 10_922.6).abs() < 1.0);
    /// ```
    pub fn mbps(self, bytes: u64) -> f64 {
        if self.0 == 0 {
            return f64::INFINITY;
        }
        (bytes as f64 * 8.0) / (self.0 as f64 / 1e9) / 1e6
    }
}

impl Add for Ns {
    type Output = Ns;
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Ns {
    fn sub_assign(&mut self, rhs: Ns) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        iter.fold(Ns::ZERO, Add::add)
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Where simulated time went; used to attribute costs in experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CostCategory {
    /// Virtual-memory map and page-table manipulation.
    Vm,
    /// TLB refills and consistency flushes.
    Tlb,
    /// Page clearing (zero-fill) and physical copies.
    DataMove,
    /// Cache-fill stalls charged when touching buffer data.
    DataTouch,
    /// IPC control transfer (trap, context switch, scheduling).
    Ipc,
    /// Protocol processing (headers, checksums, frag/reassembly bookkeeping).
    Protocol,
    /// Device driver and DMA overheads.
    Driver,
    /// Buffer management bookkeeping (free lists, reference counts).
    Alloc,
    /// Anything else.
    Other,
}

impl CostCategory {
    /// All categories, in `repr` order.
    pub const ALL: [CostCategory; 9] = [
        CostCategory::Vm,
        CostCategory::Tlb,
        CostCategory::DataMove,
        CostCategory::DataTouch,
        CostCategory::Ipc,
        CostCategory::Protocol,
        CostCategory::Driver,
        CostCategory::Alloc,
        CostCategory::Other,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            CostCategory::Vm => "vm",
            CostCategory::Tlb => "tlb",
            CostCategory::DataMove => "datamove",
            CostCategory::DataTouch => "datatouch",
            CostCategory::Ipc => "ipc",
            CostCategory::Protocol => "protocol",
            CostCategory::Driver => "driver",
            CostCategory::Alloc => "alloc",
            CostCategory::Other => "other",
        }
    }
}

/// The simulated CPU clock.
///
/// Time advances in two ways:
///
/// * [`Clock::charge`] — the CPU does work for `span` (attributed to a
///   [`CostCategory`]); both elapsed and *busy* time advance.
/// * [`Clock::wait_until`] / [`Clock::idle`] — the CPU idles until an
///   external event (DMA completion, the peer host, the network); elapsed
///   time advances, busy time does not.
///
/// The busy/elapsed split is exactly what the paper's CPU-load measurement
/// reports ("CPU load was derived from the rate of a counter that is updated
/// by a low-priority background thread").
///
/// A `Clock` has one owner, the simulated machine, mirroring the
/// uniprocessor DecStation: the layers above charge it through that
/// owner, and keep a [`ClockMark`] to measure an interval. It cannot be
/// cloned:
///
/// ```compile_fail
/// let clock = fbuf_sim::Clock::new();
/// let alias = clock.clone(); // must not compile: one owner
/// ```
#[derive(Debug, Default)]
pub struct Clock {
    now: Ns,
    busy: Ns,
    by_category: [Ns; CostCategory::ALL.len()],
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> Ns {
        self.now
    }

    /// Total CPU-busy time charged so far.
    pub fn busy(&self) -> Ns {
        self.busy
    }

    /// Total idle (waited) time so far.
    pub fn idle(&self) -> Ns {
        self.now - self.busy
    }

    /// Charges `span` of CPU work attributed to `category`.
    pub fn charge(&mut self, category: CostCategory, span: Ns) {
        self.now += span;
        self.busy += span;
        self.by_category[category as usize] += span;
    }

    /// Idles (without CPU work) for `span`.
    pub fn idle_for(&mut self, span: Ns) {
        self.now += span;
    }

    /// Idles until the instant `t`; no-op if `t` is in the past.
    pub fn wait_until(&mut self, t: Ns) {
        self.now = self.now.max(t);
    }

    /// Time charged to `category` so far.
    pub fn spent_on(&self, category: CostCategory) -> Ns {
        self.by_category[category as usize]
    }

    /// Snapshot of the per-category breakdown.
    pub fn breakdown(&self) -> Vec<(CostCategory, Ns)> {
        CostCategory::ALL
            .iter()
            .map(|&c| (c, self.by_category[c as usize]))
            .collect()
    }

    /// CPU utilization (busy / elapsed) over the clock's whole lifetime.
    ///
    /// Returns 0.0 for a clock that has never advanced: no elapsed time
    /// means no work was measured, and the guard keeps the 0/0 case from
    /// surfacing as NaN in reports.
    pub fn utilization(&self) -> f64 {
        if self.now.0 == 0 {
            return 0.0;
        }
        self.busy.0 as f64 / self.now.0 as f64
    }

    /// Resets the clock to time zero, clearing all accounting.
    pub fn reset(&mut self) {
        *self = Clock::default();
    }
}

/// A point-in-time capture of a [`Clock`], for measuring deltas.
#[derive(Debug, Clone, Copy)]
pub struct ClockMark {
    now: Ns,
    busy: Ns,
}

impl Clock {
    /// Captures the current instant for later [`Clock::since`].
    pub fn mark(&self) -> ClockMark {
        ClockMark {
            now: self.now,
            busy: self.busy,
        }
    }

    /// Elapsed time since `mark`.
    pub fn since(&self, mark: ClockMark) -> Ns {
        self.now() - mark.now
    }

    /// Busy time since `mark`.
    pub fn busy_since(&self, mark: ClockMark) -> Ns {
        self.busy() - mark.busy
    }

    /// CPU utilization (busy / elapsed) since `mark`. Returns 0.0 over
    /// a zero-elapsed interval (never NaN).
    pub fn utilization_since(&self, mark: ClockMark) -> f64 {
        let elapsed = self.since(mark);
        if elapsed.0 == 0 {
            return 0.0;
        }
        self.busy_since(mark).0 as f64 / elapsed.0 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversions() {
        assert_eq!(Ns::from_us(3).as_ns(), 3_000);
        assert_eq!(Ns::from_ms(2).as_us(), 2_000);
        assert_eq!(Ns(1_500).as_us(), 1);
        assert!((Ns(1_500).as_us_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ns_arithmetic_saturates_on_subtraction() {
        assert_eq!(Ns(5) - Ns(10), Ns::ZERO);
        let mut t = Ns(5);
        t -= Ns(10);
        assert_eq!(t, Ns::ZERO);
    }

    #[test]
    fn ns_throughput() {
        // 4096 bytes in 3 us = 10,922.666 Mb/s — the paper's Table 1 anchor.
        let mbps = Ns::from_us(3).mbps(4096);
        assert!((mbps - 10_922.0).abs() < 1.0, "got {mbps}");
        assert!(Ns::ZERO.mbps(1).is_infinite());
    }

    #[test]
    fn ns_display() {
        assert_eq!(Ns(999).to_string(), "999ns");
        assert_eq!(Ns(1_500).to_string(), "1.500us");
        assert_eq!(Ns(2_500_000).to_string(), "2.500ms");
    }

    #[test]
    fn clock_charges_and_categorizes() {
        let mut clock = Clock::new();
        clock.charge(CostCategory::Vm, Ns(100));
        clock.charge(CostCategory::Tlb, Ns(50));
        clock.charge(CostCategory::Vm, Ns(25));
        assert_eq!(clock.now(), Ns(175));
        assert_eq!(clock.busy(), Ns(175));
        assert_eq!(clock.spent_on(CostCategory::Vm), Ns(125));
        assert_eq!(clock.spent_on(CostCategory::Tlb), Ns(50));
        assert_eq!(clock.spent_on(CostCategory::Ipc), Ns::ZERO);
    }

    #[test]
    fn clock_idle_does_not_count_as_busy() {
        let mut clock = Clock::new();
        clock.charge(CostCategory::Driver, Ns(300));
        clock.idle_for(Ns(700));
        assert_eq!(clock.now(), Ns(1_000));
        assert_eq!(clock.busy(), Ns(300));
        assert_eq!(clock.idle(), Ns(700));
        assert!((clock.utilization() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn utilization_over_zero_elapsed_is_zero_not_nan() {
        let mut clock = Clock::new();
        assert_eq!(clock.utilization(), 0.0, "fresh clock");
        let mark = clock.mark();
        let u = clock.utilization_since(mark);
        assert_eq!(u, 0.0, "zero-elapsed interval");
        assert!(!u.is_nan());
        // A real interval afterwards still measures normally.
        clock.charge(CostCategory::Driver, Ns(100));
        assert!((clock.utilization_since(mark) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clock_wait_until_never_rewinds() {
        let mut clock = Clock::new();
        clock.charge(CostCategory::Other, Ns(500));
        clock.wait_until(Ns(400));
        assert_eq!(clock.now(), Ns(500));
        clock.wait_until(Ns(900));
        assert_eq!(clock.now(), Ns(900));
    }

    #[test]
    fn clock_marks_measure_deltas() {
        let mut clock = Clock::new();
        clock.charge(CostCategory::Vm, Ns(100));
        let mark = clock.mark();
        clock.charge(CostCategory::Vm, Ns(40));
        clock.idle_for(Ns(60));
        assert_eq!(clock.since(mark), Ns(100));
        assert_eq!(clock.busy_since(mark), Ns(40));
        assert!((clock.utilization_since(mark) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn clock_reset_clears_everything() {
        let mut clock = Clock::new();
        clock.charge(CostCategory::Vm, Ns(10));
        clock.idle_for(Ns(10));
        clock.reset();
        assert_eq!(clock.now(), Ns::ZERO);
        assert_eq!(clock.busy(), Ns::ZERO);
        assert_eq!(clock.spent_on(CostCategory::Vm), Ns::ZERO);
    }
}
