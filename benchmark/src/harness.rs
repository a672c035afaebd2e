//! Measurement primitives: a counting allocator, CPU time from
//! schedstat, peak RSS, CPU pinning, order statistics and the seeded
//! input generator's RNG. Nothing here knows about a workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Threads that get a counter lane of their own; later threads share
/// the last lane (a run creates a few dozen: one generator plus the
/// shard workers of each round's hosts).
const LANES: usize = 512;

/// One thread's allocation counters, on its own cache line so the
/// generator and a shard worker never share one.
#[repr(align(64))]
struct Lane {
    allocs: AtomicU64,
    bytes: AtomicU64,
    freed: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array initialiser only
const EMPTY_LANE: Lane = Lane {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    freed: AtomicU64::new(0),
};
static LANES_TABLE: [Lane; LANES] = [EMPTY_LANE; LANES];
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static MY_LANE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_lane() -> usize {
    MY_LANE
        .try_with(|lane| {
            let mut i = lane.get();
            if i == usize::MAX {
                i = NEXT_LANE.fetch_add(1, Ordering::Relaxed).min(LANES - 1);
                lane.set(i);
            }
            i
        })
        // Thread-local storage already torn down: the shared lane.
        .unwrap_or(LANES - 1)
}

/// Adds to a lane counter. A lane has one writer except the shared
/// last one, so the common case is a plain load + store, not a locked
/// read-modify-write.
fn bump(lane: usize, counter: &AtomicU64, n: u64) {
    if lane == LANES - 1 {
        counter.fetch_add(n, Ordering::Relaxed);
    } else {
        counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
}

/// The system allocator with per-thread counts of calls and bytes.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let lane = my_lane();
        bump(lane, &LANES_TABLE[lane].allocs, 1);
        bump(lane, &LANES_TABLE[lane].bytes, layout.size() as u64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let lane = my_lane();
        bump(lane, &LANES_TABLE[lane].freed, layout.size() as u64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let lane = my_lane();
        bump(lane, &LANES_TABLE[lane].allocs, 1);
        bump(lane, &LANES_TABLE[lane].bytes, layout.size() as u64);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // One call, counted as an allocation of the new size and a
        // release of the old.
        let lane = my_lane();
        bump(lane, &LANES_TABLE[lane].allocs, 1);
        bump(lane, &LANES_TABLE[lane].bytes, new_size as u64);
        bump(lane, &LANES_TABLE[lane].freed, layout.size() as u64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls the calling thread has made so far (the one counter
/// the span recorder reads, twice per span).
pub fn thread_allocs() -> u64 {
    LANES_TABLE[my_lane()].allocs.load(Ordering::Relaxed)
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocator calls that handed out memory.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// Bytes given back.
    pub freed: u64,
}

impl AllocCount {
    /// Counters of the calling thread alone.
    pub fn this_thread() -> Self {
        Self::of_lane(my_lane())
    }

    /// Counters of every thread of the process.
    pub fn process() -> Self {
        let used = NEXT_LANE.load(Ordering::Relaxed).min(LANES - 1);
        let mut sum = Self::of_lane(LANES - 1);
        for lane in 0..used {
            let c = Self::of_lane(lane);
            sum.allocs += c.allocs;
            sum.bytes += c.bytes;
            sum.freed += c.freed;
        }
        sum
    }

    fn of_lane(lane: usize) -> Self {
        let l = &LANES_TABLE[lane];
        AllocCount {
            allocs: l.allocs.load(Ordering::Relaxed),
            bytes: l.bytes.load(Ordering::Relaxed),
            freed: l.freed.load(Ordering::Relaxed),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }

    /// Bytes handed out and not yet given back.
    pub fn live_bytes(self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

// ---------------------------------------------------------------------------
// CPU time
// ---------------------------------------------------------------------------

/// On-CPU time and timeslice count of a set of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTime {
    /// Nanoseconds spent running.
    pub run_ns: u64,
    /// Times a thread was put on a CPU (one per wake-up or preemption).
    pub slices: u64,
}

impl CpuTime {
    /// Difference to an earlier reading.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }
}

/// Parses one `schedstat` line: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(text: &str) -> Option<CpuTime> {
    let mut fields = text.split_whitespace();
    let run_ns = fields.next()?.parse().ok()?;
    let _wait_ns: u64 = fields.next()?.parse().ok()?;
    let slices = fields.next()?.parse().ok()?;
    Some(CpuTime { run_ns, slices })
}

/// CPU time of the calling thread; `None` where the kernel does not
/// expose schedstat.
pub fn thread_cpu() -> Option<CpuTime> {
    parse_schedstat(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// CPU time summed over the live threads of this process.
pub fn process_cpu() -> Option<CpuTime> {
    let mut total = CpuTime::default();
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        // A thread that exits mid-scan drops out of the sum; the
        // measured hosts keep their workers alive across the window.
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            let t = parse_schedstat(&text)?;
            total.run_ns += t.run_ns;
            total.slices += t.slices;
        }
    }
    (total.run_ns > 0).then_some(total)
}

/// CPU spent over a window, with the basis it was measured on: process
/// schedstat where available, else the wall clock of the window (which
/// under-counts a second busy thread, hence the flag).
pub struct CpuWindow {
    process: Option<CpuTime>,
    thread: Option<CpuTime>,
}

/// A closed [`CpuWindow`].
#[derive(Debug, Clone, Copy)]
pub struct CpuSpent {
    /// All threads of the process.
    pub process: CpuTime,
    /// The calling (generator) thread alone.
    pub generator: CpuTime,
    /// `"schedstat"` or `"wall"`.
    pub basis: &'static str,
}

impl CpuWindow {
    /// Opens a window on the calling thread.
    pub fn open() -> Self {
        CpuWindow {
            process: process_cpu(),
            thread: thread_cpu(),
        }
    }

    /// Closes it; `wall_ns` is the fallback.
    pub fn close(self, wall_ns: u64) -> CpuSpent {
        match (self.process, process_cpu(), self.thread, thread_cpu()) {
            (Some(p0), Some(p1), Some(t0), Some(t1)) => CpuSpent {
                process: p1.since(p0),
                generator: t1.since(t0),
                basis: "schedstat",
            },
            _ => {
                let wall = CpuTime {
                    run_ns: wall_ns,
                    slices: 0,
                };
                CpuSpent {
                    process: wall,
                    generator: wall,
                    basis: "wall",
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, field)
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

// ---------------------------------------------------------------------------
// Pinning
// ---------------------------------------------------------------------------

extern "C" {
    fn personality(persona: std::ffi::c_ulong) -> i32;
    // glibc's wrappers; `pid` is a thread id, 0 the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `ADDR_NO_RANDOMIZE` in `<sys/personality.h>`.
const ADDR_NO_RANDOMIZE: std::ffi::c_ulong = 0x0004_0000;

/// Makes the address-space layout the same on every run: when ASLR is
/// on, switches it off for this process image's successors and replaces
/// the process with itself (same arguments). Returns whether the layout
/// is now fixed — `false` where `personality(2)` is not permitted, in
/// which case the run goes on with a random layout and says so.
///
/// With a random layout the resident file pages of the binary depend on
/// where fault-around windows fall: `peak_rss_kb` spreads 3-4 % between
/// runs of one binary (0.2-2.5 % fixed), and the timing metrics spread
/// about twice as wide.
pub fn fix_address_space() -> bool {
    static FIXED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FIXED.get_or_init(fix_address_space_once)
}

fn fix_address_space_once() -> bool {
    // SAFETY: `personality` only reads or sets the calling process's
    // execution-domain flags; 0xffffffff queries without changing.
    let current = unsafe { personality(0xffff_ffff) };
    if current < 0 {
        return false;
    }
    let current = current as std::ffi::c_ulong;
    if current & ADDR_NO_RANDOMIZE != 0 {
        return true;
    }
    // SAFETY: as above; sets one more flag.
    if unsafe { personality(current | ADDR_NO_RANDOMIZE) } < 0 {
        return false;
    }
    let Ok(exe) = std::env::current_exe() else {
        return false;
    };
    use std::os::unix::process::CommandExt;
    // Only returns if the exec failed; the flag set above is then
    // harmless and the run continues in this image.
    let _ = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .exec();
    false
}

fn set_affinity(tid: i32, mask: u64) -> bool {
    // SAFETY: `mask` is a valid 8-byte CPU set for the length passed.
    unsafe { sched_setaffinity(tid, 8, &mask) == 0 }
}

/// CPUs the process may run on, read once before anything is pinned
/// (afterwards the generator's own mask would answer instead).
fn allowed_cpus() -> u64 {
    static ALLOWED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *ALLOWED.get_or_init(|| {
        let mut mask = 0u64;
        // SAFETY: `mask` is a valid 8-byte buffer for the length passed.
        if unsafe { sched_getaffinity(0, 8, &mut mask) } != 0 {
            return 0;
        }
        mask
    })
}

/// CPUs available to the run (0 when affinity cannot be read).
pub fn cpu_count() -> u32 {
    allowed_cpus().count_ones()
}

/// How the run's threads were placed; results record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Every thread is pinned to one CPU.
    pub pinned: bool,
    /// Every thread runs under `SCHED_BATCH`.
    pub batch: bool,
}

/// `SCHED_BATCH` in `<sched.h>`.
const SCHED_BATCH: i32 = 3;

/// Pins every thread of the process — the generator and the shard
/// workers of whatever hosts exist — to the first allowed CPU and puts
/// them under `SCHED_BATCH`. Call it after each host is built.
///
/// One CPU for all of them, not one each: on the two-vCPU reference box
/// a worker on a CPU of its own idles between solo requests, and each
/// request then pays ~35 us of hypervisor wake-up (solo p50 40 us
/// against 5 us, of which no line is the program's), while the loaded
/// phase swings with park/unpark timing (loaded_ops_s spread 3-7 % on
/// durable_put). On one CPU a hand-off is a context switch, the numbers
/// are the program's own cost, and the other CPU absorbs the rest of
/// the machine.
///
/// `SCHED_BATCH` because under the default policy a woken thread may or
/// may not preempt the one that woke it, and which regime a process
/// settles into differs from run to run (warm_get's loaded_ops_s then
/// spreads 4 %, with allocations per op moving along). A batch thread
/// is never preempted by a wake-up: each side runs until it blocks, the
/// hand-off pattern is the same on every run (spread 0.8 %, allocation
/// counts repeating to five digits). It needs no privilege.
pub fn settle_threads() -> Placement {
    let mut placement = Placement {
        pinned: false,
        batch: false,
    };
    let allowed = allowed_cpus();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return placement;
    };
    let tids: Vec<i32> = tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
        .collect();
    if tids.is_empty() {
        return placement;
    }
    let cpu = 1u64 << allowed.trailing_zeros().min(63);
    placement.pinned = allowed != 0 && tids.iter().all(|tid| set_affinity(*tid, cpu));
    let priority = 0i32;
    placement.batch = tids.iter().all(|tid| {
        // SAFETY: `priority` is a valid `struct sched_param` (one int),
        // which must be 0 for the batch policy.
        unsafe { sched_setscheduler(*tid, SCHED_BATCH, &priority) == 0 }
    });
    placement
}

/// Restarts the process's peak-RSS watermark (`VmHWM`) at its current
/// RSS, so each round reports a peak of its own. `false` where the
/// kernel does not allow it; the peak is then the process's.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Median of a non-empty slice (sorts a copy).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile (nearest rank) of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // 20000 * 0.999 is 19980.000000000004 in binary floating point; the
    // slack keeps such a product on its own rank.
    let rank = ((sorted.len() as f64) * q - 1e-6).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile with the evidence for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was picked, e.g. `99.9`.
    pub percentile: f64,
    /// Its value.
    pub value: u64,
    /// Samples it was picked from.
    pub samples: usize,
}

/// The highest of p90…p99.99 that still has at least ten samples beyond
/// it, so the figure rests on more than a handful of outliers.
pub fn tail(sorted: &[u64]) -> Tail {
    const CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];
    let n = sorted.len();
    let pick = CANDIDATES
        .iter()
        .copied()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0);
    Tail {
        percentile: pick,
        value: quantile_sorted(sorted, pick / 100.0),
        samples: n,
    }
}

/// Interquartile range over the median, the spread the driver and
/// `compare` judge a metric by (`None` below four values). Matches
/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (at(3) - at(1)).abs() / med.abs())
}

// ---------------------------------------------------------------------------
// Input RNG
// ---------------------------------------------------------------------------

/// splitmix64: the input generator's only source of randomness. The
/// program under test never sees it, only the inputs it made.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    /// A generator for one `--seed`, salted per use so two streams of
    /// one workload do not coincide.
    pub fn new(seed: u64, salt: u64) -> Self {
        InputRng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fills a buffer.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<u64> = (1..=150).collect();
        let t = tail(&few);
        // 150 samples: 1.5 beyond p99, 7.5 beyond p95, 15 beyond p90.
        assert_eq!((t.percentile, t.samples), (90.0, 150));
        assert_eq!(t.value, 135);
        let many: Vec<u64> = (1..=20_000).collect();
        let t = tail(&many);
        // 20 beyond p99.9, only 2 beyond p99.99.
        assert_eq!((t.percentile, t.value, t.samples), (99.9, 19_980, 20_000));
        let lots: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&lots).percentile, 99.99);
        assert_eq!(tail(&[1, 2, 3]).percentile, 50.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
        assert_eq!(iqr_share(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn schedstat_parser_reads_run_time_and_slices() {
        assert_eq!(
            parse_schedstat("841210 73881 17\n"),
            Some(CpuTime {
                run_ns: 841_210,
                slices: 17
            })
        );
        assert_eq!(parse_schedstat("garbage"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn cpu_window_flags_the_wall_fallback() {
        // A window that could not read schedstat reports wall time and
        // says so.
        let w = CpuWindow {
            process: None,
            thread: None,
        };
        let spent = w.close(1234);
        assert_eq!((spent.basis, spent.process.run_ns), ("wall", 1234));
        if process_cpu().is_some() {
            let w = CpuWindow::open();
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            assert_eq!(w.close(0).basis, "schedstat");
        }
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let status = "Name:\tx\nVmHWM:\t    5468 kB\nVmRSS:\t    1792 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(5468));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1792));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn counting_allocator_counts_this_threads_calls() {
        let before = AllocCount::this_thread();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let mid = AllocCount::this_thread().since(before);
        assert_eq!((mid.allocs, mid.bytes, mid.freed), (1, 4096, 0));
        drop(v);
        let after = AllocCount::this_thread().since(before);
        assert_eq!((after.allocs, after.freed), (1, 4096));
        assert_eq!(after.live_bytes(), 0);
        // Another thread's allocations land on its own lane, and in
        // the process total.
        let total = AllocCount::process();
        std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 100_000])))
            .join()
            .unwrap();
        assert!(AllocCount::this_thread().since(before).bytes < 100_000);
        assert!(AllocCount::process().since(total).bytes >= 100_000);
    }

    #[test]
    fn input_rng_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = InputRng::new(seed, 7);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
