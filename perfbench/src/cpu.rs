//! Compute-bound timings at a reference speed.
//!
//! On a shared host the speed of memory-touching code drifts: the same
//! simulator repetition took 185 to 290 ns per tick in back-to-back runs
//! on a 2-vCPU Xeon VM, in thread CPU time as much as in wall time, so
//! the drift is not time taken away from the thread but each instruction
//! running slower (a tight arithmetic loop stayed within 2%). Such
//! timings are therefore taken in thread CPU time and divided by the CPU
//! time of a fixed [`reference_kernel`] run right next to them; over
//! eight back-to-back runs whose raw times spread from 189 to 229 ns per
//! tick, the ratio stayed within 2%. [`at_reference`] scales the ratio back
//! to nanoseconds on a host where the kernel takes [`REFERENCE_NS`].
//!
//! The kernel is the benchmark's own code, so a change to the program
//! cannot speed it up or slow it down.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, ns.
pub fn thread_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Reference-kernel CPU time, ns, on the host the benchmark was written
/// on (2-vCPU Xeon VM, quiet), rounded.
pub const REFERENCE_NS: f64 = 6.0e6;

/// A fixed, deterministic kernel with the simulator's kind of work:
/// ordered maps with tuple keys, hash maps of strings, a queue, string
/// formatting, a sort by compound key, small allocations, about
/// [`REFERENCE_NS`] long. A kernel of map updates and an integer sort
/// alone tracked the simulator's slow-downs only half as well: the
/// simulator's code is larger, and so is its exposure to a busy host.
/// Returns the kernel's own CPU time, ns.
pub fn reference_kernel() -> u64 {
    let start = thread_ns();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut checksum = 0u64;
    for _ in 0..6 {
        let mut tree: BTreeMap<(u32, u64), Vec<u32>> = BTreeMap::new();
        let mut names: HashMap<u64, String> = HashMap::new();
        let mut queue: VecDeque<(u64, u32)> = VecDeque::new();
        let mut rows: Vec<(u32, u64, bool)> = Vec::new();
        let mut text = String::new();
        for i in 0..3000u32 {
            let k = next();
            tree.entry(((k % 97) as u32, k % 13)).or_default().push(i);
            if k % 5 == 0 {
                tree.remove(&((((k >> 8) % 97) as u32), (k >> 16) % 13));
            }
            text.clear();
            let _ = write!(text, "{i}-{:x}", k % 100_000);
            names.insert(k % 1024, text.clone());
            queue.push_back((k, i));
            if queue.len() > 64 {
                let (a, b) = queue.pop_front().expect("queue is not empty");
                checksum = checksum.wrapping_add(a ^ u64::from(b));
            }
            rows.push(((k % 1000) as u32, k, k % 2 == 0));
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        checksum = checksum
            .wrapping_add(tree.len() as u64)
            .wrapping_add(names.values().map(|s| s.len() as u64).sum::<u64>())
            .wrapping_add(rows[rows.len() / 3].1);
    }
    std::hint::black_box(checksum);
    thread_ns() - start
}

/// `cpu_ns` of work measured next to a reference-kernel run of
/// `reference_ns`, in nanoseconds at the reference speed.
pub fn at_reference(cpu_ns: u64, reference_ns: u64) -> f64 {
    cpu_ns as f64 * REFERENCE_NS / reference_ns.max(1) as f64
}
