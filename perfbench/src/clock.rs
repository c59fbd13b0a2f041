//! The clocks the benchmark times work with.
//!
//! The sweep and evaluate workloads time their work on the process's CPU
//! clock (`CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, user
//! and system time). On a shared virtual machine the hypervisor takes the
//! vCPU away for stretches of a run (steal time); a wall clock counts
//! those stretches as the program's time, a CPU clock does not. On a
//! 2-vCPU VM, 40 repetitions of a fixed ~150 ms loop read 148–290 ms on
//! the wall clock and 147–175 ms on the CPU clock. Summing every thread
//! keeps work moved onto another thread from reading as a saving.
//!
//! Reading the CPU clock is a system call, not a vDSO read, so timings of
//! sub-microsecond operations (the engine replay's per-step times) and of
//! work spread over processes (the serve workloads) stay on the wall clock.

use std::os::raw::{c_int, c_long};
use std::sync::OnceLock;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux clock id of the calling process's CPU time.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// A clock read as seconds since a fixed origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Monotonic wall time.
    Wall,
    /// CPU time of the process: all threads, user + system.
    ProcessCpu,
}

impl Clock {
    /// Seconds since the clock's origin.
    pub fn now(self) -> f64 {
        match self {
            Clock::Wall => {
                static ORIGIN: OnceLock<Instant> = OnceLock::new();
                ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
            }
            Clock::ProcessCpu => {
                let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
                // SAFETY: `ts` is a valid, writable timespec and the clock
                // id is a constant Linux defines for every process.
                let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
                assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
                ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
            }
        }
    }

    /// Start timing on this clock.
    pub fn start(self) -> Stopwatch {
        Stopwatch { clock: self, start: self.now() }
    }
}

/// Time elapsed on one clock since [`Clock::start`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    clock: Clock,
    start: f64,
}

impl Stopwatch {
    /// Seconds elapsed since the stopwatch started.
    pub fn elapsed_s(&self) -> f64 {
        self.clock.now() - self.start
    }
}

/// Start timing on the process's CPU clock.
pub fn cpu() -> Stopwatch {
    Clock::ProcessCpu.start()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_work() {
        let busy = cpu();
        let wall = Clock::Wall.start();
        let mut x = 0u64;
        while wall.elapsed_s() < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let worked = busy.elapsed_s();
        assert!(worked > 0.02, "50 ms of spinning read {worked} s of CPU");
    }

    #[test]
    fn clocks_are_monotonic() {
        for clock in [Clock::Wall, Clock::ProcessCpu] {
            let a = clock.now();
            let b = clock.now();
            assert!(b >= a, "{clock:?} went back from {a} to {b}");
        }
    }
}
