//! Process CPU time, the clock that parts from wall time exactly when the
//! host preempts the benchmark (or, later, when worker threads spin).
//!
//! There is no `libc` crate offline, so `clock_gettime` is declared here.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_long};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads CLOCK_PROCESS_CPUTIME_ID with Linux's clock id and timespec");

/// `struct timespec` on Linux: both fields are `long` (`time_t` is `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time consumed by all threads of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout the
    // call expects, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
