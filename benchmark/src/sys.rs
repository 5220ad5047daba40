//! The two system calls the standard library does not wrap: an anonymous
//! memory file for the mapped medium and the calling thread's CPU clock.
//! Hand-rolled bindings in the style of `nvm::mmap` (no `libc` crate).

use std::ffi::{c_char, c_int, c_uint};
use std::fs::File;
use std::os::fd::{AsRawFd, FromRawFd};
use std::path::PathBuf;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// An anonymous shared-memory file (`memfd_create`): the same kernel object
/// as a file in `/dev/shm`, but with no name in any file system, so the
/// benchmark leaves nothing outside its checkout. The engine maps it
/// `MAP_SHARED` through `path()` exactly as it maps a named image.
pub struct Memfd {
    file: File,
}

impl Memfd {
    pub fn new() -> std::io::Result<Memfd> {
        // SAFETY: the name is a NUL-terminated static string and flags 0 is
        // valid; the result is checked before it is used as a descriptor.
        let fd = unsafe { memfd_create(c"hyrise-nv-image".as_ptr(), 0) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor nobody else owns.
        Ok(Memfd {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// A path that re-opens this file for as long as `self` lives.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(format!("/proc/self/fd/{}", self.file.as_raw_fd()))
    }
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant every Linux kernel supports.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
