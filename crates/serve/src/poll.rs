//! A thin, zero-dependency readiness API over Linux `epoll`.
//!
//! The workspace's offline-build invariant rules out `libc`, `mio`, and
//! every async runtime, so the three syscalls the event loop needs —
//! `epoll_create1`, `epoll_ctl`, `epoll_pwait` — are invoked directly
//! with inline assembly. This is the only module in the crate allowed to
//! use `unsafe` (the crate root is `#![deny(unsafe_code)]`), and the
//! unsafety is confined to the raw syscall shims; everything above them
//! is a safe, owned-fd API:
//!
//! * [`Poller::new`] creates the epoll instance (`CLOEXEC`).
//! * [`Poller::add`]/[`modify`](Poller::modify)/[`remove`](Poller::remove)
//!   manage per-fd [`Interest`], each fd tagged with a caller-chosen
//!   `u64` token that comes back in its [`Event`]s.
//! * [`Poller::wait`] blocks (optionally bounded) and fills a buffer of
//!   [`Event`]s. `EINTR` is retried internally with the remaining
//!   timeout, so callers never observe it.
//!
//! Registration is **level-triggered** (the epoll default): a readable
//! fd keeps reporting readable until drained, which lets the event loop
//! process a bounded amount per wake-up without losing edges. Error and
//! hang-up conditions (`EPOLLERR`/`EPOLLHUP`/`EPOLLRDHUP`) are always
//! reported by the kernel regardless of interest and are surfaced as
//! `readable` + `writable` + [`Event::hangup`], so the owning state
//! machine discovers them through its normal read/write path.

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("cachetime-serve's raw epoll shim supports x86_64 and aarch64 only");

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x8_0000;

const EINTR: i32 = 4;

/// Events reported per [`Poller::wait`] call; more simply arrive on the
/// next call (level-triggered registration re-reports pending state).
const WAIT_BATCH: usize = 64;

#[cfg(target_arch = "x86_64")]
mod sys {
    pub const EPOLL_CREATE1: usize = 291;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const CLOSE: usize = 3;

    /// `struct epoll_event`; packed on x86_64 only (kernel ABI quirk).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[allow(unsafe_code)]
    pub unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the caller passes a valid syscall number and arguments;
        // rcx/r11 are clobbered by the `syscall` instruction itself.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(target_arch = "aarch64")]
mod sys {
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const CLOSE: usize = 57;

    /// `struct epoll_event`; natural alignment off x86_64 (4 bytes of
    /// padding between `events` and `data`).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[allow(unsafe_code)]
    pub unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the caller passes a valid syscall number and arguments;
        // the kernel preserves all registers except x0.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack),
            );
        }
        ret
    }
}

/// Converts a raw syscall return into `io::Result` (negative errno → Err).
fn check(ret: isize) -> io::Result<usize> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

#[allow(unsafe_code)]
fn syscall6(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize, a5: usize, a6: usize) -> isize {
    // SAFETY: every call site passes either valid fds/flags or pointers to
    // live stack buffers that outlive the call; the kernel copies, never
    // retains, the pointed-to memory.
    unsafe { sys::syscall6(nr, a1, a2, a3, a4, a5, a6) }
}

/// Which readiness conditions a registration asks for. Error/hang-up are
/// always reported on top, whatever the interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the fd has bytes to read (or the peer half-closed).
    pub readable: bool,
    /// Report when the fd can accept writes.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable — or in an error/hang-up state a read will
    /// surface (`EPOLLERR`/`EPOLLHUP` imply both directions here).
    pub readable: bool,
    /// The fd is writable — or errored, which a write will surface.
    pub writable: bool,
    /// The peer hung up or the fd errored; drain, then expect EOF/error.
    pub hangup: bool,
}

/// An owned epoll instance. See the [module docs](self).
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (`CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The OS's — fd exhaustion, mostly.
    pub fn new() -> io::Result<Poller> {
        let fd = check(syscall6(sys::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0))?;
        Ok(Poller { epfd: fd as RawFd })
    }

    fn ctl(&self, op: usize, fd: RawFd, event: Option<sys::EpollEvent>) -> io::Result<()> {
        // DEL ignores the event, but pre-2.6.9 kernels demanded a non-null
        // pointer, so one is always passed.
        let ev = event.unwrap_or(sys::EpollEvent { events: 0, data: 0 });
        check(syscall6(
            sys::EPOLL_CTL,
            self.epfd as usize,
            op,
            fd as usize,
            (&ev as *const sys::EpollEvent) as usize,
            0,
            0,
        ))
        .map(|_| ())
    }

    /// Registers `fd` with `interest`, tagged `token` (level-triggered).
    ///
    /// # Errors
    ///
    /// `EEXIST` if already registered (use [`modify`](Self::modify)), or
    /// the OS's.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Rewrites an existing registration's interest (and token).
    ///
    /// # Errors
    ///
    /// `ENOENT` if `fd` is not registered, or the OS's.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token,
            }),
        )
    }

    /// Drops `fd`'s registration; pending events for it are discarded.
    ///
    /// # Errors
    ///
    /// `ENOENT` if `fd` is not registered, or the OS's.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Waits for readiness, replacing `out`'s contents with the events
    /// (at most [`WAIT_BATCH`] per call; level-triggering re-reports the
    /// rest). `None` blocks indefinitely; `Some(ZERO)` polls. `EINTR` is
    /// retried with the remaining budget.
    ///
    /// # Errors
    ///
    /// The OS's (never `EINTR`).
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        loop {
            let timeout_ms: isize = match deadline {
                None => -1,
                Some(dl) => {
                    let left = dl.saturating_duration_since(Instant::now());
                    // Round up so a 0.4ms budget polls once with 1ms, not 0.
                    left.as_millis().min(i32::MAX as u128) as isize
                        + if left.subsec_nanos() % 1_000_000 != 0 {
                            1
                        } else {
                            0
                        }
                }
            };
            let ret = syscall6(
                sys::EPOLL_PWAIT,
                self.epfd as usize,
                buf.as_mut_ptr() as usize,
                WAIT_BATCH,
                timeout_ms as usize,
                0, // no sigmask
                0,
            );
            match check(ret) {
                Ok(n) => {
                    for raw in buf.iter().take(n) {
                        // Copy out of the (possibly packed) struct before
                        // touching fields.
                        let ev = *raw;
                        let bits = ev.events;
                        let err = bits & (EPOLLERR | EPOLLHUP) != 0;
                        out.push(Event {
                            token: ev.data,
                            readable: bits & (EPOLLIN | EPOLLRDHUP) != 0 || err,
                            writable: bits & EPOLLOUT != 0 || err,
                            hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                        });
                    }
                    return Ok(());
                }
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        let _ = check(syscall6(sys::CLOSE, self.epfd as usize, 0, 0, 0, 0, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn reports_readable_when_bytes_arrive() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = pair();
        poller.add(rx.as_raw_fd(), 7, Interest::READABLE).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "no bytes yet");

        tx.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].hangup);
    }

    #[test]
    fn level_triggering_re_reports_until_drained() {
        let poller = Poller::new().unwrap();
        let (mut tx, mut rx) = pair();
        poller.add(rx.as_raw_fd(), 1, Interest::READABLE).unwrap();
        tx.write_all(b"xy").unwrap();

        let mut events = Vec::new();
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(events.len(), 1, "undrained fd must re-report");
        }
        let mut buf = [0u8; 8];
        assert_eq!(rx.read(&mut buf).unwrap(), 2);
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained fd must go quiet");
    }

    #[test]
    fn modify_switches_interest_and_remove_silences() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = pair();
        // Write interest on an idle socket: immediately writable.
        poller.add(rx.as_raw_fd(), 2, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));

        // Switch to read interest: quiet until bytes arrive.
        poller
            .modify(rx.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        tx.write_all(b"z").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events[0].token, 3, "modify must retag the fd");

        poller.remove(rx.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "removed fd must not report");
    }

    #[test]
    fn peer_hangup_reports_as_readable_hangup() {
        let poller = Poller::new().unwrap();
        let (tx, rx) = pair();
        poller.add(rx.as_raw_fd(), 9, Interest::READABLE).unwrap();
        drop(tx);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable, "EOF must be discoverable via read");
        assert!(events[0].hangup);
    }

    #[test]
    fn zero_timeout_polls_without_blocking() {
        let poller = Poller::new().unwrap();
        let (_tx, rx) = pair();
        poller.add(rx.as_raw_fd(), 1, Interest::READABLE).unwrap();
        let started = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());
        assert!(started.elapsed() < Duration::from_millis(100));
    }
}
