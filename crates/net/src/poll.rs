//! Public readiness polling over raw file descriptors.
//!
//! The batched UDP datapath waits on its two sockets with `ppoll(2)`
//! (see `crate::sys`). The client service tier (`ar-svc`) has the same
//! problem at a different scale: one thread multiplexing thousands of
//! client sockets plus a couple of listeners. This module exposes that
//! ppoll loop as a reusable [`PollSet`]: register any `AsRawFd`
//! descriptors, wait once, inspect per-descriptor readability.
//!
//! Work that arrives on an in-process channel has no descriptor to
//! poll. A [`Waker`] gives it one: a self-pipe whose read end is
//! registered like a socket, so another thread ends the wait by calling
//! [`Waker::wake`] after it queues the work. Wakes are coalesced: only
//! the first one after a [`Waker::reset`] writes a byte.
//!
//! The lost-wake-up rule: the waiting thread calls `reset` *before* it
//! drains the channels, and a producer queues its work *before* it
//! calls `wake`. Work queued after the drain then finds the flag clear
//! and writes a byte the next wait sees; work queued before the reset
//! is seen by the drain that follows it.
//!
//! On non-Linux targets (where `crate::sys` is not compiled) the set
//! degrades to a bounded sleep that reports every descriptor as
//! possibly-readable; callers use non-blocking reads anyway, so the
//! fallback costs spurious wakeups, not correctness.

use std::io;
#[cfg(unix)]
use std::io::{Read, Write};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A reusable set of descriptors polled for readability.
///
/// The intended pattern is rebuild-per-iteration (registration is just
/// a `Vec` push, far cheaper than a syscall):
///
/// ```ignore
/// let mut set = PollSet::new();
/// loop {
///     set.clear();
///     let listener_slot = set.register(listener.as_raw_fd());
///     let slots: Vec<usize> = conns.iter().map(|c| set.register(c.fd())).collect();
///     set.wait(Duration::from_millis(5))?;
///     if set.is_readable(listener_slot) { /* accept */ }
///     for (i, slot) in slots.iter().enumerate() {
///         if set.is_readable(*slot) { /* read conns[i] */ }
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct PollSet {
    #[cfg(target_os = "linux")]
    fds: Vec<crate::sys::PollFd>,
    #[cfg(not(target_os = "linux"))]
    len: usize,
}

impl PollSet {
    /// Creates an empty set.
    pub fn new() -> PollSet {
        PollSet::default()
    }

    /// Removes every registered descriptor (capacity is kept).
    pub fn clear(&mut self) {
        #[cfg(target_os = "linux")]
        self.fds.clear();
        #[cfg(not(target_os = "linux"))]
        {
            self.len = 0;
        }
    }

    /// Registers a descriptor for readability and returns its slot
    /// index (valid until the next [`clear`](PollSet::clear)).
    pub fn register(&mut self, fd: i32) -> usize {
        #[cfg(target_os = "linux")]
        {
            self.fds.push(crate::sys::PollFd {
                fd,
                events: crate::sys::POLLIN,
                revents: 0,
            });
            self.fds.len() - 1
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = fd;
            self.len += 1;
            self.len - 1
        }
    }

    /// Number of registered descriptors.
    pub fn len(&self) -> usize {
        #[cfg(target_os = "linux")]
        {
            self.fds.len()
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.len
        }
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Waits until some registered descriptor is readable (or has an
    /// error/hangup pending) or `timeout` elapses. Returns `true` when
    /// at least one slot needs attention.
    ///
    /// # Errors
    ///
    /// Propagates the kernel error (`EINTR` is retried internally).
    pub fn wait(&mut self, timeout: Duration) -> io::Result<bool> {
        #[cfg(target_os = "linux")]
        {
            if self.fds.is_empty() {
                std::thread::sleep(timeout);
                return Ok(false);
            }
            crate::sys::poll_readable(&mut self.fds, timeout)
        }
        #[cfg(not(target_os = "linux"))]
        {
            // Portable fallback: bounded sleep; every descriptor then
            // reports readable and the caller's non-blocking reads sort
            // out which ones actually have data.
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            Ok(self.len > 0)
        }
    }

    /// True when the slot returned by [`register`](PollSet::register)
    /// was readable (or hung up / errored — states a read will
    /// surface) at the last [`wait`](PollSet::wait).
    pub fn is_readable(&self, slot: usize) -> bool {
        #[cfg(target_os = "linux")]
        {
            self.fds.get(slot).is_some_and(|fd| fd.revents != 0)
        }
        #[cfg(not(target_os = "linux"))]
        {
            slot < self.len
        }
    }
}

/// A cross-thread wake-up for a [`PollSet`] wait: a non-blocking
/// self-pipe whose read end ([`fd`](Waker::fd)) is registered in the
/// set. See the module docs for the lost-wake-up rule.
#[derive(Debug)]
pub struct Waker {
    #[cfg(unix)]
    rx: UnixStream,
    #[cfg(unix)]
    tx: UnixStream,
    /// Set by the first `wake` after a `reset`; later wakes see it set
    /// and skip the write, so a burst costs one byte.
    pending: AtomicBool,
}

impl Waker {
    /// Creates an unsignalled waker.
    ///
    /// # Errors
    ///
    /// Propagates the error from creating the socket pair.
    pub fn new() -> io::Result<Waker> {
        #[cfg(unix)]
        {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Waker {
                rx,
                tx,
                pending: AtomicBool::new(false),
            })
        }
        #[cfg(not(unix))]
        {
            Ok(Waker {
                pending: AtomicBool::new(false),
            })
        }
    }

    /// Makes the read end readable, unless a wake since the last
    /// [`reset`](Waker::reset) already did. Queue the work first.
    pub fn wake(&self) {
        // AcqRel: the Release half publishes the caller's queued work
        // to the `reset` that clears this flag.
        if !self.pending.swap(true, Ordering::AcqRel) {
            #[cfg(unix)]
            {
                // WouldBlock means the pipe already holds unread bytes,
                // which is all a wake needs.
                let _ = (&self.tx).write(&[1]);
            }
        }
    }

    /// Drains the pipe, then re-arms the waker so the next
    /// [`wake`](Waker::wake) writes again. Call it before draining
    /// the work the wakes announce.
    pub fn reset(&self) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            loop {
                match (&self.rx).read(&mut buf) {
                    Ok(n) if n > 0 => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    _ => break,
                }
            }
        }
        // Drained before cleared: clearing first would let a wake in
        // between write a byte that the drain then swallows, leaving
        // the flag set with nothing to read. AcqRel pairs with `wake`.
        self.pending.swap(false, Ordering::AcqRel);
    }

    /// The read end, for [`PollSet::register`] (`-1` off Unix, where
    /// the set's fallback sleep bounds every wait anyway).
    pub fn fd(&self) -> i32 {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            self.rx.as_raw_fd()
        }
        #[cfg(not(unix))]
        {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;
    use std::sync::Arc;

    const LONG: Duration = Duration::from_secs(10);

    /// Waits once on the waker alone; returns (woke, slot readable).
    fn wait_on(waker: &Waker) -> (bool, bool) {
        let mut set = PollSet::new();
        let slot = set.register(waker.fd());
        let woke = set.wait(LONG).unwrap();
        (woke, set.is_readable(slot))
    }

    #[test]
    fn wake_from_another_thread_ends_the_wait() {
        let waker = Arc::new(Waker::new().unwrap());
        let remote = Arc::clone(&waker);
        let t = std::thread::spawn(move || remote.wake());
        assert_eq!(wait_on(&waker), (true, true));
        t.join().unwrap();
    }

    #[test]
    fn wake_before_the_wait_is_not_lost() {
        let waker = Waker::new().unwrap();
        waker.wake();
        assert_eq!(wait_on(&waker), (true, true));
    }

    #[test]
    fn wakes_coalesce_and_reset_rearms() {
        let waker = Waker::new().unwrap();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut buf = [0u8; 2048];
        let pending = (&waker.rx).read(&mut buf).unwrap();
        assert_eq!(pending, 1, "1000 wakes left {pending} bytes");
        // The flag is still set: without a reset, a wake writes nothing.
        waker.wake();
        assert!((&waker.rx).read(&mut buf).is_err(), "pipe stays empty");
        waker.reset();
        waker.wake();
        assert_eq!(wait_on(&waker), (true, true));
        waker.reset();
        assert!(
            (&waker.rx).read(&mut buf).is_err(),
            "reset drained the pipe"
        );
    }

    #[test]
    fn empty_set_times_out() {
        let mut set = PollSet::new();
        let start = std::time::Instant::now();
        assert!(!set.wait(Duration::from_millis(20)).unwrap());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn readable_socket_is_flagged() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let idle = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"ping", rx.local_addr().unwrap()).unwrap();

        let mut set = PollSet::new();
        let rx_slot = set.register(rx.as_raw_fd());
        let idle_slot = set.register(idle.as_raw_fd());
        assert_eq!(set.len(), 2);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut ready = false;
        while !ready && std::time::Instant::now() < deadline {
            ready = set.wait(Duration::from_millis(50)).unwrap();
        }
        assert!(ready);
        assert!(set.is_readable(rx_slot));
        #[cfg(target_os = "linux")]
        assert!(!set.is_readable(idle_slot), "idle socket not flagged");
        let _ = idle_slot;

        set.clear();
        assert!(set.is_empty());
    }
}
