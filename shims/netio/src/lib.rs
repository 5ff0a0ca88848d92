//! Low-level socket plumbing for the ingest server: `SO_REUSEPORT`
//! listener groups and `recvmmsg`/`sendmmsg` syscall batching.
//!
//! This crate lives under `shims/` for the same reason `stats_alloc`
//! does: every other package forbids `unsafe` (the workspace's
//! `unsafe_code = "forbid"` lint), confining it to the shim layer, and
//! everything here that goes beyond what `std::net` exposes — binding N
//! sockets to one port so the kernel's flow hash spreads datagrams
//! across per-core listeners, and draining a socket in one syscall per
//! *batch* instead of one per datagram — needs raw FFI against the libc
//! symbols `std` already links.
//!
//! Two build flavors:
//!
//! * **Linux**: real `socket(2)`/`setsockopt(2)`/`bind(2)` with
//!   `SO_REUSEPORT`, and `recvmmsg(2)`/`sendmmsg(2)` batched IO
//!   (`MSG_WAITFORONE`: block for the first datagram, then take
//!   whatever else is already queued without blocking again).
//! * **Everything else**: a portable fallback — plain `std` binds (the
//!   first group member binds, later members fail over to
//!   `try_clone`-sharing at the caller's discretion) and a one-datagram
//!   `recv`/`send` loop. Semantics match; only the syscall count and
//!   the kernel-side load spreading differ.
//!
//! Blocking behavior is inherited from the socket: callers set a read
//! timeout (`UdpSocket::set_read_timeout`) and [`recv_batch`] reports a
//! quiet interval as `Ok(0)`, so listener loops stay responsive to
//! their stop flag without busy-polling.

use std::io;
use std::net::{SocketAddr, TcpListener, UdpSocket};

/// Largest datagram a [`Frame`] can hold. Telemetry datagrams are far
/// smaller (an sFlow datagram with 32 samples is under 1 KiB); anything
/// larger is truncated on receive and rejected by the decoder as
/// malformed, which is the correct fate for an oversized datagram.
pub const MAX_DATAGRAM: usize = 2048;

/// Most datagrams one [`recv_batch`] / [`send_batch`] call moves. The
/// scratch `iovec`/`mmsghdr` arrays live on the stack, so this bounds
/// their size (64 × ~64 B ≈ 4 KiB — cheap, and deep enough that the
/// per-syscall overhead amortizes to noise).
pub const MAX_BATCH: usize = 64;

/// One receive slot: a fixed buffer plus the length of the datagram the
/// last [`recv_batch`] call parked in it. Allocated once per listener
/// and reused forever — the receive hot loop never touches the heap.
#[derive(Clone)]
pub struct Frame {
    pub buf: [u8; MAX_DATAGRAM],
    pub len: usize,
}

impl Frame {
    pub fn new() -> Self {
        Self {
            buf: [0u8; MAX_DATAGRAM],
            len: 0,
        }
    }

    /// The datagram bytes received into this frame.
    pub fn payload(&self) -> &[u8] {
        &self.buf[..self.len.min(MAX_DATAGRAM)]
    }
}

impl Default for Frame {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frame {{ len: {} }}", self.len)
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw Linux FFI. Struct layouts follow the LP64 `asm-generic` ABI
    //! shared by x86_64 and aarch64.

    use std::io;
    use std::mem::size_of;
    use std::net::{SocketAddr, SocketAddrV4, TcpListener, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd};

    use super::{Frame, MAX_BATCH};

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *mut core::ffi::c_void,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut core::ffi::c_void,
        controllen: usize,
        flags: i32,
    }

    #[repr(C)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        /// Big-endian port.
        port: u16,
        /// Big-endian address.
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut core::ffi::c_void,
        ) -> i32;
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    }

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_DGRAM: i32 = 2;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;
    /// Block for the first datagram only; take the rest non-blocking.
    const MSG_WAITFORONE: i32 = 0x10000;

    fn v4_of(addr: SocketAddr) -> io::Result<SocketAddrV4> {
        match addr {
            SocketAddr::V4(v4) => Ok(v4),
            SocketAddr::V6(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "reuseport listener groups support IPv4 only",
            )),
        }
    }

    /// socket + SO_REUSEADDR + SO_REUSEPORT + bind, returning the raw fd.
    fn bound_fd(addr: SocketAddrV4, ty: i32) -> io::Result<i32> {
        // SAFETY: plain syscall; no pointers involved.
        let fd = unsafe { socket(AF_INET, ty, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let one: i32 = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: `one` outlives the call and the length matches it.
            let rc = unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    (&one as *const i32).cast(),
                    size_of::<i32>() as u32,
                )
            };
            if rc != 0 {
                let err = io::Error::last_os_error();
                // SAFETY: fd came from `socket` above and is not yet
                // owned by any std type.
                unsafe { close(fd) };
                return Err(err);
            }
        }
        let sa = SockAddrIn {
            family: AF_INET as u16,
            port: addr.port().to_be(),
            addr: u32::from(*addr.ip()).to_be(),
            zero: [0u8; 8],
        };
        // SAFETY: `sa` is a valid sockaddr_in and the length matches it.
        let rc = unsafe { bind(fd, &sa, size_of::<SockAddrIn>() as u32) };
        if rc != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: fd came from `socket` above; nothing else owns it.
            unsafe { close(fd) };
            return Err(err);
        }
        Ok(fd)
    }

    pub fn bind_udp_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let fd = bound_fd(v4_of(addr)?, SOCK_DGRAM)?;
        // SAFETY: `fd` is a freshly bound UDP socket owned by no one
        // else; ownership transfers to the returned UdpSocket.
        Ok(unsafe { UdpSocket::from_raw_fd(fd) })
    }

    pub fn bind_tcp_reuseport(addr: SocketAddr, backlog: u32) -> io::Result<TcpListener> {
        let fd = bound_fd(v4_of(addr)?, SOCK_STREAM)?;
        // SAFETY: plain syscall on the fd we own.
        let rc = unsafe { listen(fd, backlog.min(i32::MAX as u32) as i32) };
        if rc != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: fd came from `bound_fd`; nothing else owns it.
            unsafe { close(fd) };
            return Err(err);
        }
        // SAFETY: `fd` is a freshly bound+listening TCP socket owned by
        // no one else; ownership transfers to the returned TcpListener.
        Ok(unsafe { TcpListener::from_raw_fd(fd) })
    }

    pub fn recv_batch(sock: &UdpSocket, frames: &mut [Frame]) -> io::Result<usize> {
        let n = frames.len().min(MAX_BATCH);
        if n == 0 {
            return Ok(0);
        }
        let mut iovs: [IoVec; MAX_BATCH] = std::array::from_fn(|_| IoVec {
            base: std::ptr::null_mut(),
            len: 0,
        });
        let mut hdrs: [MMsgHdr; MAX_BATCH] = std::array::from_fn(|_| MMsgHdr {
            hdr: MsgHdr {
                name: std::ptr::null_mut(),
                namelen: 0,
                iov: std::ptr::null_mut(),
                iovlen: 0,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        });
        for (i, frame) in frames.iter_mut().take(n).enumerate() {
            iovs[i].base = frame.buf.as_mut_ptr();
            iovs[i].len = frame.buf.len();
            hdrs[i].hdr.iov = &mut iovs[i];
            hdrs[i].hdr.iovlen = 1;
            hdrs[i].len = 0;
        }
        // The null timeout is the documented "no timeout" form; the
        // socket's SO_RCVTIMEO still bounds the first blocking receive.
        // SAFETY: `hdrs[..n]` point at iovecs that point into `frames`,
        // all of which outlive the call; vlen == n bounds kernel writes.
        let got = unsafe {
            recvmmsg(
                sock.as_raw_fd(),
                hdrs.as_mut_ptr(),
                n as u32,
                MSG_WAITFORONE,
                std::ptr::null_mut(),
            )
        };
        if got < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Ok(0),
                _ => Err(err),
            };
        }
        let got = got as usize;
        for (frame, hdr) in frames.iter_mut().zip(hdrs.iter()).take(got) {
            frame.len = hdr.len as usize;
        }
        Ok(got)
    }

    pub fn send_batch(sock: &UdpSocket, payloads: &[&[u8]]) -> io::Result<usize> {
        let n = payloads.len().min(MAX_BATCH);
        if n == 0 {
            return Ok(0);
        }
        let mut iovs: [IoVec; MAX_BATCH] = std::array::from_fn(|_| IoVec {
            base: std::ptr::null_mut(),
            len: 0,
        });
        let mut hdrs: [MMsgHdr; MAX_BATCH] = std::array::from_fn(|_| MMsgHdr {
            hdr: MsgHdr {
                name: std::ptr::null_mut(),
                namelen: 0,
                iov: std::ptr::null_mut(),
                iovlen: 0,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        });
        for (i, payload) in payloads.iter().take(n).enumerate() {
            // The kernel never writes through a send iovec; the cast is
            // an artifact of sharing one iovec struct for both calls.
            iovs[i].base = payload.as_ptr().cast_mut();
            iovs[i].len = payload.len();
            hdrs[i].hdr.iov = &mut iovs[i];
            hdrs[i].hdr.iovlen = 1;
        }
        // The socket is connected, so the null msg_name is valid.
        // SAFETY: `hdrs[..n]` reference iovecs over caller-owned
        // payload slices that outlive the call.
        let sent = unsafe { sendmmsg(sock.as_raw_fd(), hdrs.as_mut_ptr(), n as u32, 0) };
        if sent < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(sent as usize)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable fallback: std-only, one datagram per syscall, no
    //! kernel-side group spreading.

    use std::io;
    use std::net::{SocketAddr, TcpListener, UdpSocket};

    use super::Frame;

    pub fn bind_udp_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        UdpSocket::bind(addr)
    }

    pub fn bind_tcp_reuseport(addr: SocketAddr, _backlog: u32) -> io::Result<TcpListener> {
        TcpListener::bind(addr)
    }

    pub fn recv_batch(sock: &UdpSocket, frames: &mut [Frame]) -> io::Result<usize> {
        let Some(frame) = frames.first_mut() else {
            return Ok(0);
        };
        match sock.recv(&mut frame.buf) {
            Ok(len) => {
                frame.len = len;
                Ok(1)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }

    pub fn send_batch(sock: &UdpSocket, payloads: &[&[u8]]) -> io::Result<usize> {
        let mut sent = 0usize;
        for payload in payloads {
            sock.send(payload)?;
            sent += 1;
        }
        Ok(sent)
    }
}

/// Bind one member of a UDP listener group: every member binds the same
/// address/port with `SO_REUSEPORT`, and the kernel spreads incoming
/// datagrams across the group by flow hash. Call once per listener
/// thread. IPv4 only on the raw path.
pub fn bind_udp_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    sys::bind_udp_reuseport(addr)
}

/// Bind one member of a TCP accept group (`SO_REUSEPORT` listening
/// sockets on one port — the kernel load-balances incoming connections
/// across the group, actix-server style).
pub fn bind_tcp_reuseport(addr: SocketAddr, backlog: u32) -> io::Result<TcpListener> {
    sys::bind_tcp_reuseport(addr, backlog)
}

/// Drain up to `frames.len().min(MAX_BATCH)` datagrams in (at most) one
/// syscall. Blocks for the first datagram — bounded by the socket's
/// read timeout, a quiet interval returns `Ok(0)` — then takes whatever
/// else is already queued without blocking again.
pub fn recv_batch(sock: &UdpSocket, frames: &mut [Frame]) -> io::Result<usize> {
    sys::recv_batch(sock, frames)
}

/// Send up to `payloads.len().min(MAX_BATCH)` datagrams on a *connected*
/// UDP socket in one syscall; returns how many the kernel accepted.
pub fn send_batch(sock: &UdpSocket, payloads: &[&[u8]]) -> io::Result<usize> {
    sys::send_batch(sock, payloads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
    use std::time::Duration;

    fn loopback(port: u16) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
    }

    #[test]
    fn udp_group_shares_a_port_and_loses_nothing() {
        let a = bind_udp_reuseport(loopback(0)).expect("first bind");
        let port = a.local_addr().unwrap().port();
        let b = bind_udp_reuseport(loopback(port));
        // On the portable fallback the second bind may fail; the group
        // then degrades to a single socket.
        let group: Vec<UdpSocket> = match b {
            Ok(b) => vec![a, b],
            Err(_) => vec![a],
        };
        // Many distinct source ports => the kernel's flow hash spreads
        // datagrams across the group.
        const SENDERS: usize = 32;
        for i in 0..SENDERS {
            let tx = UdpSocket::bind(loopback(0)).unwrap();
            tx.send_to(&[i as u8; 16], loopback(port)).unwrap();
        }
        let mut got = 0usize;
        let mut frames = vec![Frame::new(); 8];
        for sock in &group {
            sock.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            loop {
                let n = recv_batch(sock, &mut frames).expect("recv");
                if n == 0 {
                    break;
                }
                for f in &frames[..n] {
                    assert_eq!(f.payload().len(), 16);
                }
                got += n;
            }
        }
        assert_eq!(got, SENDERS, "every datagram lands on some group member");
    }

    #[test]
    fn send_batch_roundtrips_on_a_connected_socket() {
        let rx = bind_udp_reuseport(loopback(0)).unwrap();
        let port = rx.local_addr().unwrap().port();
        let tx = UdpSocket::bind(loopback(0)).unwrap();
        tx.connect(loopback(port)).unwrap();

        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 3 + i as usize]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let sent = send_batch(&tx, &refs).unwrap();
        assert_eq!(sent, 10);

        rx.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut frames = vec![Frame::new(); 16];
        let mut got = 0;
        while got < 10 {
            let n = recv_batch(&rx, &mut frames).unwrap();
            assert!(n > 0, "expected more datagrams");
            got += n;
        }
        assert_eq!(got, 10);
    }

    #[test]
    fn quiet_socket_times_out_to_zero() {
        let rx = bind_udp_reuseport(loopback(0)).unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut frames = vec![Frame::new(); 4];
        assert_eq!(recv_batch(&rx, &mut frames).unwrap(), 0);
    }

    #[test]
    fn tcp_group_accepts_connections() {
        let l = bind_tcp_reuseport(loopback(0), 16).unwrap();
        let port = l.local_addr().unwrap().port();
        let _second = bind_tcp_reuseport(loopback(port), 16).ok();
        let tx = std::net::TcpStream::connect(loopback(port)).unwrap();
        drop(tx);
    }

    #[test]
    fn oversized_datagrams_truncate_into_the_frame() {
        let rx = bind_udp_reuseport(loopback(0)).unwrap();
        let port = rx.local_addr().unwrap().port();
        let tx = UdpSocket::bind(loopback(0)).unwrap();
        tx.send_to(&vec![0xAB; MAX_DATAGRAM + 512], loopback(port))
            .unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut frames = vec![Frame::new(); 1];
        let n = recv_batch(&rx, &mut frames).unwrap();
        assert_eq!(n, 1);
        assert!(frames[0].payload().len() <= MAX_DATAGRAM);
    }
}
