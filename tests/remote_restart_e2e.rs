//! End-to-end test of remote-client recovery: a TCP client survives
//! its daemon (and the daemon's service tier) being shut down and
//! restarted on the same port. The client transparently redials with
//! bounded backoff and presents its resume token; the restarted
//! daemon has no such session, so the client starts a fresh one and
//! re-joins its groups. The restarted daemon (a fresh singleton
//! incarnation) merges back into the ring through the membership
//! protocol.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::{spawn_daemon, spawn_daemon_with, DaemonConfig, DaemonLogConfig};
use accelerated_ring::log::{read_log_dir, FsyncPolicy};
use accelerated_ring::net::LoopbackNet;
use accelerated_ring::svc::{serve_clients, SvcClient, SvcConfig, SvcEvent, SvcListeners};
use bytes::Bytes;

fn wait_for<F: FnMut() -> bool>(mut f: F, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn tcp_on(addr: SocketAddr) -> SvcListeners {
    SvcListeners {
        tcp: Some(addr),
        uds: None,
    }
}

#[test]
fn tcp_client_survives_daemon_restart() {
    restart_roundtrip(false);
}

/// Same scenario with the restarted daemon journalling to a durable
/// log across both incarnations: recovery replays the first
/// incarnation's stream and the merged ring still re-forms.
#[test]
fn tcp_client_survives_durable_daemon_restart() {
    restart_roundtrip(true);
}

fn restart_roundtrip(durable: bool) {
    let log_dir = std::env::temp_dir().join(format!(
        "ar-remote-restart-{}-{durable}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&log_dir);
    let d0_config = || {
        let mut config = DaemonConfig::default();
        if durable {
            config.log = Some(DaemonLogConfig::new(&log_dir).with_fsync(FsyncPolicy::EveryN(8)));
        }
        config
    };
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    let mk = |p: ParticipantId| {
        Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone()).unwrap()
    };
    let d0 = spawn_daemon_with(mk(members[0]), net.endpoint(members[0]), d0_config());
    let d1 = spawn_daemon(mk(members[1]), net.endpoint(members[1]));
    let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let s0 = serve_clients(&d0, tcp_on(any), SvcConfig::default()).expect("serve d0");
    let s1 = serve_clients(&d1, tcp_on(any), SvcConfig::default()).expect("serve d1");
    let addr0 = s0.tcp_addr().unwrap();

    let mut alice = SvcClient::connect_tcp(addr0, "alice").expect("connect alice");
    let mut bob = SvcClient::connect_tcp(s1.tcp_addr().unwrap(), "bob").expect("connect bob");
    alice.join("room").unwrap();
    bob.join("room").unwrap();
    let (mut na, mut nb) = (0, 0);
    assert!(
        wait_for(
            || {
                for ev in alice.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        na = members.len();
                    }
                }
                for ev in bob.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        nb = members.len();
                    }
                }
                na == 2 && nb == 2
            },
            20
        ),
        "initial 2-member group"
    );

    // Kill alice's daemon. A crash takes the link down with it, and a
    // graceful service-tier stop would instead evict alice (a terminal
    // event), so cut her socket first and let the server notice.
    // Then the shutdown frees the port, the daemon drains and exits,
    // and the surviving daemon reconfigures.
    assert_eq!(s0.stats().connected.get(), 1, "alice is d0's only client");
    alice.sever();
    assert!(
        wait_for(|| s0.stats().connected.get() == 0, 20),
        "service tier notices the dead link"
    );
    s0.shutdown().expect("clean service-tier shutdown");
    d0.shutdown().expect("clean shutdown");
    net.detach(members[0]);

    // The surviving side sees alice leave when its daemon installs the
    // shrunken configuration.
    let mut n = usize::MAX;
    assert!(
        wait_for(
            || {
                for ev in bob.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        n = members.len();
                    }
                }
                n == 1
            },
            20
        ),
        "surviving daemon drops the dead daemon's client"
    );

    // Restart on the same port as a fresh singleton incarnation; the
    // membership protocol merges it back into the ring once traffic
    // flows.
    let part = Participant::new_singleton(members[0], ProtocolConfig::accelerated()).unwrap();
    let d0b = spawn_daemon_with(part, net.endpoint(members[0]), d0_config());
    let s0b = serve_clients(&d0b, tcp_on(addr0), SvcConfig::default())
        .expect("re-listen on the same port");
    assert_eq!(s0b.tcp_addr(), Some(addr0));

    // Alice's next pump notices the closed socket, reconnects
    // transparently and re-joins "room"; the join travels the merged
    // ring, so eventually both sides see a 2-member group again.
    let mut reconnected = Vec::new();
    let mut note_alice = |alice: &mut SvcClient, got: &mut bool| {
        for ev in alice.drain() {
            match ev {
                SvcEvent::Reconnected { resumed } => reconnected.push(resumed),
                SvcEvent::Deliver {
                    payload, sender, ..
                } if payload == Bytes::from_static(b"wb") => {
                    assert_eq!(sender.client, "bob");
                    *got = true;
                }
                _ => {}
            }
        }
    };
    let mut got = false;
    let mut n = 0;
    assert!(
        wait_for(
            || {
                // Reconnect happens lazily on a pump; poke until the
                // socket is re-established and the ring re-merges.
                let _ = alice.try_publish(
                    &["room"],
                    ServiceType::Agreed,
                    Bytes::from_static(b"are-you-there"),
                );
                note_alice(&mut alice, &mut got);
                for ev in bob.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        n = members.len();
                    }
                }
                n == 2
            },
            30
        ),
        "group re-forms after daemon restart"
    );
    assert!(alice.reconnects() >= 1, "client redialled");

    // Traffic flows end-to-end in both directions again.
    bob.publish(
        &["room"],
        ServiceType::Agreed,
        Bytes::from_static(b"wb"),
        Duration::from_secs(5),
    )
    .unwrap();
    assert!(
        wait_for(
            || {
                note_alice(&mut alice, &mut got);
                got
            },
            20
        ),
        "post-restart delivery to the reconnected client"
    );
    // The restarted daemon never knew alice's session, so every
    // reconnect started a fresh one.
    assert!(
        !reconnected.is_empty() && reconnected.iter().all(|&resumed| !resumed),
        "alice sees Reconnected {{ resumed: false }} (got {reconnected:?})"
    );

    drop(alice);
    drop(bob);
    s0b.shutdown().expect("clean service-tier shutdown");
    s1.shutdown().expect("clean service-tier shutdown");
    d0b.shutdown().expect("clean shutdown");
    d1.shutdown().expect("clean shutdown");

    if durable {
        // Both incarnations journalled into the same directory; the
        // drained shutdowns left a synced log with the post-restart
        // traffic on disk.
        let rec = read_log_dir(&log_dir).expect("scan durable log");
        assert!(rec.records > 0, "durable log holds records");
        // Client payloads are journalled in their daemon envelope, so
        // look for the payload bytes inside the framed record.
        assert!(
            rec.deliveries
                .iter()
                .any(|(_, d)| d.payload.windows(2).any(|w| w == b"wb")),
            "post-restart delivery reached the disk"
        );
        std::fs::remove_dir_all(&log_dir).unwrap();
    }
}
