//! End-to-end test of remote clients: two daemons on loopback
//! transports, each fronted by the `ar-svc` service tier, with clients
//! connecting over real TCP sockets.

use std::time::{Duration, Instant};

use accelerated_ring::core::{Participant, ParticipantId, ProtocolConfig, RingId, ServiceType};
use accelerated_ring::daemon::spawn_daemon;
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

fn tcp_any() -> SvcListeners {
    SvcListeners {
        tcp: Some("127.0.0.1:0".parse().unwrap()),
        uds: None,
    }
}

#[test]
fn tcp_clients_join_and_exchange_ordered_messages() {
    let net = LoopbackNet::new();
    let members: Vec<ParticipantId> = (0..2).map(ParticipantId::new).collect();
    let ring_id = RingId::new(members[0], 1);
    let daemons: Vec<_> = members
        .iter()
        .map(|&p| {
            let part = Participant::new(p, ProtocolConfig::accelerated(), ring_id, members.clone())
                .unwrap();
            spawn_daemon(part, net.endpoint(p))
        })
        .collect();
    // Listen on OS-assigned ports.
    let s0 = serve_clients(&daemons[0], tcp_any(), SvcConfig::default()).expect("serve d0");
    let s1 = serve_clients(&daemons[1], tcp_any(), SvcConfig::default()).expect("serve d1");
    let addr0 = s0.tcp_addr().unwrap();

    let mut alice = SvcClient::connect_tcp(addr0, "alice").expect("connect alice");
    let mut bob = SvcClient::connect_tcp(s1.tcp_addr().unwrap(), "bob").expect("connect bob");
    assert_eq!(alice.daemon(), members[0].as_u16());

    alice.join("room").unwrap();
    bob.join("room").unwrap();
    // Both see a 2-member group, and alice is listed under her own
    // name at her own daemon.
    let mut seen = Vec::new();
    assert!(
        wait_for(
            || {
                for ev in alice.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        seen = members;
                    }
                }
                seen.len() == 2
            },
            20
        ),
        "membership over TCP"
    );
    assert!(
        seen.iter()
            .any(|m| m.client == "alice" && m.daemon == members[0]),
        "alice's member id: {seen:?}"
    );

    bob.publish(
        &["room"],
        ServiceType::Agreed,
        Bytes::from_static(b"over-tcp"),
        Duration::from_secs(5),
    )
    .unwrap();
    let mut got = None;
    assert!(wait_for(
        || {
            for ev in alice.drain() {
                if let SvcEvent::Deliver {
                    payload, sender, ..
                } = ev
                {
                    got = Some((payload, sender));
                }
            }
            got.is_some()
        },
        20
    ));
    let (payload, sender) = got.unwrap();
    assert_eq!(payload, Bytes::from_static(b"over-tcp"));
    assert_eq!(sender.client, "bob");

    // Duplicate names are refused at connect time while the first
    // holder is attached.
    let err = SvcClient::connect_tcp(addr0, "alice").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

    // Disconnecting a client leaves its groups: dropping bob sends a
    // Goodbye, so the watcher sees a 1-member group.
    drop(bob);
    let mut n = usize::MAX;
    assert!(
        wait_for(
            || {
                for ev in alice.drain() {
                    if let SvcEvent::Membership { members, .. } = ev {
                        n = members.len();
                    }
                }
                n == 1
            },
            20
        ),
        "tcp disconnect leaves groups"
    );

    drop(alice);
    s0.shutdown().expect("clean service-tier shutdown");
    s1.shutdown().expect("clean service-tier shutdown");
    for d in daemons {
        d.shutdown().expect("clean shutdown");
    }
}
