//! An idle live registry neither spins nor hangs. This binary holds a
//! single test so that the process CPU it measures is the reactor's and
//! the client's alone.

use ars_rescheduler::live::{LiveClient, LiveError, LiveRegistry};
use ars_xmlwire::{EntityRole, HostStatic, Message};
use std::time::{Duration, Instant};

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat`. Its tick unit is the kernel's fixed `USER_HZ` of
/// 100 per second.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at `state`
    // (field 3); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / 100.0
}

#[test]
fn an_idle_registry_neither_spins_nor_hangs() {
    let registry = LiveRegistry::start().expect("bind");
    let mut clients: Vec<LiveClient> = (0..4)
        .map(|i| {
            let mut c = LiveClient::connect(registry.addr()).expect("connect");
            let reply = c
                .call(&Message::Register {
                    host: HostStatic {
                        name: format!("h{i}"),
                        ip: "127.0.0.1".to_string(),
                        os: "linux".to_string(),
                        cpu_speed: 1.0,
                        n_cpus: 1,
                        mem_kb: 131_072,
                    },
                    role: EntityRole::Monitor,
                })
                .expect("register");
            assert!(matches!(reply, Message::Ack { ok: true, .. }));
            c
        })
        .collect();

    // Idle: connections open, no traffic, no timers armed.
    let cpu0 = process_cpu_s();
    std::thread::sleep(Duration::from_millis(300));
    let idle_cpu = process_cpu_s() - cpu0;
    assert!(
        idle_cpu < 0.030,
        "idle registry used {:.0} ms of CPU in 300 ms",
        idle_cpu * 1e3
    );

    // Shutdown must wake the blocked reactor at once.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        registry.shutdown();
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown of an idle registry returns");
    assert!(started.elapsed() < Duration::from_secs(1));

    for c in &mut clients {
        c.set_call_timeout(Duration::from_secs(2)).unwrap();
        let got = c.recv();
        assert!(
            matches!(got, Err(LiveError::Closed)),
            "expected EOF after shutdown, got {got:?}"
        );
    }
}
