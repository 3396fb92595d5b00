//! `live_fanin`: an in-process [`LiveRegistry`] fed by a single-threaded
//! generator holding two connections — one binary, one XML — that carry
//! thousands of emulated hosts.
//!
//! One repetition has three parts:
//!
//! 1. **set-up** — start the registry, connect, register every host (and
//!    a commander for each overload-episode host) and wait for all acks;
//! 2. **open loop** — every host heartbeats once per second at a seeded
//!    phase, so the offered rate is fixed; each heartbeat's latency is
//!    timed from its *due* time, so generator lag counts against it. A few
//!    seeded heartbeats report an overload instead: the registry must
//!    answer with a migration command, which the generator acknowledges
//!    and follows with a heartbeat that reports the host free again;
//! 3. **saturation** — a closed loop keeps a fixed window of heartbeats in
//!    flight on each connection until a fixed number has been acked.
//!
//! Every reply is checked: acks arrive in order and say `ok`, every
//! episode gets exactly its command, the registry's table holds every
//! host at the end, and no connection drops.

use crate::report::{own_thread_cpu_s, thread_cpu_s, thread_ids};
use ars_obs::Obs;
use ars_rescheduler::live::{LiveOptions, LiveRegistry};
use ars_rescheduler::{RegistryConfig, SchemaBook};
use ars_rules::Policy;
use ars_simcore::SimRng;
use ars_xmlwire::wire::{encode_frame_into, FrameReader, WireCodecKind, MAX_FRAME_BYTES};
use ars_xmlwire::{
    ApplicationSchema, EntityRole, HostState, HostStatic, Message, Metrics, ProcReport,
    BIN_PREAMBLE,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Size of one `live_fanin` repetition.
#[derive(Debug, Clone, Copy)]
pub struct FaninSize {
    /// Emulated hosts, split evenly over the two connections.
    pub hosts: usize,
    /// Open-loop phase length, whole seconds ≥ 2 (each host beats once a
    /// second).
    pub open_s: f64,
    /// Overload episodes inside the open loop.
    pub episodes: usize,
    /// Heartbeats the saturation phase must get acked.
    pub saturation_beats: usize,
    /// Heartbeats in flight per connection during saturation.
    pub window: usize,
}

/// The benchmark size: 8192 hosts offer about 8k heartbeats a second.
pub const FULL: FaninSize = FaninSize {
    hosts: 8192,
    open_s: 3.0,
    episodes: 24,
    saturation_beats: 65_536,
    window: 64,
};

/// A quick instance for tests.
pub const TINY: FaninSize = FaninSize {
    hosts: 64,
    open_s: 2.0,
    episodes: 2,
    saturation_beats: 512,
    window: 8,
};

/// The app the episode hosts report as their migratable process.
const APP: &str = "fanin_app";

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct FaninRun {
    /// Host seconds to start, connect and register.
    pub setup_s: f64,
    /// Host seconds of the open loop plus the saturation phase.
    pub run_s: f64,
    /// Open-loop heartbeat latencies from due time to ack, seconds.
    pub latencies_s: Vec<f64>,
    /// Open-loop send lag behind due time, seconds (mean).
    pub gen_lag_s: f64,
    /// Saturation throughput, heartbeats per second.
    pub max_per_s: f64,
    /// Overload-heartbeat due time → migration command, per episode, s.
    pub react_s: Vec<f64>,
    /// Overload-heartbeat due time → ack of the follow-up heartbeat sent
    /// after the command ack, per episode, s.
    pub turnaround_s: Vec<f64>,
    /// Open-loop wall time, seconds.
    pub open_s: f64,
    /// Messages sent that expect an answer.
    pub attempted: u64,
    /// Everything that went wrong.
    pub failures: Vec<String>,
    /// Reactor-thread CPU seconds over the open loop and saturation.
    pub server_cpu_s: f64,
    /// Generator-thread CPU seconds over the same span.
    pub client_cpu_s: f64,
    /// Generator seconds spent encoding frames (traced runs).
    pub client_encode_s: f64,
    /// Generator seconds spent decoding frames (traced runs).
    pub client_decode_s: f64,
    /// Registry seconds spent decoding frames (traced runs, from obs).
    pub server_decode_s: f64,
}

/// What a reply on a connection is expected to answer, in send order.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Register,
    /// A heartbeat: due time, and the episode it belongs to, if any
    /// (`followup` marks the heartbeat sent after the command ack).
    Beat {
        due: Instant,
        open_loop: bool,
        episode: Option<usize>,
        followup: bool,
    },
}

struct Conn {
    stream: TcpStream,
    codec: WireCodecKind,
    frames: FrameReader,
    out: Vec<u8>,
    out_pos: usize,
    pending: VecDeque<Pending>,
}

/// Generator state shared by the phases.
struct Gen {
    conns: [Conn; 2],
    hosts: usize,
    traced: bool,
    rbuf: Vec<u8>,
    encode_s: f64,
    decode_s: f64,
    failures: Vec<String>,
    attempted: u64,
    /// Per episode: (host, overload due time, command seen at, done).
    episodes: Vec<(usize, Option<Instant>, Option<Instant>, bool)>,
    react_s: Vec<f64>,
    turnaround_s: Vec<f64>,
    latencies_s: Vec<f64>,
    acked: u64,
}

fn host_name(i: usize) -> String {
    format!("h{i:05}")
}

fn heartbeat(i: usize, overloaded: Option<u64>) -> Message {
    let mut metrics = Metrics::new();
    metrics.set("loadAvg1", if overloaded.is_some() { 2.5 } else { 0.25 });
    metrics.set("nproc", 10.0);
    metrics.set("memAvail", 50.0);
    metrics.set("diskAvailKb", 4_000_000.0);
    Message::Heartbeat {
        host: host_name(i),
        state: if overloaded.is_some() {
            HostState::Overloaded
        } else {
            HostState::Free
        },
        metrics,
        procs: overloaded
            .map(|pid| {
                vec![ProcReport {
                    pid,
                    app: APP.to_string(),
                    start_time_s: 0.0,
                    est_exec_time_s: 600.0,
                }]
            })
            .unwrap_or_default(),
    }
}

fn register(i: usize, role: EntityRole) -> Message {
    Message::Register {
        host: HostStatic {
            name: host_name(i),
            ip: "127.0.0.1".to_string(),
            os: "linux".to_string(),
            cpu_speed: 1.0,
            n_cpus: 1,
            mem_kb: 131_072,
        },
        role,
    }
}

/// The pid episode `e` reports for its migratable process.
fn episode_pid(e: usize) -> u64 {
    1_000 + e as u64
}

impl Gen {
    /// The connection carrying host `i`.
    fn conn_of(&self, i: usize) -> usize {
        if i < self.hosts / 2 {
            0
        } else {
            1
        }
    }

    fn send(&mut self, host: usize, msg: &Message, pending: Pending) {
        let c = self.conn_of(host);
        let t0 = self.traced.then(Instant::now);
        let conn = &mut self.conns[c];
        encode_frame_into(msg, conn.codec, &mut conn.out);
        if let Some(t0) = t0 {
            self.encode_s += t0.elapsed().as_secs_f64();
        }
        conn.pending.push_back(pending);
        self.attempted += 1;
    }

    /// Send a message that gets no reply (command acks).
    fn send_silent(&mut self, host: usize, msg: &Message) {
        let c = self.conn_of(host);
        let conn = &mut self.conns[c];
        encode_frame_into(msg, conn.codec, &mut conn.out);
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Flush, read and dispatch whatever is ready. Returns true on
    /// progress; an I/O failure ends the repetition.
    fn pump(&mut self) -> Result<bool, String> {
        let mut progressed = false;
        let mut replies: Vec<(usize, Message)> = Vec::new();
        for (c, conn) in self.conns.iter_mut().enumerate() {
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => return Err("registry stopped reading".into()),
                    Ok(n) => {
                        conn.out_pos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
            loop {
                match conn.stream.read(&mut self.rbuf) {
                    Ok(0) => return Err(format!("connection {c} closed by the registry")),
                    Ok(n) => {
                        conn.frames.push(&self.rbuf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            loop {
                let t0 = self.traced.then(Instant::now);
                let frame = conn.frames.next_frame();
                if let Some(t0) = t0 {
                    self.decode_s += t0.elapsed().as_secs_f64();
                }
                match frame {
                    Ok(Some(msg)) => replies.push((c, msg)),
                    Ok(None) => break,
                    Err(e) => return Err(format!("undecodable reply: {e}")),
                }
            }
        }
        let now = Instant::now();
        for (c, msg) in replies {
            self.dispatch(c, msg, now);
        }
        Ok(progressed)
    }

    fn dispatch(&mut self, c: usize, msg: Message, now: Instant) {
        match msg {
            Message::Ack { ok, info } => match self.conns[c].pending.pop_front() {
                None => self.failures.push(format!("unexpected ack on {c}: {info}")),
                Some(_) if !ok => self.failures.push(format!("nack on {c}: {info}")),
                Some(Pending::Register) => {}
                Some(Pending::Beat {
                    due,
                    open_loop,
                    episode,
                    followup,
                }) => {
                    self.acked += 1;
                    if open_loop && !followup {
                        self.latencies_s.push(now.duration_since(due).as_secs_f64());
                    }
                    if let (Some(e), true) = (episode, followup) {
                        let started = self.episodes[e].1.expect("episode started");
                        self.turnaround_s
                            .push(now.duration_since(started).as_secs_f64());
                        self.episodes[e].3 = true;
                    }
                }
            },
            Message::MigrationCommand { host, pid, .. } => {
                let Some(e) = self.episodes.iter().position(|ep| host_name(ep.0) == host) else {
                    self.failures
                        .push(format!("command for a calm host {host}"));
                    return;
                };
                let (h, started, seen, _) = self.episodes[e];
                if seen.is_some() || pid != episode_pid(e) {
                    self.failures
                        .push(format!("unexpected command for {host} pid {pid}"));
                    return;
                }
                let Some(started) = started else {
                    self.failures
                        .push(format!("command before overload on {host}"));
                    return;
                };
                self.episodes[e].2 = Some(now);
                self.react_s.push(now.duration_since(started).as_secs_f64());
                self.send_silent(
                    h,
                    &Message::CommandAck {
                        host: host.clone(),
                        pid,
                        ok: true,
                    },
                );
                self.send(
                    h,
                    &heartbeat(h, None),
                    Pending::Beat {
                        due: now,
                        open_loop: true,
                        episode: Some(e),
                        followup: true,
                    },
                );
            }
            other => self
                .failures
                .push(format!("unexpected {} on {c}", other.type_tag())),
        }
    }

    /// Pump until nothing is outstanding (or the deadline passes).
    fn drain(&mut self, deadline: Duration) -> Result<(), String> {
        let start = Instant::now();
        while self.outstanding() > 0 {
            if !self.pump()? {
                if start.elapsed() > deadline {
                    return Err(format!("{} replies never arrived", self.outstanding()));
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        Ok(())
    }
}

/// Run one repetition. `traced` enables the registry's obs session and
/// times the generator's encode/decode calls.
pub fn run(size: FaninSize, seed: u64, traced: bool) -> FaninRun {
    let mut out = FaninRun::default();
    if let Err(e) = run_into(size, seed, traced, &mut out) {
        out.failures.push(e);
    }
    out
}

fn run_into(size: FaninSize, seed: u64, traced: bool, out: &mut FaninRun) -> Result<(), String> {
    let t_setup = Instant::now();
    let mut rng = SimRng::new(seed);
    let mut cfg = RegistryConfig::new(Policy::paper_policy2());
    cfg.name = "live".to_string();
    let obs = if traced {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    cfg.obs = obs.clone();
    let schemas = SchemaBook::new();
    schemas.put(ApplicationSchema::compute(APP, 600.0));
    let before = thread_ids();
    let registry = LiveRegistry::start_with_options(cfg, schemas, LiveOptions::default())
        .map_err(|e| format!("start: {e}"))?;
    let reactor = thread_ids().into_iter().find(|t| !before.contains(t));
    let addr = registry.addr();

    let mut conns = Vec::new();
    for codec in [WireCodecKind::Binary, WireCodecKind::Xml] {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        if codec == WireCodecKind::Binary {
            stream
                .write_all(&BIN_PREAMBLE)
                .map_err(|e| format!("preamble: {e}"))?;
        }
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        conns.push(Conn {
            stream,
            codec,
            frames: FrameReader::for_codec(codec, MAX_FRAME_BYTES),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
        });
    }
    let conns: [Conn; 2] = conns.try_into().map_err(|_| "two connections")?;

    // Episode hosts: distinct, seeded; each overloads at a seeded slot
    // after every host has reported once.
    let mut pool: Vec<usize> = (0..size.hosts).collect();
    let episode_hosts: Vec<usize> = (0..size.episodes)
        .map(|_| pool.swap_remove(rng.below(pool.len() as u64) as usize))
        .collect();
    let mut gen = Gen {
        conns,
        hosts: size.hosts,
        traced,
        rbuf: vec![0u8; 64 * 1024],
        encode_s: 0.0,
        decode_s: 0.0,
        failures: Vec::new(),
        attempted: 0,
        episodes: episode_hosts
            .iter()
            .map(|&h| (h, None, None, false))
            .collect(),
        react_s: Vec::new(),
        turnaround_s: Vec::new(),
        latencies_s: Vec::new(),
        acked: 0,
    };

    for i in 0..size.hosts {
        gen.send(i, &register(i, EntityRole::Monitor), Pending::Register);
        if episode_hosts.contains(&i) {
            gen.send(i, &register(i, EntityRole::Commander), Pending::Register);
        }
        if gen.outstanding() >= 2 * size.window.max(256) {
            gen.pump()?;
        }
    }
    gen.drain(Duration::from_secs(30))?;
    out.setup_s = t_setup.elapsed().as_secs_f64();

    // Open-loop schedule: (offset from start, host), sorted.
    let rounds = size.open_s.ceil() as usize;
    let phases: Vec<f64> = (0..size.hosts).map(|_| rng.next_f64()).collect();
    let mut schedule: Vec<(f64, usize)> = (0..rounds)
        .flat_map(|k| {
            phases
                .iter()
                .enumerate()
                .map(move |(h, &p)| (k as f64 + p, h))
        })
        .filter(|&(t, _)| t < size.open_s)
        .collect();
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Each episode overloads its host's heartbeat of a seeded round ≥ 1,
    // so the registry has heard every host once before any decision.
    let episode_round: Vec<f64> = (0..size.episodes)
        .map(|_| (1 + rng.below(rounds as u64 - 1)) as f64)
        .collect();

    let cpu_server0 = reactor.map_or(0.0, thread_cpu_s);
    let cpu_client0 = own_thread_cpu_s();
    let t_open = Instant::now();
    let mut lag_sum = 0.0;
    let mut next = 0;
    while next < schedule.len() {
        let now = Instant::now();
        let elapsed = now.duration_since(t_open).as_secs_f64();
        while next < schedule.len() && schedule[next].0 <= elapsed {
            let (t, h) = schedule[next];
            next += 1;
            let due = t_open + Duration::from_secs_f64(t);
            lag_sum += now.duration_since(due).as_secs_f64();
            let episode = gen
                .episodes
                .iter()
                .position(|ep| ep.0 == h && ep.1.is_none())
                .filter(|&e| t >= episode_round[e]);
            let msg = heartbeat(h, episode.map(episode_pid));
            if let Some(e) = episode {
                gen.episodes[e].1 = Some(due);
            }
            gen.send(
                h,
                &msg,
                Pending::Beat {
                    due,
                    open_loop: true,
                    episode,
                    followup: false,
                },
            );
        }
        if !gen.pump()? {
            let until_next = schedule
                .get(next)
                .map_or(0.0, |&(t, _)| t - t_open.elapsed().as_secs_f64());
            std::thread::sleep(Duration::from_secs_f64(until_next.clamp(0.0, 100e-6)));
        }
    }
    gen.drain(Duration::from_secs(30))?;
    out.open_s = t_open.elapsed().as_secs_f64();
    out.gen_lag_s = lag_sum / schedule.len().max(1) as f64;

    // Saturation: a fixed window in flight per connection.
    let t_sat = Instant::now();
    let acked0 = gen.acked;
    let target = acked0 + size.saturation_beats as u64;
    let mut sent = 0usize;
    let half = size.hosts / 2;
    while gen.acked < target {
        for c in 0..2 {
            while gen.conns[c].pending.len() < size.window && sent < size.saturation_beats {
                let h = c * half + (sent / 2) % half;
                sent += 1;
                gen.send(
                    h,
                    &heartbeat(h, None),
                    Pending::Beat {
                        due: Instant::now(),
                        open_loop: false,
                        episode: None,
                        followup: false,
                    },
                );
            }
        }
        if !gen.pump()? {
            if t_sat.elapsed() > Duration::from_secs(60) {
                return Err("saturation phase stalled".into());
            }
            std::thread::yield_now();
        }
    }
    let sat_s = t_sat.elapsed().as_secs_f64();
    out.run_s = out.open_s + sat_s;
    out.max_per_s = size.saturation_beats as f64 / sat_s;
    out.server_cpu_s = reactor.map_or(0.0, thread_cpu_s) - cpu_server0;
    out.client_cpu_s = own_thread_cpu_s() - cpu_client0;

    for &(h, started, seen, done) in &gen.episodes {
        if started.is_none() || seen.is_none() || !done {
            gen.failures.push(format!(
                "overload episode on {} never completed",
                host_name(h)
            ));
        }
    }
    let (known, commands) = registry.inspect(|core, log| {
        (
            (0..size.hosts)
                .filter(|&i| core.knows_host(&host_name(i)))
                .count(),
            log.commands_sent,
        )
    });
    if known != size.hosts {
        gen.failures
            .push(format!("registry knows {known} of {} hosts", size.hosts));
    }
    if commands != size.episodes {
        gen.failures.push(format!(
            "registry sent {commands} commands for {} overloads",
            size.episodes
        ));
    }
    if obs.counter("live_disconnects") > 0 {
        gen.failures.push("a connection dropped".into());
    }
    registry.shutdown();
    out.server_decode_s = obs.histogram("wire_decode_s").map_or(0.0, |h| h.sum);
    out.client_encode_s = gen.encode_s;
    out.client_decode_s = gen.decode_s;
    out.latencies_s = gen.latencies_s;
    out.react_s = gen.react_s;
    out.turnaround_s = gen.turnaround_s;
    out.attempted = gen.attempted;
    out.failures = gen.failures;
    Ok(())
}
