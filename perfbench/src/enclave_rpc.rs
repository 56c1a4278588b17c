//! `enclave_rpc`: one client's guest requests across a two-machine fleet.
//!
//! Machine 1 sends a request over its attested channel; machine 0
//! delivers it, its guest OS writes and reads the 256 B payload through
//! syscalls, enters its sealed TEE, stores and loads the payload there,
//! exits, and sends the reply back, which machine 1 delivers. The reply
//! must equal the request.

use std::collections::BTreeMap;

use tyche_fleet::{Fleet, FleetConfig, TEE_MEM};
use tyche_guest::{GuestOs, Pid, SysResult, Syscall};

use crate::load::Workload;
use crate::rng::Rng;
use crate::trace::{tally_leaves, Layer, Tracer};

/// Request payload size.
pub const PAYLOAD: usize = 256;
/// Distinct seeded requests, cycled through.
const POOL: usize = 256;
/// Guest RAM on machine 0: outside the TEE window, owned by the root.
const GUEST_RAM: (u64, u64) = (0x40_0000, 0x80_0000);
const SERVER: usize = 0;
const CLIENT: usize = 1;
const CORE: usize = 0;
/// Key for the direct `crypto.hmac_frame` probe.
const PROBE_KEY: [u8; 32] = [0x5a; 32];

/// Seeded inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// Fleet seed (TPM and DRBG seeds of both machines).
    pub fleet_seed: u64,
    /// Request payloads.
    pub payloads: Vec<Vec<u8>>,
    /// TEE scratch offset per request, 256 B aligned inside the window.
    pub tee_offsets: Vec<u64>,
}

/// Builds the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let mut r = Rng::new(seed, "enclave_rpc");
    let slots = (TEE_MEM.1 - TEE_MEM.0) / PAYLOAD as u64;
    Inputs {
        fleet_seed: r.next_u64(),
        payloads: (0..POOL).map(|_| r.bytes(PAYLOAD)).collect(),
        tee_offsets: (0..POOL).map(|_| r.below(slots) * PAYLOAD as u64).collect(),
    }
}

/// A booted, mutually attested fleet with a guest process on machine 0.
pub struct State {
    fleet: Fleet,
    os: GuestOs,
    pid: Pid,
    buf: u64,
    inputs: Inputs,
    /// Modeled NIC cycles charged to the cores (see [`Self::send`]).
    nic_charged: u64,
    sent_at: u64,
    leaves: BTreeMap<u64, u64>,
}

/// Boots both machines, attests them to each other and starts the guest.
pub fn setup(inputs: &Inputs) -> Result<State, String> {
    let cfg = FleetConfig {
        machines: 2,
        seed: inputs.fleet_seed,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(&cfg).map_err(|e| format!("fleet boot: {e}"))?;
    if fleet.establish_all() != 1 {
        return Err("mutual attestation did not open the channel".into());
    }
    let mut os = GuestOs::new(GUEST_RAM, CORE, 0x1000);
    let pid = os.spawn(0x1_0000).ok_or("guest spawn")?;
    let m0 = &mut fleet.machine_mut(SERVER).ok_or("no machine 0")?.monitor;
    let buf = match os.syscall(
        m0,
        pid,
        Syscall::Alloc {
            len: PAYLOAD as u64,
        },
    ) {
        SysResult::Addr(a) => a,
        other => return Err(format!("guest alloc: {other:?}")),
    };
    Ok(State {
        fleet,
        os,
        pid,
        buf,
        inputs: inputs.clone(),
        nic_charged: 0,
        sent_at: 0,
        leaves: BTreeMap::new(),
    })
}

impl State {
    fn clock(&self, m: usize) -> u64 {
        self.fleet
            .machine(m)
            .map_or(0, |fm| fm.monitor.machine.core_clocks.now(CORE))
    }

    /// Sends over the channel. The sender's core clock only moves by
    /// what the send charged; the frame is stamped with that clock.
    fn send(&mut self, from: usize, to: usize, payload: &[u8]) -> Result<(), String> {
        let c0 = self.clock(from);
        self.fleet
            .send(from, to, CORE, payload)
            .map_err(|e| format!("send {from}->{to}: {e}"))?;
        self.sent_at = self.clock(from);
        self.nic_charged += self.sent_at - c0;
        Ok(())
    }

    /// Delivers the one frame in flight. Receiving first advances the
    /// core clock to the frame's send stamp (waiting, not work), then
    /// charges the receive; only the charge counts.
    fn deliver(&mut self, at: usize) -> Result<Vec<u8>, String> {
        let c0 = self.clock(at);
        let d = self
            .fleet
            .deliver(at, CORE)
            .map_err(|e| format!("deliver at {at}: {e}"))?;
        self.nic_charged += self.clock(at) - c0.max(self.sent_at);
        let d = d.ok_or_else(|| format!("nothing to deliver at {at}"))?;
        Ok(d.payload)
    }

    fn syscall(&mut self, call: Syscall) -> Result<SysResult, String> {
        let m0 = &mut self
            .fleet
            .machine_mut(SERVER)
            .ok_or("no machine 0")?
            .monitor;
        Ok(self.os.syscall(m0, self.pid, call))
    }

    /// Accepted frames and violations, summed over both machines.
    pub fn channel_counts(&self) -> (u64, u64) {
        (0..self.fleet.len())
            .filter_map(|i| self.fleet.machine(i))
            .map(|m| m.stats())
            .fold((0, 0), |(a, v), s| (a + s.accepted, v + s.violations))
    }

    /// Hypercall counters of machine 0 (the only one making calls).
    pub fn monitor_stats(&self) -> tyche_monitor::monitor::Stats {
        self.fleet
            .machine(SERVER)
            .map(|m| m.monitor.stats())
            .unwrap_or_default()
    }

    /// End-of-run checks: engine and hardware audits clean on both
    /// machines, no channel violation, and no capability created since
    /// set-up left alive.
    pub fn final_checks(&self, caps_after_setup: &[usize]) -> Vec<(bool, String)> {
        let mut out = Vec::new();
        for i in 0..self.fleet.len() {
            let Some(m) = self.fleet.machine(i) else {
                continue;
            };
            let engine = tyche_core::audit::audit(&m.monitor.engine);
            out.push((
                engine.is_empty(),
                format!("machine {i} engine audit: {engine:?}"),
            ));
            let hw = m.monitor.audit_hardware();
            out.push((hw.is_empty(), format!("machine {i} hardware audit: {hw:?}")));
            out.push((
                m.stats().violations == 0,
                format!("machine {i} channel violations"),
            ));
            let live = live_caps(m);
            out.push((
                caps_after_setup.get(i) == Some(&live),
                format!("machine {i} live capabilities {live}"),
            ));
        }
        out
    }

    /// Live capabilities per machine.
    pub fn live_caps(&self) -> Vec<usize> {
        (0..self.fleet.len())
            .filter_map(|i| self.fleet.machine(i))
            .map(live_caps)
            .collect()
    }
}

fn live_caps(m: &tyche_fleet::FleetMachine) -> usize {
    m.monitor.engine.caps().filter(|c| c.active).count()
}

impl Workload for State {
    fn op(&mut self, tr: &mut Tracer, id: u64) -> Result<Option<u64>, String> {
        let k = (id % POOL as u64) as usize;
        let request = self.inputs.payloads[k].clone();
        let tee_addr = TEE_MEM.0 + self.inputs.tee_offsets[k];
        let mut req = tr.begin(id);
        let traced = tr.on();
        // Cycles charged inside spans that are not hypercalls.
        let mut outside = 0u64;
        macro_rules! outside_span {
            ($layer:expr, $body:expr) => {{
                let c0 = if traced { self.charged() } else { 0 };
                let r = tr.span($layer, &mut req, || $body);
                if traced {
                    outside += self.charged() - c0;
                }
                r
            }};
        }

        outside_span!(Layer::FleetSend, self.send(CLIENT, SERVER, &request))?;
        let got = outside_span!(Layer::FleetDeliver, self.deliver(SERVER))?;
        let buf = self.buf;
        let w = outside_span!(
            Layer::GuestSyscall,
            self.syscall(Syscall::Write {
                addr: buf,
                data: got
            })
        )?;
        if w != SysResult::Ok {
            return Err(format!("guest write: {w:?}"));
        }
        let r = outside_span!(
            Layer::GuestSyscall,
            self.syscall(Syscall::Read {
                addr: buf,
                len: PAYLOAD as u64
            })
        )?;
        let SysResult::Bytes(bytes) = r else {
            return Err(format!("guest read: {r:?}"));
        };
        tr.span(Layer::MonitorEnter, &mut req, || {
            self.fleet.enter_tee(SERVER, CORE)
        })
        .map_err(|e| format!("enter tee: {e}"))?;
        let mut out = vec![0u8; PAYLOAD];
        outside_span!(
            Layer::MonitorTeeAccess,
            self.fleet.tee_write(SERVER, CORE, tee_addr, &bytes)
        )
        .map_err(|e| format!("tee write: {e}"))?;
        outside_span!(
            Layer::MonitorTeeAccess,
            self.fleet.tee_read(SERVER, CORE, tee_addr, &mut out)
        )
        .map_err(|e| format!("tee read: {e}"))?;
        tr.span(Layer::MonitorExit, &mut req, || {
            self.fleet.exit_tee(SERVER, CORE)
        })
        .map_err(|e| format!("exit tee: {e}"))?;
        outside_span!(Layer::FleetSend, self.send(SERVER, CLIENT, &out))?;
        let reply = outside_span!(Layer::FleetDeliver, self.deliver(CLIENT))?;
        tr.end(req);
        tr.outside_cycles += outside;
        if traced {
            // The MAC a frame of this request carries, computed directly.
            let seq = id.to_le_bytes();
            tr.probe(Layer::CryptoHmacFrame, id, || {
                std::hint::black_box(tyche_crypto::HmacSha256::mac_parts(
                    &PROBE_KEY,
                    &[&1u64.to_le_bytes(), &1u64.to_le_bytes(), &seq, &request],
                ))
            });
        }
        if reply != request {
            return Err(format!("request {id}: reply differs from request"));
        }
        Ok(None)
    }

    fn charged(&self) -> u64 {
        let machine: u64 = (0..self.fleet.len())
            .filter_map(|i| self.fleet.machine(i))
            .map(|m| m.monitor.machine.cycles.now())
            .sum();
        machine + self.nic_charged
    }

    fn machine_trace(&mut self, on: bool) {
        for i in 0..self.fleet.len() {
            let Some(m) = self.fleet.machine(i) else {
                continue;
            };
            let sink = m.monitor.trace();
            if on {
                sink.enable(m.monitor.machine.cores);
            } else if sink.is_enabled() {
                sink.disable();
                tally_leaves(&sink.drain(), &mut self.leaves);
            }
        }
    }

    fn leaf_cycles(&self) -> &BTreeMap<u64, u64> {
        &self.leaves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_input_set() {
        assert_eq!(inputs(3), inputs(3));
        assert_ne!(inputs(3), inputs(4));
        let i = inputs(3);
        assert!(i
            .tee_offsets
            .iter()
            .all(|&o| TEE_MEM.0 + o + PAYLOAD as u64 <= TEE_MEM.1));
    }
}
