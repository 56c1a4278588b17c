//! `tenant_lifecycle`: one client churns tenants on a RISC-V monitor
//! that already hosts a large resident population.
//!
//! Set-up builds the residents by hypercalls: each is created, given a
//! 4 KiB lane shared from the root's RAM, given an entry point and
//! sealed. Each lifecycle then creates a tenant, shares it a lane, sets
//! its entry, has the monitor measure the lane, seals it, attests it
//! (report, machine quote, verification), re-attests one resident, and
//! kills the tenant. RISC-V is used because the x86 EPTP list caps live
//! domains at 512.

use std::collections::BTreeMap;
use std::time::Instant;

use tyche_core::prelude::*;
use tyche_crypto::Digest;
use tyche_monitor::attest::SignedReport;
use tyche_monitor::boot::MONITOR_VERSION;
use tyche_monitor::monitor::CallResult;
use tyche_monitor::{boot_riscv, BootConfig, MachineRoots, Monitor, MonitorCall, Verifier};

use crate::load::Workload;
use crate::rng::Rng;
use crate::trace::{tally_leaves, Layer, Tracer};

const PAGE: u64 = 0x1000;
/// Lanes are pages of `[LANE_BASE, LANE_BASE + LANE_PAGES * PAGE)`.
const LANE_BASE: u64 = 0x100_0000;
const LANE_PAGES: u64 = 4096;
const CORE: usize = 0;

/// Population and pool sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Resident sealed tenants built during set-up.
    pub residents: usize,
    /// Distinct lanes the lifecycles cycle through.
    pub lifecycle_lanes: usize,
}

/// The full-size population.
pub const FULL: Size = Size {
    residents: 100_000,
    lifecycle_lanes: 1024,
};
/// A population for quick checks of the benchmark itself.
pub const TINY: Size = Size {
    residents: 200,
    lifecycle_lanes: 32,
};

/// Seeded inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inputs {
    /// Lane page of each resident.
    pub resident_lanes: Vec<u32>,
    /// Lane page of each lifecycle slot (distinct pages).
    pub lifecycle_lanes: Vec<u32>,
    /// Bytes written into each lifecycle lane before the run.
    pub lane_content: Vec<Vec<u8>>,
    /// SHA-256 of each lane's bytes: what `RecordContent` must report.
    pub lane_digest: Vec<Digest>,
    /// Residents to re-attest, in order.
    pub reattest: Vec<u32>,
}

/// Builds the inputs for `seed`.
pub fn inputs(seed: u64, size: Size) -> Inputs {
    let mut r = Rng::new(seed, "tenant_lifecycle");
    let resident_lanes = (0..size.residents)
        .map(|_| r.below(LANE_PAGES) as u32)
        .collect();
    // Partial Fisher-Yates: the first `lifecycle_lanes` of a shuffle.
    let mut pages: Vec<u32> = (0..LANE_PAGES as u32).collect();
    for i in 0..size.lifecycle_lanes {
        let j = i + r.below(LANE_PAGES - i as u64) as usize;
        pages.swap(i, j);
    }
    pages.truncate(size.lifecycle_lanes);
    let lane_content: Vec<Vec<u8>> = pages.iter().map(|_| r.bytes(PAGE as usize)).collect();
    let lane_digest = lane_content.iter().map(|b| tyche_crypto::hash(b)).collect();
    let reattest = (0..4096)
        .map(|_| r.below(size.residents as u64) as u32)
        .collect();
    Inputs {
        resident_lanes,
        lifecycle_lanes: pages,
        lane_content,
        lane_digest,
        reattest,
    }
}

fn lane(page: u32) -> (u64, u64) {
    let start = LANE_BASE + u64::from(page) * PAGE;
    (start, start + PAGE)
}

struct Resident {
    domain: DomainId,
    page: u32,
    measurement: Digest,
}

/// The monitor with its resident population.
pub struct State {
    m: Monitor,
    verifier: Verifier,
    ram: CapId,
    residents: Vec<Resident>,
    /// Residents sharing each lane page.
    lane_users: Vec<u32>,
    inputs: Inputs,
    leaves: BTreeMap<u64, u64>,
}

fn call(m: &mut Monitor, c: MonitorCall) -> Result<CallResult, String> {
    m.call(CORE, c).map_err(|s| format!("{c:?}: {s:?}"))
}

fn share_lane(ram: CapId, target: DomainId, page: u32) -> MonitorCall {
    MonitorCall::Share {
        cap: ram,
        target,
        sub: Some(lane(page)),
        rights: Rights::RW,
        policy: RevocationPolicy::NONE,
    }
}

fn seal(domain: DomainId) -> MonitorCall {
    MonitorCall::Seal {
        domain,
        allow_outward: false,
        allow_children: false,
    }
}

fn created(r: CallResult) -> Result<DomainId, String> {
    match r {
        CallResult::NewDomain { domain, .. } => Ok(domain),
        other => Err(format!("create returned {other:?}")),
    }
}

fn measured(r: CallResult) -> Result<Digest, String> {
    match r {
        CallResult::Measurement(d) => Ok(d),
        other => Err(format!("seal returned {other:?}")),
    }
}

fn report(r: CallResult) -> Result<SignedReport, String> {
    match r {
        CallResult::Report(s) => Ok(*s),
        other => Err(format!("attest returned {other:?}")),
    }
}

/// The 32-byte report nonce the monitor expands an 8-byte seed into.
fn report_nonce(seed: u64) -> [u8; 32] {
    let mut n = [0u8; 32];
    n[..8].copy_from_slice(&seed.to_le_bytes());
    n
}

fn quote_nonce(id: u64, which: u8) -> [u8; 32] {
    let mut n = [which; 32];
    n[..8].copy_from_slice(&id.to_le_bytes());
    n
}

/// Boots the monitor, builds the residents and writes the lane bytes.
pub fn setup(inputs: &Inputs) -> Result<State, String> {
    let mut m = boot_riscv(BootConfig::default());
    let root = m.engine.root().ok_or("no root domain")?;
    let (lo, hi) = (LANE_BASE, LANE_BASE + LANE_PAGES * PAGE);
    let ram = m
        .engine
        .caps_of(root)
        .iter()
        .find(|c| {
            c.active && matches!(c.resource, Resource::Memory(r) if r.start <= lo && hi <= r.end)
        })
        .map(|c| c.id)
        .ok_or("root holds no RAM over the lanes")?;
    for (slot, &page) in inputs.lifecycle_lanes.iter().enumerate() {
        m.dom_write(CORE, lane(page).0, &inputs.lane_content[slot])
            .map_err(|f| format!("lane write: {f:?}"))?;
    }
    let mut lane_users = vec![0u32; LANE_PAGES as usize];
    let mut residents = Vec::with_capacity(inputs.resident_lanes.len());
    for &page in &inputs.resident_lanes {
        let domain = created(call(&mut m, MonitorCall::CreateDomain)?)?;
        call(&mut m, share_lane(ram, domain, page))?;
        call(
            &mut m,
            MonitorCall::SetEntry {
                domain,
                entry: lane(page).0,
            },
        )?;
        let measurement = measured(call(&mut m, seal(domain))?)?;
        lane_users[page as usize] += 1;
        residents.push(Resident {
            domain,
            page,
            measurement,
        });
    }
    let verifier = MachineRoots::of(&m).verifier(MONITOR_VERSION);
    Ok(State {
        m,
        verifier,
        ram,
        residents,
        lane_users,
        inputs: inputs.clone(),
        leaves: BTreeMap::new(),
    })
}

impl State {
    /// Hypercall counters.
    pub fn monitor_stats(&self) -> tyche_monitor::monitor::Stats {
        self.m.stats()
    }

    /// Live domains and capabilities.
    pub fn population(&self) -> (usize, usize) {
        let domains = self.m.engine.domains().filter(|d| d.is_alive()).count();
        let caps = self.m.engine.caps().filter(|c| c.active).count();
        (domains, caps)
    }

    /// End-of-run checks: engine and hardware audits clean and the
    /// population exactly as set-up left it.
    pub fn final_checks(&self, after_setup: (usize, usize)) -> Vec<(bool, String)> {
        let engine = tyche_core::audit::audit(&self.m.engine);
        let hw = self.m.audit_hardware();
        let now = self.population();
        vec![
            (engine.is_empty(), format!("engine audit: {engine:?}")),
            (hw.is_empty(), format!("hardware audit: {hw:?}")),
            (
                now == after_setup,
                format!("live (domains, caps) {now:?}, after set-up {after_setup:?}"),
            ),
        ]
    }

    /// Quote over the monitor PCRs with nonce `qn`, verified with the
    /// report signed over `nonce`. Neither is a hypercall, so their
    /// modeled cycles count as outside hypercalls.
    fn verify(
        &mut self,
        tr: &mut Tracer,
        req: &mut crate::trace::Request,
        qn: [u8; 32],
        signed: &SignedReport,
        nonce: u64,
        expected: Digest,
    ) -> Result<tyche_monitor::AttestedDomain, String> {
        let c0 = self.charged();
        let quote = tr
            .span(Layer::HwTpmQuote, req, || self.m.machine_quote(qn))
            .map_err(|e| format!("quote: {e:?}"))?;
        let verifier = &self.verifier;
        let rn = report_nonce(nonce);
        let verified = tr
            .span(Layer::MonitorAttestVerify, req, || {
                verifier.verify(&quote, &qn, signed, &rn, Some(expected))
            })
            .map_err(|e| format!("verify: {e}"))?;
        tr.outside_cycles += self.charged() - c0;
        Ok(verified)
    }
}

impl Workload for State {
    fn op(&mut self, tr: &mut Tracer, id: u64) -> Result<Option<u64>, String> {
        let slot = (id % self.inputs.lifecycle_lanes.len() as u64) as usize;
        let page = self.inputs.lifecycle_lanes[slot];
        let (start, end) = lane(page);
        let ram = self.ram;
        let mut req = tr.begin(id);
        let m = &mut self.m;

        let domain = created(tr.span(Layer::MonitorCreate, &mut req, || {
            call(m, MonitorCall::CreateDomain)
        })?)?;
        tr.span(Layer::MonitorShare, &mut req, || {
            call(m, share_lane(ram, domain, page))
        })?;
        tr.span(Layer::MonitorSetEntry, &mut req, || {
            call(
                m,
                MonitorCall::SetEntry {
                    domain,
                    entry: start,
                },
            )
        })?;
        tr.span(Layer::MonitorRecordContent, &mut req, || {
            call(m, MonitorCall::RecordContent { domain, start, end })
        })?;
        let measurement =
            measured(tr.span(Layer::MonitorSeal, &mut req, || call(m, seal(domain)))?)?;
        let nonce = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let signed = report(tr.span(Layer::MonitorAttest, &mut req, || {
            call(m, MonitorCall::Attest { domain, nonce })
        })?)?;
        let tenant = self.verify(
            tr,
            &mut req,
            quote_nonce(id, 1),
            &signed,
            nonce,
            measurement,
        )?;

        // Re-attest one resident: the read tier of the lifecycle.
        let t_read = Instant::now();
        let r = self.inputs.reattest[(id % self.inputs.reattest.len() as u64) as usize] as usize;
        let (rdomain, rpage, rmeasure) = {
            let res = &self.residents[r];
            (res.domain, res.page, res.measurement)
        };
        let m = &mut self.m;
        let rsigned = report(tr.span(Layer::MonitorAttestResident, &mut req, || {
            call(
                m,
                MonitorCall::Attest {
                    domain: rdomain,
                    nonce: !nonce,
                },
            )
        })?)?;
        let resident = self.verify(tr, &mut req, quote_nonce(id, 2), &rsigned, !nonce, rmeasure)?;
        let read_ns = u64::try_from(t_read.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let m = &mut self.m;
        tr.span(Layer::MonitorKill, &mut req, || {
            call(m, MonitorCall::Kill { domain })
        })?;
        tr.end(req);

        let content = &self.inputs.lane_content[slot];
        let digest = if tr.on() {
            tr.probe(Layer::CryptoSha256Page, id, || tyche_crypto::hash(content))
        } else {
            self.inputs.lane_digest[slot]
        };
        // The root, the residents on the lane, and the tenant itself.
        let users = 1 + self.lane_users[page as usize] as usize;
        if !tenant.sharing_is_exactly(&[(start, end, users + 1)]) {
            return Err(format!(
                "lifecycle {id}: tenant sharing is not exactly its lane"
            ));
        }
        if tenant.report.content_measurements != [(start, end, digest)] {
            return Err(format!(
                "lifecycle {id}: recorded content differs from the lane bytes"
            ));
        }
        let (rs, re) = lane(rpage);
        let rusers = 1 + self.lane_users[rpage as usize] as usize + usize::from(rpage == page);
        if resident.domain != rdomain || !resident.sharing_is_exactly(&[(rs, re, rusers)]) {
            return Err(format!(
                "lifecycle {id}: resident {r} report does not match its lane"
            ));
        }
        Ok(Some(read_ns))
    }

    fn charged(&self) -> u64 {
        let clocks = &self.m.machine.core_clocks;
        self.m.machine.cycles.now() + (0..clocks.cores()).map(|c| clocks.now(c)).sum::<u64>()
    }

    fn machine_trace(&mut self, on: bool) {
        let sink = self.m.trace();
        if on {
            sink.enable(self.m.machine.cores);
        } else if sink.is_enabled() {
            sink.disable();
            tally_leaves(&sink.drain(), &mut self.leaves);
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
        assert_eq!(inputs(5, TINY), inputs(5, TINY));
        assert_ne!(inputs(5, TINY), inputs(6, TINY));
        let i = inputs(5, TINY);
        let mut pages = i.lifecycle_lanes.clone();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(
            pages.len(),
            TINY.lifecycle_lanes,
            "lifecycle lanes are distinct pages"
        );
        assert!(i.reattest.iter().all(|&r| (r as usize) < TINY.residents));
    }
}
