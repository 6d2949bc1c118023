//! The four workloads, their reference — the request frames rendered
//! once and the answer expected for every frame, computed in-process,
//! never taken from the daemon under test — and their set-up: an
//! in-process daemon on `Session::full()`.

use gpa_pipeline::{AnalysisJob, Session};
use gpa_sampling::KernelProfile;
use gpa_serve::protocol::{self, Request, WireOptions};
use gpa_serve::store::fingerprint;
use gpa_serve::{serve, PeerMeta, ServeClient, ServerConfig, ServerHandle};
use rand::{Rng, StdRng};
use std::net::SocketAddr;
use std::sync::Arc;

/// A closed-loop traffic shape. Each stresses one layer and leaves
/// another idle (see `README.md` for the layer map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 21 cold `analyze` requests per wave, flat memory model.
    ColdFlat,
    /// The same wave under the timed memory hierarchy.
    ColdHier,
    /// 47 `analyze_profile` uploads per wave: the simulator is bypassed.
    UploadAdvise,
    /// Dial, one warm `analyze`, close: the serving tier alone.
    WarmDial,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdFlat, Workload::ColdHier, Workload::UploadAdvise, Workload::WarmDial];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFlat => "cold_flat",
            Workload::ColdHier => "cold_hier",
            Workload::UploadAdvise => "upload_advise",
            Workload::WarmDial => "warm_dial",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether one op is a whole wave on a kept-open connection (`true`)
    /// or one dial-request-close (`false`).
    pub fn op_is_wave(self) -> bool {
        self != Workload::WarmDial
    }

    /// Untimed ops before the timed section: enough to settle the
    /// daemon and to estimate the op's duration.
    pub fn warm_up_ops(self) -> usize {
        match self {
            Workload::ColdFlat | Workload::ColdHier => 1,
            Workload::UploadAdvise => 20,
            Workload::WarmDial => 2_000,
        }
    }

    /// Complete fresh set-ups per run; `setup_s` is their median and the
    /// last one is measured on. As many as fit about a second, never
    /// fewer than three: a `cold_*` set-up is a simulated wave (~1 s),
    /// the others take 8 to 30 ms and a median of three of those would
    /// be all scheduler noise.
    pub fn set_ups(self) -> usize {
        match self {
            Workload::ColdFlat | Workload::ColdHier => 3,
            Workload::UploadAdvise | Workload::WarmDial => 31,
        }
    }

    /// Whether every answer must come from the report store.
    pub fn expects_cached(self) -> bool {
        self == Workload::WarmDial
    }

    fn options(self) -> WireOptions {
        WireOptions { hierarchy: self == Workload::ColdHier, ..WireOptions::v2() }
    }

    /// Capacity 1 keeps every `cold_*`/`upload_advise` answer a computed
    /// one (each insert evicts the previous body); `warm_dial` holds all
    /// 21 bodies.
    fn store_capacity(self) -> usize {
        if self.expects_cached() {
            ServerConfig::default().store_capacity
        } else {
            1
        }
    }

    /// The session whose answers are the reference: configured the way
    /// the daemon configures the one it answers this workload from.
    fn reference_session(self) -> Session {
        if self == Workload::ColdHier {
            Session::full().with_hierarchy()
        } else {
            Session::full()
        }
    }

    fn jobs(self, session: &Session) -> Vec<AnalysisJob> {
        if self == Workload::UploadAdvise {
            session.jobs_for_all_variants()
        } else {
            session.jobs_for_all_apps()
        }
    }
}

/// One request of the wave: the frame as sent and the line expected
/// back, newline included.
pub struct Slot {
    pub job: AnalysisJob,
    pub frame: String,
    /// The compact result body, as the report store holds it.
    pub body: String,
    pub expect: String,
    expect_fp: u64,
    /// The profile an upload frame carries.
    pub profile: Option<KernelProfile>,
}

impl Slot {
    fn new(
        job: AnalysisJob,
        frame: String,
        cached: bool,
        body: String,
        profile: Option<KernelProfile>,
    ) -> Slot {
        let expect = protocol::ok_frame(cached, &body) + "\n";
        Slot { job, frame, body, expect_fp: fingerprint(&expect), expect, profile }
    }

    /// The timed loop's check: length and fingerprint. A wrong `cached`
    /// flag changes the bytes, so it fails here too.
    pub fn matches(&self, line: &str) -> bool {
        line.len() == self.expect.len() && fingerprint(line) == self.expect_fp
    }
}

/// The deterministic part of a run — the request frames and the answer
/// expected for each — computed in-process, once, before any set-up is
/// timed: it is the same on every run and no part of what `setup_s`
/// measures.
pub struct Reference {
    /// The session the answers came from.
    pub session: Session,
    pub slots: Vec<Slot>,
}

impl Reference {
    pub fn compute(workload: Workload) -> Result<Reference, String> {
        let session = workload.reference_session();
        let options = workload.options();
        let cached = workload.expects_cached();
        let mut slots = Vec::new();
        for job in workload.jobs(&session) {
            let slot = if workload == Workload::UploadAdvise {
                let (_, profile, _) = session.profile_one(&job).map_err(|e| e.to_string())?;
                let frame = protocol::analyze_profile_frame(
                    &job.app,
                    job.variant,
                    &profile.to_doc().compact(),
                    &options,
                );
                let report = session
                    .advise_profile_request(&job, &profile, &options.request)
                    .map_err(|e| e.to_string())?;
                let body = protocol::profile_body(&job, &profile, &report, options.schema);
                Slot::new(job, frame, cached, body.compact(), Some(profile))
            } else {
                let outcome =
                    session.run_one_request(&job, &options.request).map_err(|e| e.to_string())?;
                let body = protocol::analyze_body(&outcome, options.schema).compact();
                let frame = Request::Analyze { job: job.clone(), options: options.clone() };
                Slot::new(job, frame.to_wire(), cached, body, None)
            };
            slots.push(slot);
        }
        Ok(Reference { session, slots })
    }
}

/// A live daemon and the wave to drive and check it with.
pub struct Fixture<'a> {
    pub workload: Workload,
    pub slots: &'a [Slot],
    pub addr: SocketAddr,
    // `ServerHandle`'s drop stops the daemon and joins it.
    _daemon: ServerHandle,
}

impl<'a> Fixture<'a> {
    /// One complete fresh set-up, the thing `setup_s` times: new session,
    /// artifacts for the workload's jobs, daemon start, store fill, and a
    /// verification wave compared byte for byte (which also makes the
    /// daemon take its `MemInit` snapshots and build its hierarchy twin).
    pub fn build(workload: Workload, slots: &'a [Slot]) -> Result<Fixture<'a>, String> {
        let session = Arc::new(Session::full());
        for slot in slots {
            session.artifacts(&slot.job).map_err(|e| e.to_string())?;
        }
        let config = ServerConfig {
            reactors: 1,
            workers: 1,
            store_capacity: workload.store_capacity(),
            ..ServerConfig::ephemeral()
        };
        let daemon = serve(session, config).map_err(|e| e.to_string())?;
        let addr = daemon.local_addr();
        let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
        if workload.expects_cached() {
            let options = workload.options();
            for slot in slots {
                let request = Request::Analyze { job: slot.job.clone(), options: options.clone() };
                let put = Request::StorePut {
                    key: request.cache_key().expect("analyze is cacheable"),
                    body: slot.body.clone(),
                    meta: PeerMeta::default(),
                };
                let line = client.request_line(&put.to_wire()).map_err(|e| e.to_string())?;
                if !line.starts_with("{\"ok\":true") {
                    return Err(format!("store fill refused for {}: {line}", slot.job));
                }
            }
        }
        for slot in slots {
            let line = client.request_line(&slot.frame).map_err(|e| e.to_string())?;
            if line != slot.expect {
                return Err(format!(
                    "{}: daemon answer for {} differs from the in-process reference \
                     ({} vs {} bytes): {:.160}",
                    workload.name(),
                    slot.job,
                    line.len(),
                    slot.expect.len(),
                    line
                ));
            }
        }
        Ok(Fixture { workload, slots, addr, _daemon: daemon })
    }
}

/// The request order of successive waves: a seeded shuffle per wave of
/// every request but the last, which stays last. A wave therefore never
/// opens with the key the previous one — or the verification wave, or an
/// earlier run — closed with, which a capacity-1 store would answer from
/// cache; and every run leaves the store as it found it, so the daemon's
/// counters do not depend on the seed.
pub struct WaveOrder {
    rng: StdRng,
    order: Vec<usize>,
}

impl WaveOrder {
    pub fn new(rng: StdRng, slots: usize) -> WaveOrder {
        WaveOrder { rng, order: (0..slots).collect() }
    }

    /// Reshuffles in place (no allocation: this runs inside a block).
    pub fn next_wave(&mut self) -> &[usize] {
        for i in (1..self.order.len() - 1).rev() {
            let j = self.rng.gen_range(0..=i);
            self.order.swap(i, j);
        }
        &self.order
    }

    /// The next key of a dial sequence.
    pub fn next_key(&mut self) -> usize {
        self.rng.gen_range(0..self.order.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn waves(seed: u64, n: usize) -> Vec<Vec<usize>> {
        let mut order = WaveOrder::new(StdRng::seed_from_u64(seed), 21);
        (0..n).map(|_| order.next_wave().to_vec()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_order_and_another_seed_another() {
        assert_eq!(waves(7, 5), waves(7, 5));
        assert_ne!(waves(7, 5), waves(8, 5));
        let mut a = WaveOrder::new(StdRng::seed_from_u64(3), 21);
        let mut b = WaveOrder::new(StdRng::seed_from_u64(3), 21);
        let mut c = WaveOrder::new(StdRng::seed_from_u64(4), 21);
        let keys = |o: &mut WaveOrder| (0..50).map(|_| o.next_key()).collect::<Vec<_>>();
        let first = keys(&mut a);
        assert_eq!(first, keys(&mut b));
        assert_ne!(first, keys(&mut c));
    }

    #[test]
    fn every_wave_is_a_permutation_that_ends_on_the_last_key() {
        for wave in waves(11, 400) {
            assert_eq!(wave[20], 20);
            let mut sorted = wave;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..21).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
