//! The traced run: per-layer numbers for one workload.
//!
//! Three sources. (1) A fixed number of ops through the live daemon,
//! alternately without and with a span per request: the op's wall time,
//! its tail, the tracing overhead, and the daemon's own counters read
//! before and after. (2) An in-process replay of the stages the daemon's
//! worker runs for each job of the wave, one span per call into a
//! crate's public function. (3) Whole-wave spans around the serving
//! tier's small functions. Layers the workload's timed section never
//! enters are not replayed and read 0; the set-up layers are replayed
//! where set-up is heaviest, on `cold_*`.
//!
//! Op and repetition counts are fixed (stated for the nominal run and
//! scaled by `--seconds`), not timed, so every count repeats exactly.
//! The one thing that does not scale is the Table 3 pass of `cold_flat`.

use crate::drive::{self, Plan};
use crate::metrics::{launch_metric, Report};
use crate::stats::{median, op_ms_p50, percentile, tail_percent};
use crate::trace::{SpanLog, NO_JOB};
use crate::workload::{Fixture, Reference, Slot, Workload};
use crate::NOMINAL_SECONDS;
use gpa_arch::{ArchConfig, LatencyTable};
use gpa_core::{AdviceRequest, Advisor, ModuleBlame};
use gpa_json::Json;
use gpa_kernels::apps::app_by_name;
use gpa_kernels::{runner, KernelSpec};
use gpa_pipeline::Session;
use gpa_sampling::{KernelProfile, Profiler};
use gpa_serve::protocol::{self, Request};
use gpa_serve::{ReportStore, Ring, ServeClient};
use gpa_sim::{CompiledProgram, GlobalMem, GpuSim};
use gpa_structure::ProgramStructure;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Untraced/traced rounds through the daemon.
const ROUNDS: u64 = 4;
/// Repetitions, in a nominal run, of calls that simulate or build (a
/// wave of launches is ~1 s, so 15 of each would not fit a run).
const HEAVY_REPS: usize = 5;
/// Repetitions, in a nominal run, of everything else.
const LIGHT_REPS: usize = 15;

/// Ops per client per round at the nominal `--seconds`.
fn round_ops(workload: Workload) -> usize {
    match workload {
        Workload::ColdFlat | Workload::ColdHier => 1,
        Workload::UploadAdvise => 15,
        Workload::WarmDial => 3_000,
    }
}

fn scaled(count: usize, seconds: f64) -> usize {
    ((count as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(1)
}

/// The artifacts of one job, built stage by stage under spans.
struct Prepared {
    spec: KernelSpec,
    structure: ProgramStructure,
    program: CompiledProgram,
    snapshot: GlobalMem,
    host_params: Vec<u8>,
}

struct Tracer<'a> {
    fixture: &'a Fixture<'a>,
    /// The session the reference answers came from.
    session: &'a Session,
    heavy_reps: usize,
    light_reps: usize,
    arch: ArchConfig,
    latency: LatencyTable,
    advisor: Advisor,
    /// The advisor's defaults: what a frame without options asks for.
    request: AdviceRequest,
    log: SpanLog,
    values: BTreeMap<String, f64>,
    /// Median wall time of one untraced op through the daemon.
    op_ms: f64,
}

/// Runs the traced variant of `workload` and writes its spans to
/// `spans_path`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_path: &Path,
) -> Result<Report, String> {
    let reference = Reference::compute(workload)?;
    let fixture = Fixture::build(workload, &reference.slots)?;
    let arch = reference.session.arch().clone();
    let advisor = Advisor::new();
    let mut tracer = Tracer {
        session: &reference.session,
        heavy_reps: scaled(HEAVY_REPS, seconds),
        light_reps: scaled(LIGHT_REPS, seconds),
        latency: LatencyTable::for_arch(&arch),
        arch,
        request: advisor.defaults().clone(),
        advisor,
        log: SpanLog::with_capacity(Instant::now(), 1 << 16),
        values: BTreeMap::new(),
        op_ms: 0.0,
        fixture: &fixture,
    };
    let (attempted, failed) = tracer.through_the_daemon(seed, seconds)?;
    match workload {
        Workload::ColdFlat | Workload::ColdHier => {
            let prepared = tracer.replay_set_up()?;
            tracer.replay_cold(&prepared)?;
        }
        Workload::UploadAdvise => tracer.replay_upload()?,
        Workload::WarmDial => tracer.persistent_connection(seed, seconds)?,
    }
    tracer.serving_tier()?;
    tracer.coverage();
    if workload == Workload::ColdFlat {
        tracer.table3()?;
    }
    tracer.log.write(spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    Ok(Report { attempted, failed, values: tracer.values })
}

impl Tracer<'_> {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|name| self.get(name)).sum()
    }

    /// Sets `<span>_ms` to what one wave spends in the spans called
    /// `span`: Σ over jobs of the per-job median.
    fn set_wave_ms(&mut self, span: &str) {
        let ms = self.log.wave_ms(span);
        self.set(&format!("{span}_ms"), ms);
    }

    /// Runs `call` on every slot of the wave under one span,
    /// `light_reps` times, and sets `<span>_us` to the median time per
    /// call in microseconds.
    fn per_call_us<R>(&mut self, span: &'static str, mut call: impl FnMut(usize, &Slot) -> R) {
        let slots = self.fixture.slots;
        for _ in 0..self.light_reps {
            self.log.time(span, NO_JOB, None, || {
                for (i, slot) in slots.iter().enumerate() {
                    std::hint::black_box(call(i, slot));
                }
            });
        }
        let us = self.log.wave_ms(span) * 1e3 / slots.len() as f64;
        self.set(&format!("{span}_us"), us);
    }

    /// Source 1: ops through the live daemon, and its counters.
    fn through_the_daemon(&mut self, seed: u64, seconds: f64) -> Result<(u64, u64), String> {
        let fixture = self.fixture;
        let plan = Plan { blocks: 1, ops_per_block: scaled(round_ops(fixture.workload), seconds) };
        let epoch = self.log.epoch();
        let before = Status::read(fixture)?;
        let (mut plain, mut traced, mut failed) = (Vec::new(), Vec::new(), 0);
        for round in 0..ROUNDS {
            let run = drive::run(fixture, plan, seed.wrapping_add(2 * round), None, None)?;
            plain.extend(run.lat_ns);
            failed += run.failed;
            let run =
                drive::run(fixture, plan, seed.wrapping_add(2 * round + 1), None, Some(epoch))?;
            traced.extend(run.lat_ns);
            failed += run.failed;
            self.log.absorb(run.spans.expect("a traced run keeps spans"));
        }
        let after = Status::read(fixture)?;
        for ((name, now), (_, then)) in after.0.into_iter().zip(before.0) {
            self.set(name, now - then);
        }

        self.op_ms = op_ms_p50(&plain);
        self.set("trace.overhead_pct", 100.0 * (op_ms_p50(&traced) - self.op_ms) / self.op_ms);
        let mut all: Vec<f64> =
            plain.iter().chain(&traced).map(|&ns| f64::from(ns) / 1e6).collect();
        all.sort_by(f64::total_cmp);
        let tail = tail_percent(all.len());
        self.set("trace.ops", all.len() as f64);
        self.set("serve.op_tail_pct", tail);
        self.set("serve.op_ms_tail", percentile(&all, tail));
        Ok((all.len() as u64, failed))
    }

    /// The set-up layers: what `Session::artifacts` and the first
    /// launch's `MemInit` snapshot cost, stage by stage.
    fn replay_set_up(&mut self) -> Result<Vec<Prepared>, String> {
        let fixture = self.fixture;
        let params = *self.session.params();
        let sim = self.session.sim_config();
        let mut prepared = Vec::new();
        for (j, slot) in fixture.slots.iter().enumerate() {
            let j = j as u32;
            let app = app_by_name(&slot.job.app).ok_or("unknown app")?;
            let mut last = None;
            for _ in 0..self.heavy_reps {
                let root = self.log.open("replay.set_up", j, None);
                let (log, up) = (&mut self.log, Some(root));
                let spec =
                    log.time("kernels.build", j, up, || (app.build)(slot.job.variant, &params));
                let (gpu, host_params) = log.time("kernels.mem_init", j, up, || {
                    runner::armed_gpu_with(&spec, &self.arch, sim.clone())
                });
                let structure =
                    log.time("structure.build", j, up, || ProgramStructure::build(&spec.module));
                let program = log
                    .time("sim.compile", j, up, || {
                        CompiledProgram::build(&spec.module, &spec.entry, &self.arch)
                    })
                    .map_err(|e| e.to_string())?;
                log.close(root);
                let snapshot = gpu.global().clone();
                last = Some(Prepared { spec, structure, program, snapshot, host_params });
            }
            prepared.extend(last);
        }
        for span in ["kernels.build", "kernels.mem_init", "structure.build", "sim.compile"] {
            self.set_wave_ms(span);
        }
        Ok(prepared)
    }

    /// A device armed the way `Session` arms one per launch: constant
    /// bank wired, memory cloned from the snapshot (under a span).
    fn armed(&mut self, p: &Prepared, j: u32, root: u32) -> GpuSim {
        let sim = self.session.sim_config().clone();
        let mut gpu = GpuSim::new(self.arch.clone(), sim);
        if let Some(bank) = &p.spec.const_bank1 {
            gpu.set_const_bank(1, bank.clone());
        }
        *gpu.global_mut() = self.log.time("sim.mem_clone", j, Some(root), || p.snapshot.clone());
        gpu
    }

    /// Source 2 for `cold_*`: clone, launch (unsampled and sampled),
    /// aggregate, then blame/advise/render on the aggregated profile.
    fn replay_cold(&mut self, prepared: &[Prepared]) -> Result<(), String> {
        let fixture = self.fixture;
        let period = self.session.sim_config().sampling_period;
        let mut totals = [0u64; 4];
        let mut profiles = Vec::new();
        for (j, p) in prepared.iter().enumerate() {
            let j = j as u32;
            let mut last = None;
            for _ in 0..self.heavy_reps {
                let root = self.log.open("replay.launch", j, None);
                let gpu = self.armed(p, j, root);
                self.log
                    .time("sim.launch_unsampled", j, Some(root), || {
                        Profiler::new(gpu).time_only_compiled(
                            &p.program,
                            &p.spec.launch,
                            &p.host_params,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let mut gpu = self.armed(p, j, root);
                let result = self
                    .log
                    .time("sim.launch_sampled", j, Some(root), || {
                        gpu.launch_compiled(&p.program, &p.spec.launch, &p.host_params)
                    })
                    .map_err(|e| e.to_string())?;
                let profile = self.log.time("sampling.aggregate", j, Some(root), || {
                    KernelProfile::from_launch(
                        p.program.entry(),
                        p.program.module_name(),
                        p.program.isa_arch(),
                        period,
                        &result,
                    )
                });
                self.log.close(root);
                // The same job through the pipeline's one call, no daemon,
                // back to back with its stages: host-speed drift between
                // the two would otherwise read as unaccounted time.
                self.log
                    .time("pipeline.run_one", j, None, || {
                        self.session.run_one_request(&fixture.slots[j as usize].job, &self.request)
                    })
                    .map_err(|e| e.to_string())?;
                last = Some((result, profile));
            }
            let (result, profile) = last.expect("at least one repetition");
            let counts =
                [result.cycles, result.issued, result.mem_transactions, profile.total_samples];
            for (total, count) in totals.iter_mut().zip(counts) {
                *total += count;
            }
            profiles.push(profile);
        }
        let built: Vec<_> = prepared.iter().map(|p| (&p.spec, &p.structure)).collect();
        self.replay_advice(&built, &profiles);

        for span in
            ["sim.mem_clone", "sim.launch_unsampled", "sim.launch_sampled", "sampling.aggregate"]
        {
            self.set_wave_ms(span);
        }
        let sampled = self.get("sim.launch_sampled_ms");
        self.set("sim.sample_overhead_ms", sampled - self.get("sim.launch_unsampled_ms"));
        for (j, ms) in self.log.job_medians_ms("sim.launch_sampled") {
            self.set(&launch_metric(&fixture.slots[j as usize].job.app), ms);
        }
        let [cycles, winst, transactions, samples] = totals.map(|n| n as f64);
        self.set("sim.cycles", cycles);
        self.set("sim.winst", winst);
        self.set("sim.mem_transactions", transactions);
        self.set("sim.samples", samples);
        self.set("sim.host_ns_per_cycle", sampled * 1e6 / cycles);
        self.set("sim.winst_per_s", winst / (sampled / 1e3));

        self.daemon_overhead(&[
            "sim.mem_clone_ms",
            "sim.launch_sampled_ms",
            "sampling.aggregate_ms",
            "core.advise_ms",
        ]);
        Ok(())
    }

    /// Source 2 for `upload_advise`: parse the frame, validate the
    /// profile, then blame/advise/render — no launch.
    fn replay_upload(&mut self) -> Result<(), String> {
        let fixture = self.fixture;
        let artifacts = fixture
            .slots
            .iter()
            .map(|slot| self.session.artifacts(&slot.job).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let profiles: Vec<KernelProfile> = fixture
            .slots
            .iter()
            .map(|slot| slot.profile.clone().expect("upload slots carry profiles"))
            .collect();
        let canon: Vec<String> = profiles.iter().map(|p| p.to_doc().compact()).collect();
        for _ in 0..self.light_reps {
            for (j, slot) in fixture.slots.iter().enumerate() {
                let log = &mut self.log;
                log.time("json.parse", j as u32, None, || Json::parse(&slot.frame))
                    .map_err(|e| e.to_string())?;
                // Parses its own copy of the document: overlaps
                // `json.parse`, so the two are never added up.
                log.time("sampling.from_json", j as u32, None, || {
                    KernelProfile::from_json(&canon[j])
                })
                .map_err(|e| e.to_string())?;
                log.time("sampling.to_json", j as u32, None, || profiles[j].to_doc().compact());
            }
        }
        for span in ["json.parse", "sampling.from_json", "sampling.to_json"] {
            self.set_wave_ms(span);
        }
        let built: Vec<_> = artifacts.iter().map(|a| (&a.spec, &a.structure)).collect();
        self.replay_advice(&built, &profiles);

        for _ in 0..self.light_reps {
            for (j, slot) in fixture.slots.iter().enumerate() {
                self.log
                    .time("pipeline.run_one", j as u32, None, || {
                        self.session.advise_profile_request(&slot.job, &profiles[j], &self.request)
                    })
                    .map_err(|e| e.to_string())?;
            }
        }
        self.daemon_overhead(&["core.advise_ms"]);
        Ok(())
    }

    /// The `core` stages and the renderers, on each job's built kernel
    /// and profile.
    fn replay_advice(
        &mut self,
        built: &[(&KernelSpec, &ProgramStructure)],
        profiles: &[KernelProfile],
    ) {
        let fixture = self.fixture;
        let (mut edges, mut items, mut pcs, mut profile_bytes) = (0, 0, 0, 0);
        for (j, (&(spec, structure), profile)) in built.iter().zip(profiles).enumerate() {
            let slot = &fixture.slots[j];
            let j = j as u32;
            for rep in 0..self.light_reps {
                let root = self.log.open("replay.advice", j, None);
                let (log, up) = (&mut self.log, Some(root));
                let blame = log.time("core.blame", j, up, || {
                    ModuleBlame::build(&spec.module, structure, profile, &self.latency)
                });
                let report = log.time("core.advise", j, up, || {
                    self.advisor.advise_request(
                        &spec.module,
                        structure,
                        &self.latency,
                        profile,
                        &self.arch,
                        &self.request,
                    )
                });
                let body = log.time("core.render", j, up, || {
                    protocol::profile_body(&slot.job, profile, &report, 2)
                });
                let text = log.time("json.compact", j, up, || body.compact());
                log.time("serve.frame", j, up, || protocol::ok_frame(false, &text));
                log.close(root);
                if rep == 0 {
                    edges += blame.edges().count();
                    items += report.items.len();
                    pcs += profile.pcs.len();
                    profile_bytes += profile.to_doc().compact().len();
                    assert_eq!(text, slot.body, "the replay renders the daemon's bytes");
                }
            }
        }
        for span in ["core.blame", "core.advise", "core.render", "json.compact"] {
            self.set_wave_ms(span);
        }
        // `advise_request` builds its own blame graph first.
        self.set("core.match_estimate_ms", self.get("core.advise_ms") - self.get("core.blame_ms"));
        self.set("core.blame_edges", edges as f64);
        self.set("core.advice_items", items as f64);
        self.set("sampling.pcs", pcs as f64);
        self.set("sampling.profile_bytes", profile_bytes as f64);
    }

    /// The pipeline call against the stages it is made of (`parts`), and
    /// against the same wave through the daemon: what the daemon adds,
    /// seen from outside — request parse, queue wait, thread hand-offs,
    /// store, framing, socket I/O.
    fn daemon_overhead(&mut self, parts: &[&str]) {
        self.set_wave_ms("pipeline.run_one");
        let run_one = self.get("pipeline.run_one_ms");
        self.set("pipeline.unaccounted_ms", run_one - self.sum(parts));
        let session = self.session;
        self.per_call_us("pipeline.artifacts_hit", |_, slot| session.artifacts(&slot.job).is_ok());
        self.set("serve.daemon_overhead_ms", self.op_ms - run_one - self.get("core.render_ms"));
    }

    /// `warm_dial`'s counterpart: the same warm keys on one kept-open
    /// connection — the use that workload deliberately bypasses.
    fn persistent_connection(&mut self, seed: u64, seconds: f64) -> Result<(), String> {
        let slots = self.fixture.slots;
        let mut client = ServeClient::connect(self.fixture.addr).map_err(|e| e.to_string())?;
        let requests = scaled(4_000, seconds);
        let mut us = Vec::with_capacity(requests);
        for i in 0..requests {
            let slot = &slots[(seed as usize).wrapping_add(i * 7) % slots.len()];
            let sent = Instant::now();
            let line = client.request_line(&slot.frame).map_err(|e| e.to_string())?;
            let ok = slot.matches(line);
            us.push(sent.elapsed().as_nanos() as f64 / 1e3);
            if !ok {
                return Err(format!("{}: the kept-open connection's answer differs", slot.job));
            }
        }
        self.set("serve.persistent_req_us_p50", median(us));
        Ok(())
    }

    /// Source 3: the serving tier's per-request functions, a wave of
    /// calls per span.
    fn serving_tier(&mut self) -> Result<(), String> {
        let fixture = self.fixture;
        let requests: Vec<Request> =
            fixture.slots.iter().map(|s| Request::parse(&s.frame)).collect::<Result<_, _>>()?;
        let keys: Vec<String> =
            requests.iter().map(|r| r.cache_key().expect("analyses are cacheable")).collect();
        self.per_call_us("serve.parse", |_, slot| Request::parse(&slot.frame).is_ok());
        self.per_call_us("serve.cache_key", |i, _| requests[i].cache_key());

        let members = ["127.0.0.1:7070", "127.0.0.1:7071", "127.0.0.1:7072"];
        let ring = Ring::new(members.map(String::from));
        self.per_call_us("serve.route", |i, _| ring.owner(&keys[i]).len());

        let full = ReportStore::new(fixture.slots.len(), None).map_err(|e| e.to_string())?;
        for (key, slot) in keys.iter().zip(fixture.slots) {
            full.insert(key, &slot.body);
        }
        self.per_call_us("serve.store_get_hit", |i, _| full.get(&keys[i]).is_some());
        // At capacity 1, as the cold daemons run: every get misses and
        // every insert evicts.
        let single = ReportStore::new(1, None).map_err(|e| e.to_string())?;
        single.insert("warm", "{}");
        self.per_call_us("serve.store_get_miss", |i, _| single.get(&keys[i]).is_none());
        self.per_call_us("serve.store_insert", |i, slot| single.insert(&keys[i], &slot.body));

        if fixture.workload.expects_cached() {
            self.per_call_us("serve.frame", |_, slot| protocol::ok_frame(true, &slot.body));
        } else {
            // Already spanned per job by the replay.
            let us = self.log.wave_ms("serve.frame") * 1e3 / fixture.slots.len() as f64;
            self.set("serve.frame_us", us);
        }
        let addr = fixture.addr;
        self.per_call_us("serve.connect", |_, _| ServeClient::connect(addr).is_ok());
        let body_bytes: usize = fixture.slots.iter().map(|s| s.body.len()).sum();
        self.set("serve.body_bytes", body_bytes as f64);
        Ok(())
    }

    /// Σ of the disjoint request-path spans over the wall time of the
    /// same op through the daemon ("the numbers add up to the wall
    /// clock").
    fn coverage(&mut self) {
        let per_request_us = if self.fixture.workload.op_is_wave() {
            self.fixture.slots.len() as f64
                * self.sum(&[
                    "serve.parse_us",
                    "serve.cache_key_us",
                    "serve.store_get_miss_us",
                    "pipeline.artifacts_hit_us",
                    "serve.store_insert_us",
                    "serve.frame_us",
                ])
        } else {
            self.sum(&[
                "serve.connect_us",
                "serve.parse_us",
                "serve.cache_key_us",
                "serve.store_get_hit_us",
                "serve.frame_us",
            ])
        };
        let per_wave_ms = self.sum(&[
            "sim.mem_clone_ms",
            "sim.launch_sampled_ms",
            "sampling.aggregate_ms",
            "core.advise_ms",
            "core.render_ms",
            "json.compact_ms",
        ]);
        self.set("trace.coverage", (per_wave_ms + per_request_us / 1e3) / self.op_ms);
    }

    /// The fidelity check that must not move when host time does: the
    /// reproduction's Table 3, on the configuration the daemon runs.
    fn table3(&mut self) -> Result<(), String> {
        let session = Session::full();
        let mut rows = Vec::new();
        for app in gpa_kernels::all_apps() {
            rows.extend(gpa_bench::run_app(&session, &app)?.rows);
        }
        let error = gpa_bench::geomean(rows.iter().map(|r| r.error.max(0.001)));
        let hits = rows.iter().filter(|r| r.rank.is_some_and(|k| k <= 5)).count();
        self.set("core.table3_err_pct", 100.0 * error);
        self.set("core.table3_top5_hits", hits as f64);
        Ok(())
    }
}

/// The daemon counters a traced run reports as deltas.
struct Status([(&'static str, f64); 6]);

impl Status {
    fn read(fixture: &Fixture) -> Result<Status, String> {
        let mut client = ServeClient::connect(fixture.addr).map_err(|e| e.to_string())?;
        let body = client.status().and_then(|r| r.into_result()).map_err(|e| e.to_string())?;
        let number = |node: &Json, key: &str| -> Result<f64, String> {
            node.field(key).and_then(Json::as_f64).map_err(|e| e.to_string())
        };
        let section = |key: &str| body.field(key).map_err(|e| e.to_string());
        let (store, roll_up) = (section("store")?, section("reactor")?);
        let reactors = section("reactors")?.as_array().map_err(|e| e.to_string())?;
        let [reactor] = reactors else {
            return Err(format!("expected one reactor, the daemon runs {}", reactors.len()));
        };
        Ok(Status([
            ("serve.store_hits", number(store, "hits")?),
            ("serve.store_misses", number(store, "misses")?),
            ("serve.store_evictions", number(store, "evictions")?),
            ("serve.accepted", number(reactor, "accepted")?),
            ("serve.buffer_reuses", number(reactor, "buffer_reuses")?),
            ("serve.byte_sheds", number(roll_up, "byte_sheds")?),
        ]))
    }
}
