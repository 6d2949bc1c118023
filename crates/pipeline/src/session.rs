//! The [`Session`]: shared configuration, the module-artifact cache, and
//! single/batch execution.

use crate::{AnalysisError, AnalysisJob, AnalysisOutcome};
use gpa_arch::{ArchConfig, LatencyTable};
use gpa_core::{AdviceRequest, Advisor, ModuleBlame};
use gpa_kernels::apps::app_by_name;
use gpa_kernels::{runner, KernelSpec, Params};
use gpa_sampling::{KernelProfile, Profiler};
use gpa_sim::{CompiledProgram, GpuSim, SimConfig};
use gpa_structure::ProgramStructure;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Everything derivable from one built kernel variant, constructed once
/// per `(app, variant)` and shared via [`Arc`] across runs: the linked
/// module with its setup closure ([`KernelSpec`]), the static analysis
/// ([`ProgramStructure`], which embeds each function's CFG and loop
/// forest), and the simulator lowering ([`CompiledProgram`]), so repeat
/// launches — batch re-runs, daemon traffic — skip re-lowering the
/// module every time.
pub struct ModuleArtifacts {
    /// The built kernel variant (module, entry, launch, setup).
    pub spec: KernelSpec,
    /// Static analysis of `spec.module`.
    pub structure: ProgramStructure,
    /// The module lowered for simulation, reused across launches.
    pub program: Arc<CompiledProgram>,
    /// Snapshot of device memory and kernel params after the spec's
    /// setup closure ran once: setup closures are deterministic per
    /// variant, so repeat launches clone the initialized pages instead
    /// of replaying element-wise host writes.
    init: OnceLock<MemInit>,
}

/// The device state a spec's setup closure produced (see
/// [`ModuleArtifacts::init`]).
struct MemInit {
    global: gpa_sim::GlobalMem,
    params: Vec<u8>,
}

/// A long-lived analysis context: owns the experiment configuration and
/// the artifact cache, and executes [`AnalysisJob`]s one at a time or as
/// a parallel batch.
///
/// Cloning is deliberately not offered: share one session (`&Session` is
/// enough — every method takes `&self`) so all consumers hit the same
/// cache.
pub struct Session {
    arch: ArchConfig,
    sim: SimConfig,
    latency: LatencyTable,
    params: Params,
    advisor: Advisor,
    repeat: u32,
    cache: Mutex<HashMap<(String, usize), Arc<ModuleArtifacts>>>,
}

impl Session {
    /// A session with explicit configuration.
    pub fn new(arch: ArchConfig, sim: SimConfig, params: Params) -> Self {
        let latency = LatencyTable::for_arch(&arch);
        Session {
            arch,
            sim,
            latency,
            params,
            advisor: Advisor::new(),
            repeat: 1,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The configuration the experiment harnesses use: the scaled-down
    /// paper device and sampling period, as [`gpa_kernels::runner`]
    /// spells them.
    pub fn for_params(params: Params) -> Self {
        Session::new(runner::arch_for(&params), runner::sim_config(), params)
    }

    /// The full-scale suite session (Table 3 harness, CLI).
    pub fn full() -> Self {
        Session::for_params(Params::full())
    }

    /// A tiny session for unit/integration tests.
    pub fn test() -> Self {
        Session::for_params(Params::test())
    }

    /// Replaces the advisor (e.g. a custom optimizer catalog).
    #[must_use]
    pub fn with_advisor(mut self, advisor: Advisor) -> Self {
        self.advisor = advisor;
        self
    }

    /// Makes the timed memory hierarchy ([`gpa_arch::MemModel`], default
    /// [`gpa_arch::HierarchyConfig`]) the session's default model. The
    /// model is read only when a launch is timed: artifacts, the latency
    /// table and advice are the same under either, so one session serves
    /// both (see [`Session::run_one_request_repeat`]).
    #[must_use]
    pub fn with_hierarchy(mut self) -> Self {
        self.arch = self.arch.with_hierarchy();
        self
    }

    /// Sets the session's default profiling-repeat count: every sampling
    /// run replays the kernel this many times with shifted sampling
    /// phases and merges the profiles (replay-style noise reduction, see
    /// [`gpa_sampling::Profiler::profile_compiled`]). Values below 1 are
    /// clamped to 1 (plain single-launch profiling — the default).
    #[must_use]
    pub fn with_repeat(mut self, repeat: u32) -> Self {
        self.repeat = repeat.max(1);
        self
    }

    /// The device configuration.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The simulator configuration.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim
    }

    /// The pre-built latency table.
    pub fn latency(&self) -> &LatencyTable {
        &self.latency
    }

    /// The suite scaling parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Width of the worker pool [`Session::run_batch`] fans out over.
    pub fn workers(&self) -> usize {
        rayon::current_num_threads()
    }

    /// Cached artifacts for `(app, variant)`, building them on first use.
    /// Repeated calls return the same [`Arc`].
    ///
    /// # Errors
    ///
    /// When the app is unknown or the variant out of range.
    pub fn artifacts(&self, job: &AnalysisJob) -> Result<Arc<ModuleArtifacts>, AnalysisError> {
        let key = (job.app.clone(), job.variant);
        // Fast path under the lock; build outside it so a slow module
        // build does not serialize unrelated cache hits.
        if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let app = app_by_name(&job.app)
            .ok_or_else(|| AnalysisError::new(job, "unknown app (try `gpa list`)"))?;
        if job.variant >= app.variants() {
            return Err(AnalysisError::new(
                job,
                format!("variant out of range (app has 0..{})", app.variants() - 1),
            ));
        }
        let built = Arc::new(self.build_artifacts(job, (app.build)(job.variant, &self.params))?);
        let mut cache = self.cache.lock().expect("cache lock");
        // Two workers may race to build the same key; keep the first.
        Ok(Arc::clone(cache.entry(key).or_insert(built)))
    }

    /// Everything derivable from `spec`: the one place [`ModuleArtifacts`]
    /// are constructed, cached ([`Session::artifacts`]) or not
    /// ([`Session::analyze_spec`]).
    fn build_artifacts(
        &self,
        job: &AnalysisJob,
        spec: KernelSpec,
    ) -> Result<ModuleArtifacts, AnalysisError> {
        let program = CompiledProgram::build(&spec.module, &spec.entry, &self.arch)
            .map_err(|e| AnalysisError::new(job, e.to_string()))?;
        let structure = ProgramStructure::build(&spec.module);
        Ok(ModuleArtifacts { spec, structure, program: Arc::new(program), init: OnceLock::new() })
    }

    /// Number of artifact-cache entries (for tests and diagnostics).
    pub fn cached_modules(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// A simulator armed for an artifact's kernel: device built, constant
    /// bank wired, inputs initialized. The first call per artifact runs
    /// the spec's setup closure and snapshots the resulting device
    /// memory; later calls clone the snapshot instead of replaying the
    /// element-wise host writes (a large share of repeat-launch cost).
    /// `hierarchy` times this device's memory through the hierarchy; the
    /// session's own model applies otherwise.
    fn armed_gpu(&self, artifacts: &ModuleArtifacts, hierarchy: bool) -> (GpuSim, Vec<u8>) {
        let spec = &artifacts.spec;
        let init = artifacts.init.get_or_init(|| {
            let (gpu, params) = runner::armed_gpu_with(spec, &self.arch, self.sim.clone());
            MemInit { global: gpu.global().clone(), params }
        });
        let arch = self.arch.clone();
        let arch = if hierarchy { arch.with_hierarchy() } else { arch };
        let gpu = runner::rearmed_gpu(spec, arch, self.sim.clone(), init.global.clone());
        (gpu, init.params.clone())
    }

    /// Runs an artifact's kernel with the profiler attached: the sampling
    /// primitive every analysis path shares. Uses the artifact's cached
    /// [`CompiledProgram`] and memory snapshot, so only the launch itself
    /// is paid per run. `repeat > 1` replays the launch with shifted
    /// sampling phases and merges the profiles; the returned cycles are
    /// always the phase-0 (single-launch) ground truth.
    fn sample_artifacts(
        &self,
        job: &AnalysisJob,
        artifacts: &ModuleArtifacts,
        repeat: u32,
        hierarchy: bool,
    ) -> Result<(KernelProfile, u64), AnalysisError> {
        let (gpu, host_params) = self.armed_gpu(artifacts, hierarchy);
        let (profile, result) = Profiler::new(gpu)
            .profile_compiled(&artifacts.program, &artifacts.spec.launch, &host_params, repeat)
            .map_err(|e| AnalysisError::new(job, e.to_string()))?;
        Ok((profile, result.cycles))
    }

    /// Advises on a sampled profile using an artifact's cached static
    /// analysis and the session's latency table, scoped by a per-call
    /// [`AdviceRequest`].
    fn advise_artifacts(
        &self,
        artifacts: &ModuleArtifacts,
        profile: &KernelProfile,
        request: &AdviceRequest,
    ) -> gpa_core::AdviceReport {
        self.advisor.advise_request(
            &artifacts.spec.module,
            &artifacts.structure,
            &self.latency,
            profile,
            &self.arch,
            request,
        )
    }

    /// The sampling primitive: runs a job's kernel with the profiler
    /// attached and returns the cached artifacts, the aggregated profile,
    /// and ground-truth cycles. [`Session::run_one`] and
    /// [`Session::blame_one`] layer on top.
    ///
    /// # Errors
    ///
    /// Unknown app/variant, or a simulator fault.
    pub fn profile_one(
        &self,
        job: &AnalysisJob,
    ) -> Result<(Arc<ModuleArtifacts>, KernelProfile, u64), AnalysisError> {
        let artifacts = self.artifacts(job)?;
        let (profile, cycles) = self.sample_artifacts(job, &artifacts, self.repeat, false)?;
        Ok((artifacts, profile, cycles))
    }

    /// Runs one job: simulate with sampling, aggregate the profile, and
    /// produce the ranked advice report with the advisor's default
    /// options (see [`gpa_core::AdvisorBuilder::defaults`]).
    ///
    /// # Errors
    ///
    /// Unknown app/variant, or a simulator fault.
    pub fn run_one(&self, job: &AnalysisJob) -> Result<AnalysisOutcome, AnalysisError> {
        self.run_one_request(job, self.advisor.defaults())
    }

    /// [`Session::run_one`] scoped by a per-call [`AdviceRequest`]
    /// (top-k, category/optimizer filters, hotspot budget, evidence).
    ///
    /// # Errors
    ///
    /// Unknown app/variant, or a simulator fault.
    pub fn run_one_request(
        &self,
        job: &AnalysisJob,
        request: &AdviceRequest,
    ) -> Result<AnalysisOutcome, AnalysisError> {
        self.run_one_request_repeat(job, request, self.repeat, false)
    }

    /// [`Session::run_one_request`] with the two per-run values a daemon
    /// request can carry. `repeat`: the profile the advisor sees is the
    /// merge of that many replayed launches (see
    /// [`Session::with_repeat`]). `hierarchy`: time memory through the
    /// hierarchy for this run, as [`Session::with_hierarchy`] does for
    /// every run; `false` keeps the session's own model. Both models
    /// share the session's artifacts.
    ///
    /// # Errors
    ///
    /// Unknown app/variant, or a simulator fault.
    pub fn run_one_request_repeat(
        &self,
        job: &AnalysisJob,
        request: &AdviceRequest,
        repeat: u32,
        hierarchy: bool,
    ) -> Result<AnalysisOutcome, AnalysisError> {
        let t0 = Instant::now();
        let artifacts = self.artifacts(job)?;
        self.analyze_artifacts(t0, job.clone(), artifacts, request, repeat, hierarchy)
    }

    /// Samples and advises on an artifact's kernel: the one place an
    /// [`AnalysisOutcome`] is assembled, its wall time counted from `t0`.
    fn analyze_artifacts(
        &self,
        t0: Instant,
        job: AnalysisJob,
        artifacts: Arc<ModuleArtifacts>,
        request: &AdviceRequest,
        repeat: u32,
        hierarchy: bool,
    ) -> Result<AnalysisOutcome, AnalysisError> {
        let (profile, cycles) = self.sample_artifacts(&job, &artifacts, repeat, hierarchy)?;
        let report = self.advise_artifacts(&artifacts, &profile, request);
        Ok(AnalysisOutcome {
            job,
            kernel: artifacts.spec.entry.clone(),
            profile,
            cycles,
            report,
            wall: t0.elapsed(),
            artifacts,
        })
    }

    /// Advises on a caller-supplied profile — sampling data that was
    /// gathered elsewhere (a saved `gpa profile` dump, a remote client's
    /// submission) — using the cached static artifacts for `job`. This is
    /// the profiling/advising decoupling point: the kernel is *not*
    /// re-simulated, only matched against `(app, variant)`'s module and
    /// program structure.
    ///
    /// # Errors
    ///
    /// Unknown app or variant out of range.
    pub fn advise_profile(
        &self,
        job: &AnalysisJob,
        profile: &KernelProfile,
    ) -> Result<gpa_core::AdviceReport, AnalysisError> {
        self.advise_profile_request(job, profile, self.advisor.defaults())
    }

    /// [`Session::advise_profile`] scoped by a per-call
    /// [`AdviceRequest`].
    ///
    /// # Errors
    ///
    /// Unknown app or variant out of range.
    pub fn advise_profile_request(
        &self,
        job: &AnalysisJob,
        profile: &KernelProfile,
        request: &AdviceRequest,
    ) -> Result<gpa_core::AdviceReport, AnalysisError> {
        let artifacts = self.artifacts(job)?;
        Ok(self.advise_artifacts(&artifacts, profile, request))
    }

    /// Profiles one job and attributes its stalls, returning the blame
    /// graph (the figure harnesses' flow, without advice ranking).
    ///
    /// # Errors
    ///
    /// Unknown app/variant, or a simulator fault.
    pub fn blame_one(&self, job: &AnalysisJob) -> Result<ModuleBlame, AnalysisError> {
        let (artifacts, profile, _) = self.profile_one(job)?;
        Ok(ModuleBlame::build(
            &artifacts.spec.module,
            &artifacts.structure,
            &profile,
            &self.latency,
        ))
    }

    /// Analyzes a caller-built [`KernelSpec`] (a kernel outside the
    /// registry, e.g. hand-written assembly). The spec is moved into the
    /// returned outcome's artifacts; nothing is cached.
    ///
    /// # Errors
    ///
    /// A simulator fault.
    pub fn analyze_spec(&self, spec: KernelSpec) -> Result<AnalysisOutcome, AnalysisError> {
        let t0 = Instant::now();
        let job = AnalysisJob::new(spec.module.name.clone(), 0);
        let artifacts = Arc::new(self.build_artifacts(&job, spec)?);
        self.analyze_artifacts(t0, job, artifacts, self.advisor.defaults(), self.repeat, false)
    }

    /// Times one job without sampling (ground truth for achieved
    /// speedups).
    ///
    /// # Errors
    ///
    /// Unknown app/variant, or a simulator fault.
    pub fn time_one(&self, job: &AnalysisJob) -> Result<u64, AnalysisError> {
        let artifacts = self.artifacts(job)?;
        time_armed(job, &artifacts.program, &artifacts.spec, self.armed_gpu(&artifacts, false))
    }

    /// Times a caller-built [`KernelSpec`] without sampling (e.g. a
    /// launch-configuration sweep over modified specs).
    ///
    /// # Errors
    ///
    /// A simulator fault.
    pub fn time_spec(&self, spec: &KernelSpec) -> Result<u64, AnalysisError> {
        let job = AnalysisJob::new(spec.module.name.clone(), 0);
        let program = CompiledProgram::build(&spec.module, &spec.entry, &self.arch)
            .map_err(|e| AnalysisError::new(&job, e.to_string()))?;
        time_armed(&job, &program, spec, runner::armed_gpu_with(spec, &self.arch, self.sim.clone()))
    }

    /// Runs many jobs across the worker pool. Results are returned in
    /// job order — index `i` of the output always answers `jobs[i]`,
    /// independent of scheduling — so batch output is deterministic.
    pub fn run_batch(&self, jobs: &[AnalysisJob]) -> Vec<Result<AnalysisOutcome, AnalysisError>> {
        self.run_batch_request(jobs, self.advisor.defaults())
    }

    /// [`Session::run_batch`] with one shared per-call [`AdviceRequest`]
    /// applied to every job.
    pub fn run_batch_request(
        &self,
        jobs: &[AnalysisJob],
        request: &AdviceRequest,
    ) -> Vec<Result<AnalysisOutcome, AnalysisError>> {
        jobs.par_iter().map(|job| self.run_one_request(job, request)).collect()
    }

    /// One baseline job per registry app, in Table 3 order (the CLI's
    /// `analyze --all`).
    pub fn jobs_for_all_apps(&self) -> Vec<AnalysisJob> {
        gpa_kernels::all_apps().iter().map(|app| AnalysisJob::new(app.name, 0)).collect()
    }

    /// Every variant of every registry app, in Table 3 order.
    pub fn jobs_for_all_variants(&self) -> Vec<AnalysisJob> {
        gpa_kernels::all_apps()
            .iter()
            .flat_map(|app| (0..app.variants()).map(|v| AnalysisJob::new(app.name, v)))
            .collect()
    }
}

/// Times `program` on a device armed for `spec`, without sampling: the
/// one timing path [`Session::time_one`] and [`Session::time_spec`]
/// share.
fn time_armed(
    job: &AnalysisJob,
    program: &CompiledProgram,
    spec: &KernelSpec,
    (gpu, host_params): (GpuSim, Vec<u8>),
) -> Result<u64, AnalysisError> {
    Profiler::new(gpu)
        .time_only_compiled(program, &spec.launch, &host_params)
        .map_err(|e| AnalysisError::new(job, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_app_and_bad_variant_are_reported() {
        let s = Session::test();
        let err = s.run_one(&AnalysisJob::new("nope", 0)).unwrap_err();
        assert!(err.message.contains("unknown app"), "{err}");
        let err = s.run_one(&AnalysisJob::new("rodinia/hotspot", 99)).unwrap_err();
        assert!(err.message.contains("variant out of range"), "{err}");
    }

    #[test]
    fn artifacts_are_cached_per_variant() {
        let s = Session::test();
        let a = s.artifacts(&AnalysisJob::new("rodinia/hotspot", 0)).unwrap();
        let b = s.artifacts(&AnalysisJob::new("rodinia/hotspot", 0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same variant shares one build");
        let c = s.artifacts(&AnalysisJob::new("rodinia/hotspot", 1)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different variants differ");
        assert_eq!(s.cached_modules(), 2);
    }

    #[test]
    fn repeat_profiling_sharpens_samples_without_changing_ground_truth() {
        let job = AnalysisJob::new("rodinia/hotspot", 0);
        let single = Session::test().run_one(&job).unwrap();
        let repeated = Session::test().with_repeat(3).run_one(&job).unwrap();
        assert_eq!(repeated.cycles, single.cycles, "ground truth is the phase-0 launch");
        assert_eq!(repeated.profile.cycles, single.profile.cycles);
        assert!(
            repeated.profile.total_samples > single.profile.total_samples,
            "merged replays observe more cycles: {} vs {}",
            repeated.profile.total_samples,
            single.profile.total_samples
        );
        // Per-request override beats the session default.
        let s = Session::test().with_repeat(3);
        let overridden = s.run_one_request_repeat(&job, s.advisor.defaults(), 1, false).unwrap();
        assert_eq!(overridden.profile, single.profile);
    }

    #[test]
    fn job_lists_cover_the_registry() {
        let s = Session::test();
        assert_eq!(s.jobs_for_all_apps().len(), 21);
        assert_eq!(s.jobs_for_all_variants().len(), 21 + 26, "apps + Table 3 rows");
    }
}
