//! The pass-manager pipeline: planning as composable, cached passes.
//!
//! The paper's derivation is a staged analysis — dependence distances →
//! shift/peel amounts → Theorem-1 thresholds → cost estimates — and this
//! module makes the staging explicit. Each stage is a [`Pass`] with a
//! declared name, declared inputs, and a content fingerprint; a
//! [`Pipeline`] schedules passes in dependency order and stores their
//! results in an [`AnalysisArtifacts`] store under an [`ArtifactKey`]
//! that hashes the pass identity, the sequence, the pass fingerprint,
//! and the keys of every input artifact. Because input keys fold into
//! downstream keys, invalidation cascades structurally: changing the IR
//! changes every key, while changing only the planning configuration
//! changes the plan key but leaves the dependence key — and therefore
//! the cached dependence artifact — intact.
//!
//! The public entry point is [`Planner`], a builder over one planning
//! path that serves traced and untraced planning alike through a
//! [`PlanObserver`]. The untraced default ([`NullObserver`]) reports
//! that it wants no events, so the planning passes skip event
//! construction entirely and allocate nothing extra, while an
//! [`ExplainTrace`] observer receives the full event stream (pinned by
//! the `spfc explain` golden).

use crate::codegen::{estimate_block_cost, GroupCost, StripSpec};
use crate::explain::{ExplainEvent, ExplainTrace};
use crate::legality::{plan_nt_requirements, LegalityError, NtRequirement};
use crate::plan::{fusion_plan_observed, singleton_plan, CodegenMethod, FusionPlan, PlanConfig};
use crate::profit::ProfitabilityModel;
use crate::schedule::global_fused_range;
use sp_dep::SequenceDeps;
use sp_ir::display::write_sequence;
use sp_ir::LoopSequence;
use std::any::Any;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::Instant;

/// Version prefix folded into every [`ArtifactKey`]. Bump it whenever a
/// pass changes semantics without changing its fingerprint inputs: all
/// previously cached artifacts then miss instead of being served stale.
pub const PIPELINE_VERSION: &str = "spfc-pipeline-v1";

/// Names of the standard passes, usable for [`AnalysisArtifacts::get`]
/// lookups and external seeding.
pub mod pass {
    /// Dependence analysis of the whole sequence (`sp-dep`).
    pub const DEPENDENCE: &str = "dependence";
    /// Greedy group growth + shift/peel derivation (the fusion plan).
    pub const PLAN: &str = "plan";
    /// Theorem-1 iteration-count thresholds per fused group.
    pub const LEGALITY: &str = "legality";
    /// Per-group iteration/strip/barrier cost estimates.
    pub const COST: &str = "cost";
}

/// 64-bit FNV-1a, the one hash of text and keys in the workspace
/// (artifact keys here, cache keys and disk checksums in `sp-serve`,
/// program digests in `sp-net`; array *values* are hashed by
/// `sp_exec::WordDigest`). Small, dependency-free, and stable across
/// platforms — collision resistance only has to beat accidental aliasing
/// among a handful of programs, not an adversary.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a64`] fed piece by piece: the digest of the concatenation of
/// everything written, without the concatenation ever existing.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The hash of the empty string.
    pub fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Appends `bytes` to the hashed string.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes text as it is formatted, so a keyed text never has to be
/// assembled just to be hashed. Never fails.
impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Content address of one analysis artifact: a hash over the pipeline
/// version, the pass name, the sequence's canonical rendering, the
/// pass's own fingerprint, and the keys of its input artifacts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(pub u64);

impl ArtifactKey {
    /// Fixed-width lowercase hex, for file names and diagnostics.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a of the sequence's canonical rendering, hashed as it is
/// rendered: the text itself is never assembled.
fn seq_hash(seq: &LoopSequence) -> u64 {
    let mut h = Fnv1a64::new();
    let _ = write_sequence(&mut h, seq);
    h.finish()
}

/// Computes the key of pass `name` over a sequence with hash `seq`, the
/// fingerprint `fp` writes, and the given `(input pass, input key)`
/// pairs: the FNV-1a of
///
/// ```text
/// {PIPELINE_VERSION}
/// pass: {name}
/// seq: {seq:016x}
/// fingerprint: {fp}
/// input {pass}: {key}     (one line per input)
/// ```
///
/// written straight into the hasher.
fn artifact_key(
    name: &str,
    seq: u64,
    fp: impl FnOnce(&mut dyn fmt::Write) -> fmt::Result,
    inputs: &[(&'static str, ArtifactKey)],
) -> ArtifactKey {
    // Writing to a hasher cannot fail.
    let mut h = Fnv1a64::new();
    let _ = write!(
        h,
        "{PIPELINE_VERSION}\npass: {name}\nseq: {seq:016x}\nfingerprint: "
    );
    let _ = fp(&mut h);
    h.write(b"\n");
    for (dep, key) in inputs {
        let _ = writeln!(h, "input {dep}: {key}");
    }
    ArtifactKey(h.finish())
}

/// The dependence pass has no fingerprint and no inputs.
fn dependence_key_of_hash(seq: u64) -> ArtifactKey {
    artifact_key(pass::DEPENDENCE, seq, |_| Ok(()), &[])
}

/// The key the standard pipeline assigns to the dependence artifact of
/// `seq`. The dependence pass reads nothing but the sequence, so this
/// key survives any [`PlanConfig`] change — callers holding a
/// `SequenceDeps` from an earlier run (e.g. a serve-tier analysis cache)
/// can seed it into a store with [`AnalysisArtifacts::seed`] and the
/// pipeline will reuse it instead of re-analyzing.
pub fn dependence_key(seq: &LoopSequence) -> ArtifactKey {
    dependence_key_of_hash(seq_hash(seq))
}

/// [`dependence_key`] for a caller that already holds `program`, the
/// sequence's [`sp_ir::display::render_sequence`] text.
pub fn dependence_key_of_rendered(program: &str) -> ArtifactKey {
    dependence_key_of_hash(fnv1a64(program.as_bytes()))
}

/// Everything a pass may read: the sequence being planned and the
/// planner's configuration knobs. Passes must consume *only* what their
/// [`Pass::fingerprint`] covers, or stale artifacts become reusable.
pub struct PassRequest<'a> {
    /// The sequence under analysis.
    pub seq: &'a LoopSequence,
    /// The planning configuration.
    pub config: &'a PlanConfig,
    /// Optional profitability model limiting group growth.
    pub profit: Option<&'a ProfitabilityModel>,
}

/// Observes a planning run: structured explain events from the planning
/// passes plus pass lifecycle notifications from the pipeline itself.
///
/// [`PlanObserver::wants_events`] gates event delivery so the untraced
/// path ([`NullObserver`]) constructs no events at all; an
/// [`ExplainTrace`] observer receives every event.
pub trait PlanObserver {
    /// Whether [`PlanObserver::event`] calls should be made. Passes skip
    /// event construction entirely when this is `false` (the default).
    fn wants_events(&self) -> bool {
        false
    }

    /// One structured planning decision (see [`ExplainEvent`]).
    fn event(&mut self, _e: ExplainEvent) {}

    /// The pipeline is about to run `pass` (not called on reuse).
    fn pass_started(&mut self, _pass: &'static str) {}

    /// The pipeline finished `pass`: `nanos` of work, or `reused = true`
    /// (with `nanos = 0`) when a cached artifact was served instead.
    fn pass_finished(&mut self, _pass: &'static str, _nanos: u64, _reused: bool) {}
}

/// The no-op observer: wants no events, records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl PlanObserver for NullObserver {}

/// One analysis stage. Implementations declare which artifacts they
/// consume ([`Pass::inputs`]) and which configuration they read
/// ([`Pass::fingerprint`]); the pipeline derives each run's
/// [`ArtifactKey`] from both, so a pass never has to reason about
/// invalidation itself.
pub trait Pass: Send + Sync {
    /// Unique, stable pass name (also the artifact's store name).
    fn name(&self) -> &'static str;

    /// Names of passes whose artifacts this pass reads from the store.
    /// The pipeline runs them first and folds their keys into this
    /// pass's key.
    fn inputs(&self) -> &'static [&'static str] {
        &[]
    }

    /// Writes a stable rendering of every request field (beyond the
    /// sequence and the input artifacts) that influences this pass's
    /// output. It goes straight into the artifact key's hasher.
    fn fingerprint(&self, _req: &PassRequest<'_>, _out: &mut dyn fmt::Write) -> fmt::Result {
        Ok(())
    }

    /// Produces the artifact. Input artifacts are present in `store`
    /// (the pipeline schedules dependencies first).
    fn run(
        &self,
        req: &PassRequest<'_>,
        store: &AnalysisArtifacts,
        obs: &mut dyn PlanObserver,
    ) -> Result<Arc<dyn Any + Send + Sync>, LegalityError>;
}

#[derive(Clone)]
struct Entry {
    pass: &'static str,
    key: ArtifactKey,
    value: Arc<dyn Any + Send + Sync>,
}

/// Typed, content-keyed analysis results, one per pass name.
///
/// The store outlives individual planning runs: rerunning a pipeline
/// against it reuses every artifact whose key still matches and
/// recomputes (replacing, and counting as invalidated) every artifact
/// whose key changed. Because input keys cascade into downstream keys,
/// a stale upstream artifact automatically makes every downstream
/// artifact unservable.
#[derive(Clone, Default)]
pub struct AnalysisArtifacts {
    entries: Vec<Entry>,
    reused: u64,
    computed: u64,
    invalidated: u64,
}

impl AnalysisArtifacts {
    /// An empty store.
    pub fn new() -> Self {
        AnalysisArtifacts::default()
    }

    /// Number of artifacts held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no artifacts are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Artifacts served from the store instead of recomputed, across all
    /// pipeline runs against this store.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Artifacts computed by pass execution.
    pub fn computed(&self) -> u64 {
        self.computed
    }

    /// Artifacts replaced because their key no longer matched.
    pub fn invalidated(&self) -> u64 {
        self.invalidated
    }

    /// Seeds an externally produced artifact (e.g. a dependence analysis
    /// from a serve-tier cache) under `pass` and `key`. The pipeline
    /// will reuse it iff `key` matches the key it derives itself — a
    /// wrong key is harmless, the artifact is simply recomputed.
    pub fn seed(
        &mut self,
        pass: &'static str,
        key: ArtifactKey,
        value: Arc<dyn Any + Send + Sync>,
    ) {
        self.put(pass, key, value);
    }

    /// The artifact `pass` produced, downcast to its concrete type.
    pub fn get<T: Any + Send + Sync>(&self, pass: &str) -> Option<Arc<T>> {
        self.entries
            .iter()
            .find(|e| e.pass == pass)
            .and_then(|e| e.value.clone().downcast::<T>().ok())
    }

    /// The key under which `pass`'s artifact is stored.
    pub fn key_of(&self, pass: &str) -> Option<ArtifactKey> {
        self.entries.iter().find(|e| e.pass == pass).map(|e| e.key)
    }

    fn put(&mut self, pass: &'static str, key: ArtifactKey, value: Arc<dyn Any + Send + Sync>) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.pass == pass) {
            if e.key != key {
                self.invalidated += 1;
            }
            e.key = key;
            e.value = value;
        } else {
            self.entries.push(Entry { pass, key, value });
        }
    }
}

/// Per-pass wall time of one planning run, in pipeline order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassTimings {
    /// One entry per scheduled pass.
    pub passes: Vec<PassTiming>,
}

/// Wall time (or reuse) of one pass in one planning run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassTiming {
    /// The pass name.
    pub pass: &'static str,
    /// Nanoseconds spent running the pass (0 when reused).
    pub nanos: u64,
    /// True when the store served a valid artifact instead of running.
    pub reused: bool,
}

impl PassTimings {
    /// Total nanoseconds across all executed passes.
    pub fn total_nanos(&self) -> u64 {
        self.passes.iter().map(|t| t.nanos).sum()
    }

    /// The timing entry for `pass`, if it was scheduled.
    pub fn timing_of(&self, pass: &str) -> Option<&PassTiming> {
        self.passes.iter().find(|t| t.pass == pass)
    }
}

/// Schedules registered passes in declared-dependency order against an
/// [`AnalysisArtifacts`] store, reusing artifacts whose keys match and
/// recomputing the rest.
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// A pipeline with no passes; register them with
    /// [`Pipeline::register`].
    pub fn empty() -> Self {
        Pipeline { passes: Vec::new() }
    }

    /// The standard planning pipeline: dependence → plan → legality →
    /// cost.
    pub fn standard() -> Self {
        let mut p = Pipeline::empty();
        p.register(Box::new(DependencePass));
        p.register(Box::new(PlanPass));
        p.register(Box::new(LegalityPass));
        p.register(Box::new(CostPass));
        p
    }

    /// Appends a pass (replacing any earlier registration of the same
    /// name, so callers can override a standard pass).
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        if let Some(i) = self.passes.iter().position(|p| p.name() == pass.name()) {
            self.passes[i] = pass;
        } else {
            self.passes.push(pass);
        }
    }

    /// Registered pass names, in registration order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every registered pass (dependencies first) against `store`.
    ///
    /// # Panics
    ///
    /// Panics if a pass declares an input that is not registered, or if
    /// the declared dependencies form a cycle — both are construction
    /// errors in the pipeline, not data-dependent conditions.
    pub fn run(
        &self,
        req: &PassRequest<'_>,
        store: &mut AnalysisArtifacts,
        obs: &mut dyn PlanObserver,
    ) -> Result<PassTimings, LegalityError> {
        let seq = seq_hash(req.seq);
        let mut timings = PassTimings::default();
        let mut ensured: Vec<(&'static str, ArtifactKey)> = Vec::new();
        let mut stack: Vec<&'static str> = Vec::new();
        for p in &self.passes {
            self.ensure(
                p.name(),
                req,
                seq,
                store,
                obs,
                &mut timings,
                &mut ensured,
                &mut stack,
            )?;
        }
        Ok(timings)
    }

    #[allow(clippy::too_many_arguments)]
    fn ensure(
        &self,
        name: &'static str,
        req: &PassRequest<'_>,
        seq: u64,
        store: &mut AnalysisArtifacts,
        obs: &mut dyn PlanObserver,
        timings: &mut PassTimings,
        ensured: &mut Vec<(&'static str, ArtifactKey)>,
        stack: &mut Vec<&'static str>,
    ) -> Result<ArtifactKey, LegalityError> {
        if let Some(&(_, key)) = ensured.iter().find(|(n, _)| *n == name) {
            return Ok(key);
        }
        assert!(!stack.contains(&name), "pass dependency cycle at '{name}'");
        let pass = self
            .passes
            .iter()
            .find(|p| p.name() == name)
            .unwrap_or_else(|| panic!("pass '{name}' is required but not registered"));
        stack.push(name);
        let mut inputs = Vec::with_capacity(pass.inputs().len());
        for &dep in pass.inputs() {
            let key = self.ensure(dep, req, seq, store, obs, timings, ensured, stack)?;
            inputs.push((dep, key));
        }
        stack.pop();
        let key = artifact_key(name, seq, |out| pass.fingerprint(req, out), &inputs);
        if store.key_of(name) == Some(key) {
            store.reused += 1;
            timings.passes.push(PassTiming {
                pass: name,
                nanos: 0,
                reused: true,
            });
            obs.pass_finished(name, 0, true);
        } else {
            obs.pass_started(name);
            let t0 = Instant::now();
            let value = pass.run(req, store, obs)?;
            let nanos = t0.elapsed().as_nanos() as u64;
            store.put(name, key, value);
            store.computed += 1;
            timings.passes.push(PassTiming {
                pass: name,
                nanos,
                reused: false,
            });
            obs.pass_finished(name, nanos, false);
        }
        ensured.push((name, key));
        Ok(key)
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.pass_names())
            .finish()
    }
}

/// Dependence analysis of the whole sequence. Reads nothing but the
/// sequence, so its artifact survives every configuration change.
struct DependencePass;

impl Pass for DependencePass {
    fn name(&self) -> &'static str {
        pass::DEPENDENCE
    }

    fn run(
        &self,
        req: &PassRequest<'_>,
        _store: &AnalysisArtifacts,
        _obs: &mut dyn PlanObserver,
    ) -> Result<Arc<dyn Any + Send + Sync>, LegalityError> {
        let deps = sp_dep::analyze_sequence(req.seq).map_err(|e| {
            LegalityError::Derive(crate::derive::DeriveError::Analysis(e.to_string()))
        })?;
        Ok(Arc::new(deps))
    }
}

/// Greedy fusion planning with shift/peel derivation — or the singleton
/// baseline when `config.fuse` is off. Emits the explain event stream
/// (group opens/joins/closes, edge visits, Theorem-1 thresholds) through
/// the observer.
struct PlanPass;

impl Pass for PlanPass {
    fn name(&self) -> &'static str {
        pass::PLAN
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[pass::DEPENDENCE]
    }

    fn fingerprint(&self, req: &PassRequest<'_>, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "{} profit={:?}", req.config, req.profit)
    }

    fn run(
        &self,
        req: &PassRequest<'_>,
        store: &AnalysisArtifacts,
        obs: &mut dyn PlanObserver,
    ) -> Result<Arc<dyn Any + Send + Sync>, LegalityError> {
        let deps = store
            .get::<SequenceDeps>(pass::DEPENDENCE)
            .expect("pipeline schedules dependence before plan");
        let plan = if req.config.fuse {
            fusion_plan_observed(
                req.seq,
                &deps,
                req.config.levels,
                req.config.method,
                req.profit,
                obs,
            )?
        } else {
            singleton_plan(req.seq, &deps, req.config.levels)?
        };
        Ok(Arc::new(plan))
    }
}

/// Theorem-1 iteration-count thresholds for every multi-member group.
struct LegalityPass;

impl Pass for LegalityPass {
    fn name(&self) -> &'static str {
        pass::LEGALITY
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[pass::PLAN]
    }

    fn run(
        &self,
        _req: &PassRequest<'_>,
        store: &AnalysisArtifacts,
        _obs: &mut dyn PlanObserver,
    ) -> Result<Arc<dyn Any + Send + Sync>, LegalityError> {
        let plan = store
            .get::<FusionPlan>(pass::PLAN)
            .expect("pipeline schedules plan before legality");
        Ok(Arc::new(plan_nt_requirements(&plan)))
    }
}

/// Single-block iteration/strip/barrier estimates per multi-member
/// group ([`GroupCost`]), sized by the profitability model's cache when
/// one is supplied.
struct CostPass;

impl Pass for CostPass {
    fn name(&self) -> &'static str {
        pass::COST
    }

    fn inputs(&self) -> &'static [&'static str] {
        &[pass::PLAN]
    }

    fn fingerprint(&self, req: &PassRequest<'_>, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "profit={:?}", req.profit)
    }

    fn run(
        &self,
        req: &PassRequest<'_>,
        store: &AnalysisArtifacts,
        _obs: &mut dyn PlanObserver,
    ) -> Result<Arc<dyn Any + Send + Sync>, LegalityError> {
        let plan = store
            .get::<FusionPlan>(pass::PLAN)
            .expect("pipeline schedules plan before cost");
        let mut costs: Vec<GroupCost> = Vec::new();
        for g in plan.groups.iter().filter(|g| g.len() > 1) {
            let members: Vec<usize> = g.members().collect();
            let range = global_fused_range(req.seq, &members, plan.levels)?;
            let (lo, hi) = range[0];
            let block = (hi - lo + 1).max(1);
            let nest_trips: Vec<u64> = members
                .iter()
                .map(|&k| {
                    req.seq.nests[k]
                        .bounds
                        .iter()
                        .map(|b| b.count() as u64)
                        .product()
                })
                .collect();
            let strip = match req.profit {
                Some(m) => m.strip(req.seq, g.derivation.max_shift(), block),
                None => StripSpec::new(block),
            };
            costs.push(estimate_block_cost(
                &g.derivation,
                &nest_trips,
                block as u64,
                strip,
            ));
        }
        Ok(Arc::new(costs))
    }
}

/// The one planning entry point: a builder over [`PlanConfig`] (mirroring
/// `sp-exec`'s `RunConfig` style) that drives the standard [`Pipeline`]
/// and returns every derived artifact at once.
///
/// ```
/// # use shift_peel_core::pipeline::Planner;
/// # use sp_ir::SeqBuilder;
/// # let mut b = SeqBuilder::new("ex");
/// # let a = b.array("a", [16]);
/// # let c = b.array("c", [16]);
/// # b.nest("L1", [(1, 14)], |x| { let r = x.ld(a, [0]); x.assign(c, [0], r); });
/// # b.nest("L2", [(1, 14)], |x| { let r = x.ld(c, [1]); x.assign(a, [0], r); });
/// # let seq = b.finish();
/// let planned = Planner::fused(1).plan(&seq).unwrap();
/// assert_eq!(planned.plan.fused_group_count(), 1);
/// ```
pub struct Planner {
    config: PlanConfig,
    profit: Option<ProfitabilityModel>,
    pipeline: Pipeline,
}

/// Everything one planning run derives, shared-ownership so callers and
/// caches alike can hold artifacts without cloning the data.
#[derive(Clone, Debug)]
pub struct Planned {
    /// The dependence analysis.
    pub deps: Arc<SequenceDeps>,
    /// The fusion plan.
    pub plan: Arc<FusionPlan>,
    /// Theorem-1 thresholds per multi-member group.
    pub nt: Arc<Vec<NtRequirement>>,
    /// Per-group cost estimates (multi-member groups only).
    pub costs: Arc<Vec<GroupCost>>,
    /// Per-pass wall time of this run.
    pub timings: PassTimings,
}

impl Planner {
    /// A planner over an explicit configuration.
    pub fn new(config: PlanConfig) -> Self {
        Planner {
            config,
            profit: None,
            pipeline: Pipeline::standard(),
        }
    }

    /// Greedy fusion of the first `levels` dimensions (the default
    /// method).
    pub fn fused(levels: usize) -> Self {
        Planner::new(PlanConfig::fused(levels))
    }

    /// The unfused singleton baseline over `levels` dimensions.
    pub fn unfused(levels: usize) -> Self {
        Planner::new(PlanConfig::unfused(levels))
    }

    /// Replaces the codegen method.
    pub fn method(mut self, method: CodegenMethod) -> Self {
        self.config = self.config.method(method);
        self
    }

    /// Limits group growth with a profitability model (Section 6).
    pub fn profit(mut self, model: ProfitabilityModel) -> Self {
        self.profit = Some(model);
        self
    }

    /// Registers an additional pass (or overrides a standard one); it
    /// runs after the standard passes, in registration order.
    pub fn with_pass(mut self, pass: Box<dyn Pass>) -> Self {
        self.pipeline.register(pass);
        self
    }

    /// The configuration this planner derives plans for.
    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// Plans `seq` against a fresh store, untraced.
    pub fn plan(&self, seq: &LoopSequence) -> Result<Planned, LegalityError> {
        self.plan_with(seq, &mut AnalysisArtifacts::new(), &mut NullObserver)
    }

    /// Plans `seq` against an existing store (reusing every artifact
    /// whose key still matches) with an explicit observer.
    pub fn plan_with(
        &self,
        seq: &LoopSequence,
        store: &mut AnalysisArtifacts,
        obs: &mut dyn PlanObserver,
    ) -> Result<Planned, LegalityError> {
        let req = PassRequest {
            seq,
            config: &self.config,
            profit: self.profit.as_ref(),
        };
        let timings = self.pipeline.run(&req, store, obs)?;
        Ok(Planned {
            deps: store
                .get(pass::DEPENDENCE)
                .expect("dependence pass left no artifact"),
            plan: store.get(pass::PLAN).expect("plan pass left no artifact"),
            nt: store
                .get(pass::LEGALITY)
                .expect("legality pass left no artifact"),
            costs: store.get(pass::COST).expect("cost pass left no artifact"),
            timings,
        })
    }

    /// Plans `seq` with full decision tracing: the returned
    /// [`ExplainTrace`] carries the event stream `spfc explain` renders.
    pub fn explain(&self, seq: &LoopSequence) -> Result<(Planned, ExplainTrace), LegalityError> {
        let mut trace = ExplainTrace::new();
        let planned = self.plan_with(seq, &mut AnalysisArtifacts::new(), &mut trace)?;
        Ok((planned, trace))
    }
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("config", &self.config)
            .field("profit", &self.profit)
            .field("pipeline", &self.pipeline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_ir::SeqBuilder;

    fn fig9(n: usize) -> LoopSequence {
        let mut b = SeqBuilder::new("fig9");
        let a = b.array("a", [n]);
        let bb = b.array("b", [n]);
        let c = b.array("c", [n]);
        let d = b.array("d", [n]);
        let (lo, hi) = (1, n as i64 - 2);
        b.nest("L1", [(lo, hi)], |x| {
            let r = x.ld(bb, [0]);
            x.assign(a, [0], r);
        });
        b.nest("L2", [(lo, hi)], |x| {
            let r = x.ld(a, [1]) + x.ld(a, [-1]);
            x.assign(c, [0], r);
        });
        b.nest("L3", [(lo, hi)], |x| {
            let r = x.ld(c, [1]) + x.ld(c, [-1]);
            x.assign(d, [0], r);
        });
        b.finish()
    }

    #[test]
    fn planner_matches_free_function_path() {
        let seq = fig9(64);
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let direct =
            crate::plan::fusion_plan(&seq, &deps, 1, CodegenMethod::StripMined, None).unwrap();
        let planned = Planner::fused(1).plan(&seq).unwrap();
        assert_eq!(*planned.plan, direct);
        assert_eq!(*planned.nt, crate::legality::plan_nt_requirements(&direct));
        assert_eq!(planned.costs.len(), 1);
        // Every standard pass ran exactly once, nothing reused.
        let names: Vec<_> = planned.timings.passes.iter().map(|t| t.pass).collect();
        assert_eq!(
            names,
            vec![pass::DEPENDENCE, pass::PLAN, pass::LEGALITY, pass::COST]
        );
        assert!(planned.timings.passes.iter().all(|t| !t.reused));
    }

    #[test]
    fn unfused_planner_matches_singleton_plan() {
        let seq = fig9(64);
        let deps = sp_dep::analyze_sequence(&seq).unwrap();
        let planned = Planner::unfused(1).plan(&seq).unwrap();
        assert_eq!(*planned.plan, singleton_plan(&seq, &deps, 1).unwrap());
        assert!(planned.nt.is_empty(), "singletons have no thresholds");
    }

    #[test]
    fn rerun_on_same_store_reuses_everything() {
        let seq = fig9(64);
        let planner = Planner::fused(1);
        let mut store = AnalysisArtifacts::new();
        let first = planner
            .plan_with(&seq, &mut store, &mut NullObserver)
            .unwrap();
        assert_eq!(store.computed(), 4);
        let second = planner
            .plan_with(&seq, &mut store, &mut NullObserver)
            .unwrap();
        assert_eq!(*first.plan, *second.plan);
        assert_eq!(store.reused(), 4);
        assert_eq!(store.invalidated(), 0);
        assert!(second.timings.passes.iter().all(|t| t.reused));
        // Reuse hands back the same allocation, not an equal copy.
        assert!(Arc::ptr_eq(&first.deps, &second.deps));
        assert!(Arc::ptr_eq(&first.plan, &second.plan));
    }

    #[test]
    fn ir_change_invalidates_dependence_and_downstream() {
        let planner = Planner::fused(1);
        let mut store = AnalysisArtifacts::new();
        let a = planner
            .plan_with(&fig9(64), &mut store, &mut NullObserver)
            .unwrap();
        // A different sequence: every key changes, everything recomputes.
        let b = planner
            .plan_with(&fig9(128), &mut store, &mut NullObserver)
            .unwrap();
        assert_eq!(store.reused(), 0);
        assert_eq!(store.computed(), 8);
        assert_eq!(store.invalidated(), 4);
        assert!(!Arc::ptr_eq(&a.deps, &b.deps));
    }

    #[test]
    fn config_change_reuses_dependence_recomputes_plan() {
        let seq = fig9(64);
        let mut store = AnalysisArtifacts::new();
        let fused = Planner::fused(1)
            .plan_with(&seq, &mut store, &mut NullObserver)
            .unwrap();
        let unfused = Planner::unfused(1)
            .plan_with(&seq, &mut store, &mut NullObserver)
            .unwrap();
        // The dependence artifact survived the config change...
        assert_eq!(store.reused(), 1);
        assert!(Arc::ptr_eq(&fused.deps, &unfused.deps));
        // ...while plan, legality, and cost were invalidated and redone.
        assert_eq!(store.invalidated(), 3);
        assert!(unfused.timings.timing_of(pass::DEPENDENCE).unwrap().reused);
        assert!(!unfused.timings.timing_of(pass::PLAN).unwrap().reused);
        assert_ne!(*fused.plan, *unfused.plan);
    }

    #[test]
    fn seeded_dependence_artifact_is_reused() {
        let seq = fig9(64);
        let deps = Arc::new(sp_dep::analyze_sequence(&seq).unwrap());
        let mut store = AnalysisArtifacts::new();
        store.seed(pass::DEPENDENCE, dependence_key(&seq), deps.clone());
        let planned = Planner::fused(1)
            .plan_with(&seq, &mut store, &mut NullObserver)
            .unwrap();
        assert!(Arc::ptr_eq(&planned.deps, &deps), "seed must be served");
        assert!(planned.timings.timing_of(pass::DEPENDENCE).unwrap().reused);
        // A wrong key is not served: it recomputes instead.
        let mut wrong = AnalysisArtifacts::new();
        wrong.seed(pass::DEPENDENCE, ArtifactKey(1), deps.clone());
        let planned = Planner::fused(1)
            .plan_with(&seq, &mut wrong, &mut NullObserver)
            .unwrap();
        assert!(!Arc::ptr_eq(&planned.deps, &deps));
        assert_eq!(wrong.invalidated(), 1);
    }

    #[test]
    fn explain_observer_receives_plan_events() {
        let seq = fig9(32);
        let (planned, trace) = Planner::fused(1).explain(&seq).unwrap();
        assert_eq!(planned.plan.groups.len(), 1);
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, ExplainEvent::Threshold { .. })));
    }

    /// The keys the last build that assembled each keyed text in a
    /// `String` derived. Hashing the text as it is written must not move
    /// a byte of it: these name artifacts on disk tiers.
    #[test]
    fn artifact_keys_are_pinned() {
        let keys = |planner: Planner| {
            let mut store = AnalysisArtifacts::new();
            planner
                .plan_with(&fig9(64), &mut store, &mut NullObserver)
                .unwrap();
            [pass::DEPENDENCE, pass::PLAN, pass::LEGALITY, pass::COST]
                .map(|p| store.key_of(p).unwrap().hex())
        };
        assert_eq!(
            keys(Planner::fused(1)),
            [
                "ee07a38f6185c8d1",
                "c0b6f245c27c774f",
                "8a8053a8e45d306d",
                "fc70d95e7f2dd9e2"
            ]
        );
        // A model's keys hash its `Debug` text: they move with its fields.
        let profit = ProfitabilityModel::new(32 * 1024, 4);
        assert_eq!(
            keys(
                Planner::fused(1)
                    .method(CodegenMethod::Direct)
                    .profit(profit)
            ),
            [
                "ee07a38f6185c8d1",
                "a32b31dadd5d748b",
                "fc028c3ee70f267d",
                "827b35f054584e79"
            ]
        );
        assert_eq!(dependence_key(&fig9(64)).hex(), "ee07a38f6185c8d1");
    }

    #[test]
    fn dependence_key_is_sequence_only() {
        let a = dependence_key(&fig9(64));
        assert_eq!(a, dependence_key(&fig9(64)));
        assert_ne!(a, dependence_key(&fig9(128)));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn missing_input_pass_panics() {
        struct Orphan;
        impl Pass for Orphan {
            fn name(&self) -> &'static str {
                "orphan"
            }
            fn inputs(&self) -> &'static [&'static str] {
                &["no-such-pass"]
            }
            fn run(
                &self,
                _req: &PassRequest<'_>,
                _store: &AnalysisArtifacts,
                _obs: &mut dyn PlanObserver,
            ) -> Result<Arc<dyn Any + Send + Sync>, LegalityError> {
                Ok(Arc::new(()))
            }
        }
        let mut p = Pipeline::empty();
        p.register(Box::new(Orphan));
        let seq = fig9(32);
        let cfg = PlanConfig::fused(1);
        let req = PassRequest {
            seq: &seq,
            config: &cfg,
            profit: None,
        };
        let _ = p.run(&req, &mut AnalysisArtifacts::new(), &mut NullObserver);
    }
}
