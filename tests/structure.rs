//! Structure guards: things that once existed twice, or were deleted on
//! purpose, and must not grow back. Each row of [`RULES`] is a text
//! search over first-party files with an expected count; a broken rule
//! fails with its name, the PR that introduced it and why it exists.
//!
//! A pattern is a list of literal alternatives and a line matches when it
//! contains any of them (what `grep -E 'a|b'` did for these in `ci.sh`).
//! This file is never scanned: it has to spell every forbidden name.

use std::fs;
use std::path::Path;

#[derive(Debug)]
enum Expect {
    /// No line matches.
    Absent,
    /// Exactly this many lines match.
    Exactly(usize),
    /// No alternative matches more than this many lines.
    AtMostOfEach(usize),
    /// Exactly one line matches, and the text appears on it or on one of
    /// the next `usize` lines.
    OnceBeside(&'static str, usize),
    /// Exactly this many files are selected (the pattern is not used).
    Files(usize),
}
use Expect::*;

struct Rule {
    name: &'static str,
    /// Files or directories (searched recursively) under the repo root.
    roots: &'static [&'static str],
    /// Glob over the file name; `*` is the only wildcard.
    files: &'static str,
    /// Paths under `roots` the rule does not apply to.
    except: &'static [&'static str],
    any_of: &'static [&'static str],
    /// Drop everything from a file's first `#[cfg(test)]` on.
    cut_tests: bool,
    expect: Expect,
    pr: u32,
    why: &'static str,
}

const SOURCES: &[&str] = &["crates", "src", "tests", "examples"];

/// What a row leaves out: every file under [`SOURCES`], no matching line.
const RULE: Rule = Rule {
    name: "",
    roots: SOURCES,
    files: "*",
    except: &[],
    any_of: &[],
    cut_tests: false,
    expect: Absent,
    pr: 0,
    why: "",
};

const RULES: &[Rule] = &[
    Rule {
        name: "no-deprecated-shims",
        roots: &["crates"],
        files: "*.rs",
        any_of: &["#[deprecated"],
        pr: 12,
        why: "a deprecated item is a second path kept alive: delete the shim instead",
        ..RULE
    },
    Rule {
        name: "one-definition-of-each-helper",
        files: "*.rs",
        any_of: &["fn fnv1a64", "fn splitmix64", "fn string(&mut self)"],
        expect: AtMostOfEach(1),
        pr: 12,
        why: "the key hash, the PRNG and the JSON reader each existed two or three times",
        ..RULE
    },
    Rule {
        name: "one-simd-inner-loop",
        roots: &["crates/exec/src"],
        files: "*.rs",
        any_of: &["vector_block", "scalar_span", "fn boundary"],
        pr: 13,
        why: "the simd backend is one row runner: no lane-blocked pair, no peel detour",
        ..RULE
    },
    Rule {
        name: "one-lowered-form",
        any_of: &[
            "MicroOp",
            "max_stack",
            "analyze_lane_safety",
            "LaneSafetyPass",
        ],
        pr: 15,
        why: "a statement lowers to the row program only: no stack machine, no second verdict",
        ..RULE
    },
    Rule {
        name: "isa-in-one-place",
        files: "*.rs",
        except: &["crates/exec/src/tape.rs", "crates/exec/src/memory.rs"],
        any_of: &["target_feature"],
        pr: 16,
        why: "the row loops (tape.rs) and the seeding loop (memory.rs) are each compiled twice; \
              nothing else enables features",
        ..RULE
    },
    Rule {
        name: "no-intrinsics",
        roots: &["crates"],
        files: "*.rs",
        any_of: &["std::arch::"],
        pr: 16,
        why: "the row loops are plain Rust",
        ..RULE
    },
    Rule {
        name: "no-build-wide-isa",
        roots: &[".cargo/config.toml"],
        any_of: &["target-cpu", "target-feature"],
        pr: 16,
        why: "benchmark/ inherits .cargo/config.toml: it would move the hand-written yardstick",
        ..RULE
    },
    Rule {
        name: "last-op-stores-its-row",
        roots: &["crates/exec/src/tape.rs"],
        any_of: &["copy_nonoverlapping"],
        pr: 16,
        why: "a statement's last op stores its row itself: no temporary-then-copy tail",
        ..RULE
    },
    Rule {
        name: "one-wait-policy",
        roots: &["crates/exec/src/pool.rs"],
        any_of: &["notify_all", "adaptive", "MIN_SPIN", "MAX_SPIN"],
        pr: 17,
        why: "a run wakes only its participants and waits by the clock: no spin budget",
        ..RULE
    },
    Rule {
        name: "bounded-results",
        roots: &["crates/serve/src/service.rs"],
        any_of: &["done.insert("],
        expect: OnceBeside("RESULT_RETENTION", 4),
        pr: 17,
        why: "State::done grows in one place, next to the loop that evicts, or heap grows",
        ..RULE
    },
    Rule {
        name: "service-hashes-no-bytes",
        roots: &["crates/serve/src/service.rs"],
        any_of: &["Fnv1a64", "to_le_bytes"],
        pr: 18,
        why: "arrays are digested a word at a time by WordDigest; FNV is for text and keys",
        ..RULE
    },
    Rule {
        name: "one-array-hasher",
        roots: &["crates"],
        files: "*.rs",
        any_of: &["struct WordDigest"],
        expect: Exactly(1),
        pr: 18,
        why: "digests cross the wire: two hashers would be two protocols",
        ..RULE
    },
    Rule {
        name: "render-into-one-buffer",
        roots: &["crates/ir/src/display.rs"],
        any_of: &["format!(", ".join("],
        pr: 18,
        why: "the renderer built a String per subscript, reference and expression node",
        ..RULE
    },
    Rule {
        name: "client-sends-held-text",
        roots: &["crates/net/src/client.rs"],
        any_of: &["render_sequence(", "program_digest("],
        pr: 19,
        why: "SharedProgram renders and hashes once: send spec.seq.text() / digest()",
        ..RULE
    },
    Rule {
        name: "one-parse-site",
        roots: &["crates/net/src/server.rs"],
        any_of: &["parse_sequence("],
        cut_tests: true,
        expect: Exactly(1),
        pr: 19,
        why: "the server parses a text only behind the registry's by-text lookup",
        ..RULE
    },
    Rule {
        name: "fingerprint-is-streamed",
        any_of: &["encode_payload_for_fingerprint"],
        pr: 19,
        why: "the request fingerprint is not a second encoding of the frame",
        ..RULE
    },
    Rule {
        name: "crc-by-table",
        roots: &["crates/net/src/wire.rs"],
        any_of: &["for _ in 0..8"],
        cut_tests: true,
        pr: 19,
        why: "the bit-at-a-time CRC is the test module's reference, not the wire path",
        ..RULE
    },
    Rule {
        name: "no-criterion",
        roots: &["Cargo.toml", "Cargo.lock", "crates", "vendor"],
        files: "Cargo.*",
        any_of: &["criterion"],
        pr: 24,
        why: "no ci.sh step ran the criterion benches: benchmark/ is the timing instrument",
        ..RULE
    },
    Rule {
        name: "simulator-does-not-serve",
        roots: &["crates/machine/src"],
        any_of: &["sp_serve", "sp_net"],
        pr: 24,
        why: "sp-machine simulates KSR2/Convex; serve and wire speed is benchmark/ serve-mixed",
        ..RULE
    },
    Rule {
        name: "one-bench-artifact",
        roots: &["results"],
        files: "BENCH_*.json",
        expect: Files(1),
        pr: 24,
        why: "`spfc bench check` reads BENCH_runtime.json only: a second one is gated by nothing",
        ..RULE
    },
    Rule {
        name: "deleted-with-no-caller",
        any_of: &[
            "fn distribute_nest",
            "fn distribute_sequence",
            "fn auto_tune",
            "fn analyze_reuse",
            "fn serve_sweep",
            "fn net_sweep",
        ],
        pr: 24,
        why: "fission, the probe tuner, the reuse summary and the serve/wire sweeps had no caller",
        ..RULE
    },
    Rule {
        name: "product-paths-seed-in-one-pass",
        roots: &["crates/serve/src", "crates/cli/src"],
        files: "*.rs",
        any_of: &["init_deterministic"],
        cut_tests: true,
        pr: 25,
        why: "a job's memory is Memory::seeded: zero-filling the store and then overwriting it \
              is a second pass over the input",
        ..RULE
    },
    Rule {
        name: "one-cache-model",
        any_of: &["HierarchySink", "HitLevel", "SinkChoice", "Unsupported {"],
        pr: 27,
        why: "a run is cache-simulated one way, Program::run_with_sinks with a CacheSink over a \
              CacheHierarchy of one level or more: no second sink, no sink a runtime must refuse",
        ..RULE
    },
    Rule {
        name: "one-strip-bound",
        files: "*.rs",
        except: &["crates/core/src/codegen.rs"],
        any_of: &["suggest_strip("],
        cut_tests: true,
        expect: Exactly(1),
        pr: 27,
        why: "ProfitabilityModel::strip is the partition-coupled strip for the sweeps, the \
              chunk bound and the examples alike: one count of arrays sharing a cache",
        ..RULE
    },
    Rule {
        name: "machine-geometry-in-one-place",
        files: "*.rs",
        except: &["crates/machine/src/config.rs"],
        any_of: &[".cache.capacity", "machine.cache"],
        pr: 27,
        why: "which cache level partitioning, strips and profitability target is \
              MachineConfig::target's decision, made once",
        ..RULE
    },
    Rule {
        name: "planning-is-straight-line",
        any_of: &[
            "AnalysisArtifacts",
            "trait Pass",
            "ArtifactKey",
            "PIPELINE_VERSION",
            "spfc_pass_reused",
            "with_pass",
        ],
        pr: 28,
        why: "planning is two calls in a row, dependence then plan: a content-keyed store cost \
              more than the stages it cached, and a new stage is one more line in \
              Planner::plan_with",
        ..RULE
    },
    Rule {
        name: "row-width-per-nest",
        files: "*.rs",
        any_of: &["const ROW:", "fn lane_width("],
        pr: 29,
        why: "a nest's chunk is as wide as its footprint fits the L1 (lower.rs::row_width): \
              no global width, and no backend-wide lane count beside the tape's max_row_width",
        ..RULE
    },
    Rule {
        name: "one-client-request-engine",
        roots: &["crates"],
        files: "*.rs",
        any_of: &[
            "fn submit_request",
            "fn fail_batch_serve",
            "code == 1 || code == 7",
        ],
        cut_tests: true,
        pr: 30,
        why: "a submit is a window of one: a second retry loop beside the windowed engine drifted \
              from it (the deadline clamp, the text fallback), and retryable is \
              ServeError::is_transient_code",
        ..RULE
    },
    Rule {
        name: "one-client-request-engine",
        roots: &["crates/net/src/client.rs"],
        any_of: &["thread::sleep("],
        cut_tests: true,
        expect: Exactly(1),
        pr: 30,
        why: "the engine waits in one place, until the first backoff gate, each clamped to its \
              request's deadline",
        ..RULE
    },
    Rule {
        name: "one-chrome-exporter",
        roots: &["crates"],
        files: "*.rs",
        any_of: &["\\\"thread_name\\\""],
        cut_tests: true,
        expect: Exactly(1),
        pr: 32,
        why: "a run exports as a session of one run: the session writer's second copy dropped \
              its worker spans' step, group and lanes args and its per-lane loss counts",
        ..RULE
    },
    Rule {
        name: "no-uncalled-public-fns",
        files: "*.rs",
        any_of: &[
            "fn mean_barrier_wait_nanos",
            "fn stopping",
            "fn finish_unchecked",
            "fn timeline(",
            "fn code(&self) -> char",
        ],
        pr: 32,
        why: "nothing called them: the text timeline was a second trace renderer, and the rest \
              were public functions without a caller",
        ..RULE
    },
    Rule {
        name: "memory-only-artifact-cache",
        roots: &["crates"],
        any_of: &[
            "parse_disk_entry",
            "render_disk_entry",
            "DiskLoad",
            "CacheOutcome::Disk",
            "\"disk-hit\"",
            "LoweringFootprint",
            "fn lower_with(",
        ],
        pr: 35,
        why: "a fresh process derives a plan faster than it reads one back from disk: a plan \
              lives in the memory tier or is derived, and a tape is sized by its sequence",
        ..RULE
    },
    Rule {
        name: "one-executor-for-aligned-programs",
        except: &["crates/machine/src/sim.rs"],
        any_of: &["run_aligned_sim", "simulate_aligned", "SimResult::tally("],
        pr: 36,
        why: "an aligned program is its replicated sequence plus AlignedProgram::plan, run by \
              sp_machine::simulate: no second block walk, phase loop or pricing call",
        ..RULE
    },
    Rule {
        name: "one-executor-for-aligned-programs",
        roots: &["crates/baselines"],
        any_of: &["exec_region("],
        pr: 36,
        why: "regions run inside sp-exec's executor only: the comparator is a plan, not a caller",
        ..RULE
    },
    Rule {
        name: "one-dynamic-schedule",
        any_of: &["Guided", "guided_sizes"],
        pr: 38,
        why: "guided self-scheduling won no workload against stealing: static is the chunk list \
              nobody steals from, and stealing is the one dynamic schedule",
        ..RULE
    },
    Rule {
        name: "one-steal-order",
        roots: &["crates/exec/src/schedule.rs"],
        any_of: &[".iter().rev()"],
        cut_tests: true,
        expect: Exactly(1),
        pr: 38,
        why: "the runtime's steal and the scheduler simulation walk victims through one function, \
              so the deterministic replay tests the code that runs",
        ..RULE
    },
    Rule {
        name: "one-completion-path",
        any_of: &["wait_any", "PUMP_REARM", "in_pump", "fn poll("],
        why: "a job's result is delivered, not polled: Service::on_done sends it down a channel, \
              and the wire pump blocks on that channel instead of keeping a second watch set",
        ..RULE
    },
    Rule {
        name: "one-threaded-runtime",
        roots: &["crates/exec/src"],
        files: "*.rs",
        any_of: &["thread::scope", "Threads::", "PerStep"],
        cut_tests: true,
        why: "every threaded run is one WorkerPool dispatch: spawning threads per timestep was \
              1.2-4x slower than the pool and a second dispatch path through the driver",
        ..RULE
    },
    Rule {
        name: "one-threaded-runtime",
        roots: &["crates/cli/src"],
        any_of: &["ScopedExecutor", "\"scoped\" => Box"],
        why: "`spfc run` runs on the pool: `--executor scoped` is refused with a pointer to \
              `--executor pooled`",
        ..RULE
    },
    Rule {
        name: "one-serial-reference-runner",
        roots: &["crates/exec/src"],
        files: "*.rs",
        any_of: &["pub fn run_original<"],
        expect: Exactly(1),
        why: "Engine::run_original is the serial reference on every backend: a second, \
              interpreter-only copy beside it ran the same nests the same way",
        ..RULE
    },
    Rule {
        name: "one-lifetime-stats-file",
        roots: &["crates"],
        any_of: &["stage-stats"],
        why: "the cache counters and the stage stats add up in one versioned <dir>/stats, \
              written by one read-merge-write under one lock and read by one reader",
        ..RULE
    },
    Rule {
        name: "a-plan-is-checked-on-its-grid",
        any_of: &[
            "revalidate_plan",
            "revalidation_rejects",
            "plan_nt_requirements",
            "NtRequirement",
            "GroupCost",
            "estimate_block_cost",
            "fn cost_stage",
            "fn check_sequence",
        ],
        why: "a plan is a function of the program and its PlanConfig, so the cache key holds \
              nothing else and a hit needs no second look; Theorem 1 is checked where the grid \
              is known, in PhaseList::build, and thresholds and costs nothing read are not \
              computed",
        ..RULE
    },
];

fn glob(pat: &str, name: &str) -> bool {
    match pat.split_once('*') {
        None => pat == name,
        Some((head, tail)) => {
            name.len() >= head.len() + tail.len() && name.starts_with(head) && name.ends_with(tail)
        }
    }
}

/// Appends every file at or under `root/rel`, as paths relative to `root`.
fn collect(root: &Path, rel: &str, out: &mut Vec<String>) {
    let path = root.join(rel);
    if path.is_dir() {
        let mut names: Vec<String> = fs::read_dir(&path)
            .expect("readable directory")
            .map(|e| {
                e.expect("directory entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect();
        names.sort();
        for name in names.iter().filter(|n| *n != "target") {
            collect(root, &format!("{rel}/{name}"), out);
        }
    } else if path.is_file() {
        out.push(rel.to_string());
    }
}

/// Checks one rule against the tree under `root`; `Err` is the message.
fn check(rule: &Rule, root: &Path) -> Result<(), String> {
    let mut files = Vec::new();
    for r in rule.roots {
        collect(root, r, &mut files);
    }
    files.retain(|f| {
        glob(rule.files, f.rsplit('/').next().expect("a file name"))
            && f != "tests/structure.rs"
            && !rule.except.contains(&f.as_str())
    });
    // Matching lines, and how many of them each alternative accounts for.
    let mut hits = Vec::new();
    let mut per_alt = vec![0; rule.any_of.len()];
    let mut beside = false;
    for file in &files {
        let bytes = fs::read(root.join(file)).expect("readable file");
        let text = String::from_utf8_lossy(&bytes);
        let mut lines: Vec<&str> = text.lines().collect();
        if rule.cut_tests {
            let end = lines.iter().position(|l| l.contains("#[cfg(test)]"));
            lines.truncate(end.unwrap_or(lines.len()));
        }
        for (i, line) in lines.iter().enumerate() {
            let Some(alt) = rule.any_of.iter().position(|p| line.contains(p)) else {
                continue;
            };
            per_alt[alt] += 1;
            hits.push(format!("{file}:{}: {}", i + 1, line.trim()));
            if let OnceBeside(text, after) = rule.expect {
                let window = &lines[i..lines.len().min(i + after + 1)];
                beside = window.iter().any(|l| l.contains(text));
            }
        }
    }
    let ok = match rule.expect {
        // A search over no files proves nothing: the path has moved.
        _ if files.is_empty() => false,
        Absent => hits.is_empty(),
        Exactly(n) => hits.len() == n,
        AtMostOfEach(n) => per_alt.iter().all(|&c| c <= n),
        OnceBeside(..) => hits.len() == 1 && beside,
        Files(n) => files.len() == n,
    };
    if ok {
        return Ok(());
    }
    if let Files(_) = rule.expect {
        hits.clone_from(&files);
    }
    Err(format!(
        "structure rule `{}` (PR {}) is broken: expected {:?} of {:?} in {:?} ({}), searched {} \
         file(s) and found\n  {}\n  why the rule exists: {}",
        rule.name,
        rule.pr,
        rule.expect,
        rule.any_of,
        rule.roots,
        rule.files,
        files.len(),
        hits.join("\n  "),
        rule.why
    ))
}

#[test]
fn structure_rules_hold() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let broken: Vec<String> = RULES.iter().filter_map(|r| check(r, root).err()).collect();
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}
