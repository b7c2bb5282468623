//! `tongue_atlas`: Arnold-tongue maps of the paper oscillator.
//!
//! Per round: `CompiledAtlas::run` on `AtlasSpec::paper_oscillator` with a
//! fresh `CheckpointFile` and a 2-thread `SweepEngine` (the timed map),
//! then the same run resumed from the finished checkpoint (the restore
//! path a crashed or repeated `shil-cli atlas --resume` takes). Traced
//! rounds add one uncheckpointed map, for the checkpoint's share. Each
//! round maps a frame shifted by its own seeded sub-pixel offset, so one
//! run's medians average over many samplings of the tongue.
//!
//! Every map is checked against the describing-function `lock_range()` of
//! each amplitude row, computed once before the measured rounds.

use std::path::Path;
use std::time::{Duration, Instant};

use shil::circuit::analysis::{AtlasMap, AtlasSpec, CompiledAtlas, SweepEngine};
use shil::core::cache::PrecharCache;
use shil::core::nonlinearity::NegativeTanh;
use shil::core::oscillator::Oscillator;
use shil::core::tank::ParallelRlc;
use shil::runtime::{Budget, CheckpointFile, SweepPolicy};

use crate::stats::{median, process_cpu_s, ratio, Rng};
use crate::trace::{keep_going, Tracer};
use crate::Outcome;

/// Map size and coarse tile: 32 × 32 pixels, 8-pixel coarse tiles. The
/// 4-pixel tiles of the first refinement pass are the last accelerated
/// (warm-started) ones; 2- and 1-pixel tiles run the exact protocol.
const NX: usize = 32;
const NY: usize = 32;
const COARSE: usize = 8;
/// The fidelity `examples/arnold_tongues` validates the DF cross-check at.
const STEPS_PER_PERIOD: usize = 48;
const HORIZON_PERIODS: usize = 240;
/// Set-up samples before the first round; every round adds one more, and
/// `setup_s` is the median of them all. A compile takes well under a
/// microsecond, so each sample times a batch of compiles.
const SETUPS: usize = 5;
const COMPILES_PER_SAMPLE: usize = 200;
/// Rows whose predicted span is at least this many pixels are compared
/// against the prediction: span, and the locked span's midpoint against
/// the dispersion-corrected 3·f0.
const MIN_SPAN_PX: f64 = 4.0;
/// Largest distance of a compared row's locked-span midpoint from the
/// dispersion-corrected 3·f0, pixels.
const CENTER_TOL_PX: f64 = 2.0;
/// Span tolerance: ±1 pixel of edge quantization per edge plus 20 % of the
/// predicted span for the weak-injection model error.
const SPAN_TOL_PX: f64 = 2.0;
const SPAN_TOL_REL: f64 = 0.2;
/// Rows at or below this amplitude must be unlocked at both band edges.
const LOW_ROW_VI: f64 = 0.05;

/// The spec with its frame shifted by `shift` pixels.
pub(crate) fn spec(shift: f64) -> AtlasSpec {
    let mut spec = AtlasSpec::paper_oscillator(NX, NY, COARSE);
    spec.steps_per_period = STEPS_PER_PERIOD;
    spec.horizon_periods = HORIZON_PERIODS;
    let df_px = (spec.f_stop - spec.f_start) / (NX - 1) as f64;
    spec.f_start += shift * df_px;
    spec.f_stop += shift * df_px;
    spec
}

/// Compiles `spec` `COMPILES_PER_SAMPLE` times; returns the last result
/// and the mean time per compile.
fn compile_batch(spec: &AtlasSpec) -> (Result<CompiledAtlas, String>, f64) {
    let t = Instant::now();
    let mut last = None;
    for _ in 0..COMPILES_PER_SAMPLE {
        last = Some(std::hint::black_box(spec.compile()));
    }
    let secs = t.elapsed().as_secs_f64() / COMPILES_PER_SAMPLE as f64;
    let result = last
        .expect("COMPILES_PER_SAMPLE > 0")
        .map_err(|e| e.to_string());
    (result, secs)
}

/// One checkpointed map: open a fresh (or, to resume, the finished)
/// checkpoint and run. Returns the map, the wall time and the first
/// pass's completion time, or the error text.
fn checkpointed_run(
    compiled: &CompiledAtlas,
    engine: &SweepEngine,
    path: &Path,
    fresh: bool,
    tracer: &mut Tracer,
    name: &'static str,
) -> Result<(AtlasMap, f64, Option<f64>), String> {
    if fresh {
        let _ = std::fs::remove_file(path);
    }
    let open = tracer.enter(name);
    let t0 = Instant::now();
    let (cp, _) = tracer.time("runtime.checkpoint_open", || {
        CheckpointFile::open(path, &compiled.fingerprint(), compiled.checkpoint_slots())
    });
    let cp = match cp {
        Ok(cp) => cp,
        Err(e) => {
            tracer.exit(open);
            return Err(format!("checkpoint {}: {e}", path.display()));
        }
    };
    let mut first_pass: Option<f64> = None;
    let mut on_pass = |_: &AtlasMap| {
        first_pass.get_or_insert(t0.elapsed().as_secs_f64());
    };
    let run = tracer.enter("atlas.compiled_run");
    let map = compiled.run(
        engine,
        &SweepPolicy::default(),
        &Budget::unlimited(),
        Some(&cp),
        Some(&mut on_pass),
    );
    tracer.exit(run);
    let secs = tracer.exit(open);
    map_ok(&map)?;
    Ok((map, secs, first_pass))
}

fn map_ok(map: &AtlasMap) -> Result<(), String> {
    if map.cancelled {
        return Err("atlas run was cancelled".into());
    }
    if map.stats.errors > 0 {
        return Err(format!("{} atlas cells failed", map.stats.errors));
    }
    Ok(())
}

/// Layer figures of one traced round.
struct Layer {
    items: f64,
    steps: f64,
    early_exits: f64,
    warm_start_hits: f64,
    coarse_s: f64,
    refine_s: f64,
    busy_cores: f64,
    records: f64,
    bytes: f64,
    tran_s: f64,
    factorizations: f64,
    reuses: f64,
    cpu_s: f64,
    atlas_s: f64,
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::threads();
    out.thread_counts.insert("sweep", threads);
    let mut rng = Rng::new(seed, "tongue_atlas");

    let first = spec(rng.range(-0.5, 0.5));
    let mut setup_s = Vec::new();
    let mut compiled = None;
    for _ in 0..SETUPS {
        let (c, secs) = compile_batch(&first);
        setup_s.push(secs);
        compiled = Some(c);
    }
    let mut compiled = match compiled.expect("SETUPS > 0") {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("atlas compile: {e}"));
            out.check(false, || format!("atlas spec does not compile: {e}"));
            return out;
        }
    };
    let engine = SweepEngine::new(Some(threads));
    let path = crate::out_dir().join(format!("atlas-{}.jsonl", std::process::id()));
    // Outside the measured rounds: the prediction every map is checked
    // against. The rows' amplitudes do not depend on the frame shift.
    let predicted = predicted_spans(&first, compiled.amps());

    let mut atlas_s = (Vec::new(), Vec::new());
    let mut resume_s = Vec::new();
    let mut plain_s = Vec::new();
    let mut layers: Vec<Layer> = Vec::new();
    let mut items_per_round = Vec::new();

    let start = Instant::now();
    let mut k = 0;
    while keep_going(k, start.elapsed(), budget, tracer) {
        let traced = tracer.begin_round(k);
        if k > 0 {
            let open = tracer.enter("atlas.compile");
            let (c, secs) = compile_batch(&spec(rng.range(-0.5, 0.5)));
            tracer.exit(open);
            setup_s.push(secs);
            match c {
                Ok(c) => compiled = c,
                Err(e) => out.check(false, || format!("atlas spec does not compile: {e}")),
            }
        }
        let snap = shil::observe::snapshot();
        let cpu0 = process_cpu_s();
        // A round's samples count only if every operation in it succeeded,
        // so a failing operation cannot shorten a median.
        let failed_before = out.failed;
        let mut round_atlas_s = None;
        let mut round_resume_s = None;
        let mut round_layer = None;
        let mut round_plain_s = None;

        out.attempted += 1;
        let result = checkpointed_run(&compiled, &engine, &path, true, tracer, "atlas.run");
        let cpu1 = process_cpu_s();
        let after = shil::observe::snapshot();
        let map = match result {
            Ok((map, secs, first_pass)) => {
                round_atlas_s = Some(secs);
                if traced {
                    let delta = |n: &str| after.counter(n) as f64 - snap.counter(n) as f64;
                    let tran = |s: &shil::observe::Snapshot| {
                        s.histogram("shil_circuit_tran_solve_seconds")
                            .map_or(0.0, |h| h.sum)
                    };
                    let coarse_s = first_pass.unwrap_or(secs);
                    round_layer = Some(Layer {
                        items: map.stats.items_simulated as f64,
                        steps: map.stats.steps_run as f64,
                        early_exits: map.stats.early_exits as f64,
                        warm_start_hits: map.stats.warm_start_hits as f64,
                        coarse_s,
                        refine_s: secs - coarse_s,
                        busy_cores: ratio(cpu1 - cpu0, secs),
                        records: delta("shil_runtime_checkpoint_records_written_total"),
                        bytes: delta("shil_runtime_checkpoint_bytes_appended_total"),
                        tran_s: tran(&after) - tran(&snap),
                        factorizations: map.aggregate.factorizations as f64,
                        reuses: map.aggregate.reuses as f64,
                        cpu_s: cpu1 - cpu0,
                        atlas_s: secs,
                    });
                }
                Some(map)
            }
            Err(e) => {
                out.fail(e);
                None
            }
        };

        out.attempted += 1;
        match checkpointed_run(&compiled, &engine, &path, false, tracer, "atlas.resume") {
            Ok((resumed, secs, _)) => {
                round_resume_s = Some(secs);
                if let Some(map) = &map {
                    out.check(
                        resumed.verdicts == map.verdicts
                            && resumed.stats.restored == map.stats.items_simulated,
                        || {
                            format!(
                                "resume restored {} of {} cells, or a different map",
                                resumed.stats.restored, map.stats.items_simulated
                            )
                        },
                    );
                }
            }
            Err(e) => out.fail(e),
        }

        if traced {
            out.attempted += 1;
            let (plain, secs) = tracer.time("atlas.run_without_checkpoint", || {
                compiled.run(
                    &engine,
                    &SweepPolicy::default(),
                    &Budget::unlimited(),
                    None,
                    None,
                )
            });
            match map_ok(&plain) {
                Ok(()) => {
                    round_plain_s = Some(secs);
                    if let Some(map) = &map {
                        out.check(plain.verdicts == map.verdicts, || {
                            "the map without a checkpoint differs from the checkpointed one".into()
                        });
                    }
                }
                Err(e) => out.fail(e),
            }
        }
        tracer.end_round();
        if let Some(map) = &map {
            check_against_prediction(&mut out, compiled.spec(), map, &predicted);
            items_per_round.push(map.stats.items_simulated as f64);
        }
        if out.failed == failed_before {
            if traced {
                atlas_s.1.extend(round_atlas_s);
                layers.extend(round_layer);
                plain_s.extend(round_plain_s);
            } else {
                atlas_s.0.extend(round_atlas_s);
                resume_s.extend(round_resume_s);
            }
        }
        k += 1;
    }
    let _ = std::fs::remove_file(&path);

    out.setup(&setup_s);
    // The cells a map simulates depend on where the seeded frame shift puts
    // the tongue's edges; the steadiness command compares this input share
    // of `task_s`'s spread with the spread itself.
    out.work("items_simulated_median", median(&items_per_round));
    out.metric("task_s", median(&atlas_s.0), "s");
    out.metric("op_ms", 1e3 * median(&resume_s), "ms");
    if tracer.enabled {
        let col = |f: &dyn Fn(&Layer) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
        let sum = |f: &dyn Fn(&Layer) -> f64| layers.iter().map(f).sum::<f64>();
        out.metric("atlas.items_simulated", col(&|l| l.items), "count");
        out.metric("atlas.steps_run", col(&|l| l.steps), "count");
        out.metric("atlas.early_exits", col(&|l| l.early_exits), "count");
        out.metric(
            "atlas.warm_start_hits",
            col(&|l| l.warm_start_hits),
            "count",
        );
        out.metric("atlas.coarse_pass_s", col(&|l| l.coarse_s), "s");
        out.metric("atlas.refine_s", col(&|l| l.refine_s), "s");
        out.metric("atlas.busy_cores", col(&|l| l.busy_cores), "cores");
        out.metric("runtime.checkpoint_records", col(&|l| l.records), "count");
        out.metric("runtime.checkpoint_bytes", col(&|l| l.bytes), "bytes");
        out.metric(
            "runtime.checkpoint_overhead_s",
            col(&|l| l.atlas_s) - median(&plain_s),
            "s",
        );
        out.metric("circuit.tran_s", col(&|l| l.tran_s), "s");
        out.metric("circuit.steps", col(&|l| l.steps), "count");
        out.metric(
            "circuit.factorizations",
            col(&|l| l.factorizations),
            "count",
        );
        let (reuses, facts) = (sum(&|l| l.reuses), sum(&|l| l.factorizations));
        out.metric(
            "circuit.reuse_ratio",
            ratio(reuses, reuses + facts),
            "ratio",
        );
        out.metric(
            "circuit.step_us",
            1e6 * ratio(sum(&|l| l.cpu_s), sum(&|l| l.steps)),
            "us",
        );
        out.metric(
            "observe.tracing_overhead",
            ratio(median(&atlas_s.1), median(&atlas_s.0)),
            "ratio",
        );
        out.metric(
            "observe.attributed_share",
            tracer.attributed_share(),
            "ratio",
        );
    }
    out
}

/// The describing-function lock range of each amplitude row, as
/// `(lower, upper)` injection frequencies (`None` where it has none).
fn predicted_spans(spec: &AtlasSpec, amps: &[f64]) -> Vec<Option<(f64, f64)>> {
    let Ok(tank) = ParallelRlc::new(spec.r, spec.l, spec.c) else {
        return vec![None; amps.len()];
    };
    let osc = Oscillator::new(NegativeTanh::new(spec.i0, spec.gain), tank);
    let cache = PrecharCache::new();
    amps.iter()
        .map(|&vi| {
            osc.shil_cached(spec.n, vi, &cache)
                .and_then(|a| a.lock_range())
                .ok()
                .map(|lr| (lr.lower_injection_hz, lr.upper_injection_hz))
        })
        .collect()
}

/// The map against the describing-function prediction and the tongue's
/// shape, as `examples/arnold_tongues` checks it.
fn check_against_prediction(
    out: &mut Outcome,
    spec: &AtlasSpec,
    map: &AtlasMap,
    predicted: &[Option<(f64, f64)>],
) {
    let (nx, freqs) = (map.nx, &map.freqs);
    let fc = 1.0 / (std::f64::consts::TAU * (spec.l * spec.c).sqrt());
    let df_px = (spec.f_stop - spec.f_start) / (nx - 1) as f64;
    // The trapezoidal rule's dispersion lowers the simulated oscillator's
    // frequency by (ω·dt)²/12: the tongue's center in the map.
    let w_dt = std::f64::consts::TAU / spec.steps_per_period as f64;
    let center = f64::from(spec.n) * fc * (1.0 - w_dt * w_dt / 12.0);
    let mut compared = 0;
    for (iy, range) in predicted.iter().enumerate().take(map.ny) {
        let vi = map.amps[iy];
        let row = &map.verdicts[iy * nx..(iy + 1) * nx];
        if vi <= LOW_ROW_VI {
            out.check(!row[0].is_locked() && !row[nx - 1].is_locked(), || {
                format!("row V_i = {vi}: locked at a band edge")
            });
        }
        let Some((lo, hi)) = *range else { continue };
        let span_p = hi - lo;
        if span_p < MIN_SPAN_PX * df_px {
            continue;
        }
        let first = row.iter().position(|v| v.is_locked());
        let last = row.iter().rposition(|v| v.is_locked());
        let (Some(a), Some(b)) = (first, last) else {
            continue;
        };
        if a == 0 || b == nx - 1 {
            continue;
        }
        compared += 1;
        let span_m = freqs[b] - freqs[a];
        let err_px = (span_m - span_p) / df_px;
        out.check(
            err_px.abs() <= SPAN_TOL_PX + SPAN_TOL_REL * span_p / df_px,
            || format!("row V_i = {vi}: simulated span {span_m:.0} Hz vs predicted {span_p:.0} Hz"),
        );
        let mid = 0.5 * (freqs[a] + freqs[b]);
        out.check((mid - center).abs() <= CENTER_TOL_PX * df_px, || {
            format!("row V_i = {vi}: tongue centered at {mid:.0} Hz, 3·f0 (dispersion-corrected) is {center:.0} Hz")
        });
    }
    out.check(compared > 0, || {
        "no atlas row was wide enough to compare".into()
    });
}
