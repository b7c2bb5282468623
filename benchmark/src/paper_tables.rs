//! `paper_tables`: the paper's headline path, Tables 1–2.
//!
//! Per round, for the diff-pair (Table 1) and tunnel-diode (Table 2)
//! oscillators: a cold-cache predicted lock range (`new_cached` on a fresh
//! `PrecharCache`, then `lock_range()`), then simulated lock verdicts at
//! seeded injection frequencies, one from a band well inside and one from
//! a band well outside the predicted range. The operations of a round are
//! interleaved across the two tables so that a slow phase of the host
//! lands on every metric alike.

use std::time::{Duration, Instant};

use shil::circuit::analysis::{transient, TranOptions};
use shil::circuit::{Circuit, NodeId, SolveReport};
use shil::core::cache::PrecharCache;
use shil::core::nonlinearity::{Nonlinearity, Tabulated};
use shil::core::shil::{LockRange, ShilAnalysis, ShilOptions};
use shil::core::tank::{ParallelRlc, Tank};
use shil::repro::diff_pair::{DiffPairOscillator, DiffPairParams};
use shil::repro::simlock::{probe_lock, SimOptions};
use shil::repro::tunnel_diode::{TunnelDiodeOscillator, TunnelDiodeParams};
use shil::waveform::lock::is_subharmonic_locked;
use shil::waveform::Sampled;

use crate::stats::{median, ratio, Rng};
use crate::trace::{keep_going, Tracer};
use crate::Outcome;

/// The paper's §IV constants and Table 2's predicted limits, as the
/// `tab1_diff_pair_lock_range` / `tab2_tunnel_lock_range` experiments use
/// them.
use shil_bench::paper::{table2, DIFF_PAIR_AMPLITUDE, N, TUNNEL_AMPLITUDE, VI};
/// The stated tolerance the reproduction must meet on Table 2's predicted
/// limits.
const TABLE2_TOL_PPM: f64 = 20.0;
/// Tolerance on the calibrated natural amplitude, relative.
const AMPLITUDE_TOL: f64 = 1e-4;
/// Inside band: within this fraction of the half-span of the predicted
/// center. Outside band: between these multiples of the span beyond an
/// edge.
const INSIDE_HALF_SPAN: f64 = 0.25;
const OUTSIDE_SPANS: (f64, f64) = (0.5, 1.0);
/// Set-ups before the first round; every round repeats one more, and
/// `setup_s` is the median of them all.
const SETUPS: usize = 2;

/// Simulation settings of the Table 1 run: `shil_bench`'s accurate
/// options (fine time step, long settle, strict phase-drift gate).
fn table1_sim() -> SimOptions {
    shil_bench::accurate_sim_options()
}

/// Table 2's settings, as `tab2_tunnel_lock_range` sets them: the Q ≈ 316
/// tunnel diode needs longer windows.
fn table2_sim() -> SimOptions {
    let mut o = table1_sim();
    o.settle_periods = 2500.0;
    o.lock.windows = 8;
    o.lock.periods_per_window = 100;
    o
}

/// The two calibrated oscillators.
pub(crate) struct Setup {
    pub dp: DiffPairParams,
    pub dp_iv: Tabulated,
    pub dp_tank: ParallelRlc,
    pub td: TunnelDiodeParams,
    pub td_tank: ParallelRlc,
}

pub(crate) fn setup() -> Result<Setup, String> {
    let dp = DiffPairParams::calibrated(DIFF_PAIR_AMPLITUDE).map_err(|e| e.to_string())?;
    let dp_iv = dp.extract_iv_curve().map_err(|e| e.to_string())?;
    let td = TunnelDiodeParams::calibrated(TUNNEL_AMPLITUDE).map_err(|e| e.to_string())?;
    Ok(Setup {
        dp_tank: dp.tank().map_err(|e| e.to_string())?,
        td_tank: td.tank().map_err(|e| e.to_string())?,
        dp,
        dp_iv,
        td,
    })
}

/// Which table an operation belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Table {
    DiffPair,
    Tunnel,
}

impl Table {
    fn name(self) -> &'static str {
        match self {
            Table::DiffPair => "table1/diff-pair",
            Table::Tunnel => "table2/tunnel-diode",
        }
    }
}

/// One prediction's result and timings.
pub(crate) struct Prediction {
    pub range: LockRange,
    natural_amplitude: f64,
    pub prechar_s: f64,
    pub lock_s: f64,
    phase_query_s: Vec<f64>,
}

/// Cold predicted lock range: fresh cache, `new_cached`, `lock_range()`.
/// A traced round also times one warm `solutions_at_phase` per scan phase.
pub(crate) fn predict<F: Nonlinearity + Sync>(
    f: &F,
    tank: &ParallelRlc,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Prediction, String> {
    let opts = ShilOptions {
        parallelism: Some(threads),
        ..ShilOptions::default()
    };
    let cache = PrecharCache::new();
    let (an, prechar_s) = tracer.time("core.prechar", || {
        ShilAnalysis::new_cached(f, tank, N, VI, opts, &cache)
    });
    let an = an.map_err(|e| format!("pre-characterization: {e}"))?;
    let (range, lock_s) = tracer.time("core.lock_range", || an.lock_range());
    let range = range.map_err(|e| format!("lock range: {e}"))?;
    let mut phase_query_s = Vec::new();
    if tracer.active() {
        let cap = std::f64::consts::FRAC_PI_2 * 0.999;
        let steps = opts.lock_range_scan.max(4);
        for k in 1..=steps {
            let phi = cap * k as f64 / steps as f64;
            let (r, s) = tracer.time("core.phase_query", || an.solutions_at_phase(phi));
            r.map_err(|e| format!("phase query at {phi}: {e}"))?;
            phase_query_s.push(s);
        }
    }
    Ok(Prediction {
        range,
        natural_amplitude: an.natural().amplitude,
        prechar_s,
        lock_s,
        phase_query_s,
    })
}

/// One verdict's circuit, probe nodes, options and start-up kick.
fn verdict_inputs(s: &Setup, table: Table, f_inj: f64) -> Result<VerdictInput, String> {
    match table {
        Table::DiffPair => {
            let mut o = DiffPairOscillator::build(s.dp);
            o.set_injection(DiffPairOscillator::injection_wave(VI, f_inj, 0.0))
                .map_err(|e| e.to_string())?;
            let opts = table1_sim();
            Ok(VerdictInput {
                ic: vec![(o.ncl, s.dp.vcc + opts.startup_kick)],
                a: o.ncl,
                b: o.ncr,
                circuit: o.circuit,
                opts,
            })
        }
        Table::Tunnel => {
            let mut o = TunnelDiodeOscillator::build(s.td);
            o.set_injection(TunnelDiodeOscillator::injection_wave(VI, f_inj, 0.0))
                .map_err(|e| e.to_string())?;
            let kick = s.td.v_bias + 0.02;
            Ok(VerdictInput {
                ic: vec![(o.n_tank, kick), (o.n_diode, kick)],
                a: o.n_diode,
                b: 0,
                circuit: o.circuit,
                opts: table2_sim(),
            })
        }
    }
}

struct VerdictInput {
    circuit: Circuit,
    a: NodeId,
    b: NodeId,
    opts: SimOptions,
    ic: Vec<(NodeId, f64)>,
}

/// A traced verdict split into its two layers.
struct SplitVerdict {
    locked: bool,
    tran_s: f64,
    classify_s: f64,
    report: SolveReport,
}

/// `probe_lock`'s verdict, taken apart: the transient (same options as
/// `settled_trace`), then the waveform classification.
fn split_verdict(
    v: &VerdictInput,
    f_inj: f64,
    tracer: &mut Tracer,
) -> Result<SplitVerdict, String> {
    let period = N as f64 / f_inj;
    let dt = period / v.opts.steps_per_period as f64;
    let t_stop = v.opts.total_periods() * period;
    let mut tran = TranOptions::new(dt, t_stop).record_after(v.opts.settle_periods * period);
    for &(node, volts) in &v.ic {
        tran = tran.with_ic(node, volts);
    }
    let (res, tran_s) = tracer.time("circuit.transient", || transient(&v.circuit, &tran));
    let res = res.map_err(|e| format!("transient: {e}"))?;
    let open = tracer.enter("waveform.classify");
    let locked = res
        .voltage_between(v.a, v.b)
        .map_err(|e| e.to_string())
        .and_then(|trace| {
            let s =
                Sampled::from_time_series(&trace.time, &trace.values).map_err(|e| e.to_string())?;
            is_subharmonic_locked(&s, f_inj, N, &v.opts.lock).map_err(|e| e.to_string())
        });
    let classify_s = tracer.exit(open);
    Ok(SplitVerdict {
        locked: locked?,
        tran_s,
        classify_s,
        report: res.report,
    })
}

/// Per-table samples gathered over a run.
#[derive(Default)]
struct Samples {
    verdict_s: Vec<f64>,
    tran_s: Vec<f64>,
    classify_s: Vec<f64>,
    steps: Vec<f64>,
    factorizations: Vec<f64>,
    tran_total_s: f64,
    steps_total: f64,
    reuses_total: f64,
    factorizations_total: f64,
}

pub fn run(seed: u64, budget: Duration, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::threads();
    out.thread_counts.insert("prediction", threads);
    out.thread_counts.insert("simulation", 1);

    let mut setup_s = Vec::new();
    let mut setup_result = Err(String::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        setup_result = setup();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = match setup_result {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("set-up: {e}"));
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };

    let mut rng = Rng::new(seed, "paper_tables");
    let mut predict_untraced = Vec::new();
    let mut round_e2e = (Vec::new(), Vec::new());
    let mut prechar_traced = Vec::new();
    let mut lock_traced = Vec::new();
    let mut probes_traced = Vec::new();
    let mut newton_traced = Vec::new();
    let mut phase_query_s = Vec::new();
    let mut samples = [Samples::default(), Samples::default()];
    let mut first_ranges: [Option<(f64, f64)>; 2] = [None, None];
    let mut identity_checked = [false, false];

    let start = Instant::now();
    let mut k = 0;
    while keep_going(k, start.elapsed(), budget, tracer) {
        let traced = tracer.begin_round(k);
        // The round's set-up sample, interleaved with the timed work like
        // every other metric; its result must equal the first set-up's.
        let (again, secs) = tracer.time("repro.setup", setup);
        setup_s.push(secs);
        out.check(
            again.is_ok_and(|a| a.dp.r_tank == s.dp.r_tank && a.td.r_tank == s.td.r_tank),
            || "calibration changed between set-ups".into(),
        );
        let snap = shil::observe::snapshot();
        // A round's end-to-end samples count only if every operation in it
        // succeeded, so a failing operation cannot shorten a median.
        let failed_before = out.failed;
        let mut round_verdict_s: Vec<(usize, f64)> = Vec::new();
        let mut predict_total = 0.0;
        let mut verdict_total = 0.0;
        let mut prechar_total = 0.0;
        let mut lock_total = 0.0;
        let mut ranges: [Option<LockRange>; 2] = [None, None];
        // Seeded band positions for this round: one inside and one
        // outside draw per table.
        let draws: Vec<(f64, f64, bool)> = (0..2)
            .map(|_| (rng.range(-1.0, 1.0), rng.unit(), rng.index(2) == 0))
            .collect();

        // Interleaved order: predict T1, verdict T1 inside, predict T2,
        // verdict T2 inside, verdict T1 outside, verdict T2 outside.
        let plan = [
            (Table::DiffPair, None),
            (Table::DiffPair, Some(true)),
            (Table::Tunnel, None),
            (Table::Tunnel, Some(true)),
            (Table::DiffPair, Some(false)),
            (Table::Tunnel, Some(false)),
        ];
        for (table, verdict) in plan {
            out.attempted += 1;
            let ti = table as usize;
            match verdict {
                None => {
                    let (tank, target) = match table {
                        Table::DiffPair => (&s.dp_tank, DIFF_PAIR_AMPLITUDE),
                        Table::Tunnel => (&s.td_tank, TUNNEL_AMPLITUDE),
                    };
                    let p = match table {
                        Table::DiffPair => predict(&s.dp_iv, tank, threads, tracer),
                        Table::Tunnel => {
                            predict(&s.td.biased_nonlinearity(), tank, threads, tracer)
                        }
                    };
                    let p = match p {
                        Ok(p) => p,
                        Err(e) => {
                            out.fail(format!("{} prediction: {e}", table.name()));
                            continue;
                        }
                    };
                    predict_total += p.prechar_s + p.lock_s;
                    prechar_total += p.prechar_s;
                    lock_total += p.lock_s;
                    phase_query_s.extend(p.phase_query_s.iter().copied());
                    check_prediction(&mut out, table, &p, tank, target);
                    let lr = (p.range.lower_injection_hz, p.range.upper_injection_hz);
                    let first = *first_ranges[ti].get_or_insert(lr);
                    out.check(first == lr, || {
                        format!("{}: predicted range changed between rounds", table.name())
                    });
                    ranges[ti] = Some(p.range);
                }
                Some(inside) => {
                    let Some(range) = &ranges[ti] else {
                        out.fail(format!(
                            "{}: no prediction to place the verdict",
                            table.name()
                        ));
                        continue;
                    };
                    let (u, v, low_side) = draws[ti];
                    let center = 0.5 * (range.lower_injection_hz + range.upper_injection_hz);
                    let span = range.injection_span_hz;
                    let f_inj = if inside {
                        center + u * INSIDE_HALF_SPAN * 0.5 * span
                    } else {
                        let beyond =
                            span * (OUTSIDE_SPANS.0 + v * (OUTSIDE_SPANS.1 - OUTSIDE_SPANS.0));
                        if low_side {
                            range.lower_injection_hz - beyond
                        } else {
                            range.upper_injection_hz + beyond
                        }
                    };
                    let input = match verdict_inputs(&s, table, f_inj) {
                        Ok(i) => i,
                        Err(e) => {
                            out.fail(format!("{} circuit: {e}", table.name()));
                            continue;
                        }
                    };
                    let probe = || {
                        let v = &input;
                        probe_lock(&v.circuit, v.a, v.b, f_inj, N, &v.opts, &v.ic)
                            .map_err(|e| e.to_string())
                    };
                    let sm = &mut samples[ti];
                    let (locked, secs) = if traced {
                        let open = tracer.enter("repro.verdict");
                        let split = split_verdict(&input, f_inj, tracer);
                        let secs = tracer.exit(open);
                        if let Ok(sv) = &split {
                            sm.tran_s.push(sv.tran_s);
                            sm.classify_s.push(sv.classify_s);
                            sm.steps.push(sv.report.attempts as f64);
                            sm.factorizations.push(sv.report.factorizations as f64);
                            sm.tran_total_s += sv.tran_s;
                            sm.steps_total += sv.report.attempts as f64;
                            sm.reuses_total += sv.report.reuses as f64;
                            sm.factorizations_total += sv.report.factorizations as f64;
                            if !identity_checked[ti] {
                                identity_checked[ti] = true;
                                match tracer.time("repro.probe_lock_identity", probe).0 {
                                    Ok(w) => out.check(w == sv.locked, || {
                                        format!(
                                            "{}: split verdict {} != probe_lock {w} at {f_inj} Hz",
                                            table.name(),
                                            sv.locked
                                        )
                                    }),
                                    Err(e) => out.fail(format!("{} probe_lock: {e}", table.name())),
                                }
                            }
                        }
                        (split.map(|sv| sv.locked), secs)
                    } else {
                        tracer.time("repro.verdict", probe)
                    };
                    match locked {
                        Ok(locked) => {
                            round_verdict_s.push((ti, secs));
                            verdict_total += secs;
                            out.check(locked == inside, || {
                                format!(
                                    "{}: verdict at {f_inj:.1} Hz is {} but the frequency is {} the predicted range [{:.1}, {:.1}]",
                                    table.name(),
                                    if locked { "locked" } else { "unlocked" },
                                    if inside { "well inside" } else { "well outside" },
                                    range.lower_injection_hz,
                                    range.upper_injection_hz
                                )
                            });
                        }
                        Err(e) => out.fail(format!("{} verdict: {e}", table.name())),
                    }
                }
            }
        }
        let after = shil::observe::snapshot();
        tracer.end_round();
        let delta = |name: &str| after.counter(name) as f64 - snap.counter(name) as f64;
        if out.failed == failed_before {
            if traced {
                round_e2e.1.push(predict_total + verdict_total);
                prechar_traced.push(prechar_total);
                lock_traced.push(lock_total);
                probes_traced.push(delta("shil_core_lock_probes_total") / 2.0);
                newton_traced.push(delta("shil_numerics_newton_solves_total"));
            } else {
                predict_untraced.push(predict_total);
                round_e2e.0.push(predict_total + verdict_total);
                for (ti, secs) in round_verdict_s {
                    samples[ti].verdict_s.push(secs);
                }
            }
        }
        k += 1;
    }

    out.setup(&setup_s);
    let per_table = |f: &dyn Fn(&Samples) -> f64| f(&samples[0]) + f(&samples[1]);
    out.metric("task_s", median(&predict_untraced), "s");
    out.metric("op_ms", 1e3 * per_table(&|s| median(&s.verdict_s)), "ms");
    if tracer.enabled {
        out.metric("core.prechar_s", median(&prechar_traced), "s");
        out.metric("core.lock_range_s", median(&lock_traced), "s");
        out.metric("core.lock_probes", median(&probes_traced), "count");
        out.metric("core.phase_query_ms", 1e3 * median(&phase_query_s), "ms");
        out.metric("numerics.newton_solves", median(&newton_traced), "count");
        out.metric("circuit.tran_s", per_table(&|s| median(&s.tran_s)), "s");
        out.metric("circuit.steps", per_table(&|s| median(&s.steps)), "count");
        out.metric(
            "circuit.step_us",
            1e6 * ratio(
                per_table(&|s| s.tran_total_s),
                per_table(&|s| s.steps_total),
            ),
            "us",
        );
        out.metric(
            "circuit.factorizations",
            per_table(&|s| median(&s.factorizations)),
            "count",
        );
        let reuses = per_table(&|s| s.reuses_total);
        out.metric(
            "circuit.reuse_ratio",
            ratio(reuses, reuses + per_table(&|s| s.factorizations_total)),
            "ratio",
        );
        out.metric(
            "waveform.classify_ms",
            1e3 * per_table(&|s| median(&s.classify_s)),
            "ms",
        );
        out.metric(
            "observe.tracing_overhead",
            ratio(median(&round_e2e.1), median(&round_e2e.0)),
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

/// The prediction checks that hold independently of today's output.
fn check_prediction(
    out: &mut Outcome,
    table: Table,
    p: &Prediction,
    tank: &ParallelRlc,
    target: f64,
) {
    let amp = p.natural_amplitude;
    out.check((amp - target).abs() <= AMPLITUDE_TOL * target, || {
        format!(
            "{}: natural amplitude {amp} V, calibrated target {target} V",
            table.name()
        )
    });
    let carrier = N as f64 * tank.center_frequency_hz();
    let (lo, hi) = (p.range.lower_injection_hz, p.range.upper_injection_hz);
    out.check(lo < carrier && carrier < hi, || {
        format!(
            "{}: predicted range [{lo}, {hi}] misses 3·f_c = {carrier}",
            table.name()
        )
    });
    if table == Table::Tunnel {
        for (got, paper) in [(lo, table2::PRED_LOWER), (hi, table2::PRED_UPPER)] {
            let ppm = 1e6 * (got - paper).abs() / paper;
            out.check(ppm <= TABLE2_TOL_PPM, || {
                format!(
                    "{}: predicted limit {got} Hz is {ppm:.1} ppm off Table 2's {paper} Hz",
                    table.name()
                )
            });
        }
    }
}
