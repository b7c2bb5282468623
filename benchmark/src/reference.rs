//! Reference figures, measured once and recorded in `benchmark/README.md`
//! (the Table 1–2 simulated bisection comes from the
//! `tab1_diff_pair_lock_range` / `tab2_tunnel_lock_range` experiments):
//!
//! - `prediction_threads` — cold prediction time of both tables, serial vs
//!   the workload's thread count;
//! - `atlas_dense` — the `tongue_atlas` map (unshifted frame) against
//!   `run_dense_reference`: total and boundary mismatches.

use std::process::ExitCode;
use std::time::Instant;

use shil::circuit::analysis::SweepEngine;
use shil::runtime::{Budget, SweepPolicy};

use crate::paper_tables::{predict, setup};
use crate::stats::median;
use crate::trace::Tracer;

pub fn run(name: &str) -> ExitCode {
    let result = match name {
        "prediction_threads" => prediction_threads(),
        "atlas_dense" => atlas_dense(),
        other => Err(format!(
            "unknown reference `{other}` (prediction_threads, atlas_dense)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reference {name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn prediction_threads() -> Result<(), String> {
    let s = setup()?;
    let mut tracer = Tracer::new(false);
    let mut threads = vec![1];
    if crate::threads() > 1 {
        threads.push(crate::threads());
    }
    for p in threads {
        let mut totals = Vec::new();
        for _ in 0..5 {
            let a = predict(&s.dp_iv, &s.dp_tank, p, &mut tracer)?;
            let b = predict(&s.td.biased_nonlinearity(), &s.td_tank, p, &mut tracer)?;
            totals.push(a.prechar_s + a.lock_s + b.prechar_s + b.lock_s);
        }
        println!(
            "prediction, both tables, {p} thread(s): median {:.3} s of {totals:.3?}",
            median(&totals)
        );
    }
    Ok(())
}

fn atlas_dense() -> Result<(), String> {
    let spec = crate::tongue_atlas::spec(0.0);
    let compiled = spec.compile().map_err(|e| e.to_string())?;
    let engine = SweepEngine::new(Some(crate::threads()));
    let t = Instant::now();
    let map = compiled.run(
        &engine,
        &SweepPolicy::default(),
        &Budget::unlimited(),
        None,
        None,
    );
    let t_map = t.elapsed();
    let t = Instant::now();
    let (dense, errors) =
        compiled.run_dense_reference(&engine, &SweepPolicy::default(), &Budget::unlimited());
    let t_dense = t.elapsed();
    println!(
        "atlas {}x{} (unshifted frame): {} of {} pixels simulated in {:.3} s; dense reference {:.3} s \
         ({errors} errors); total mismatches {}, boundary mismatches {}",
        spec.nx,
        spec.ny,
        map.stats.items_simulated,
        compiled.pixels(),
        t_map.as_secs_f64(),
        t_dense.as_secs_f64(),
        map.total_mismatches(&dense),
        map.boundary_mismatches(&dense)
    );
    Ok(())
}
