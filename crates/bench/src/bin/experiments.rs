//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p nc-bench --bin experiments -- all
//! cargo run --release -p nc-bench --bin experiments -- table2 --pop 5000 --snapshots 40
//! ```
//!
//! Results are printed and also written as JSON under `results/`
//! (`--out DIR`).

use nc_bench::bench::Flags;
use nc_bench::context::{ExperimentScale, NcContext};
use nc_bench::table3::NcBandSizes;
use nc_bench::{
    ablation, figure1, figure4, figure5, output, pollution, table1, table2, table3, table4, updates,
};
use nc_core::scoring::ScoringConfig;
use nc_docstore::value::Value;

fn main() {
    let mut flags = Flags::from_env("experiments");
    let command = flags.command("all");
    let scale = ExperimentScale {
        population: flags.get("--pop", 2_000),
        snapshots: flags.get("--snapshots", 40),
        ..ExperimentScale::default()
    };
    let out_dir = flags.path("--out", "results");
    let sizes = NcBandSizes {
        sample: flags.get("--sample", 2_000),
        output: flags.get("--clusters", 600),
    };
    let scoring = ScoringConfig::with_threads(flags.get("--threads", 0));
    flags.done();
    eprintln!(
        "scale: population {}, {} snapshots, seed {}",
        scale.population, scale.snapshots, scale.seed
    );

    let needs_context = matches!(
        command.as_str(),
        "all" | "figure4a" | "figure4b" | "table3" | "table4" | "figure5" | "pollution" | "scores"
    );
    let ctx = needs_context.then(|| {
        eprintln!("building NC context (generate + import + weights)…");
        NcContext::build_with(&scale, scoring)
    });

    // Run one experiment, print it, and return its result.
    let run = |name: &str, ctx: Option<&NcContext>| -> Option<Value> {
        match name {
            "table1" => {
                let t = table1::run(&scale);
                println!("{}", table1::render(&t));
                Some(t.to_value())
            }
            "table2" => {
                let t = table2::run(&scale);
                println!("{}", table2::render(&t));
                Some(t.to_value())
            }
            "figure1" => {
                let f = figure1::run(&scale);
                println!("{}", figure1::render(&f));
                Some(f.to_value())
            }
            "figure4a" => {
                let f = figure4::run_4a(ctx.expect("context"));
                println!("Figure 4a: plausibility distributions\n");
                println!("{}", figure4::render_distribution(&f.clusters));
                println!("{}", figure4::render_distribution(&f.pairs));
                Some(f.to_value())
            }
            "figure4b" => {
                let f = figure4::run_4b(ctx.expect("context"));
                println!("Figure 4b: NC heterogeneity distributions\n");
                println!("{}", figure4::render_distribution(&f.clusters));
                println!("{}", figure4::render_distribution(&f.pairs));
                Some(f.to_value())
            }
            "figure4c" => {
                let f = figure4::run_4c(scale.seed);
                println!("Figure 4c: comparator heterogeneity distributions\n");
                for d in &f.datasets {
                    println!("{}", figure4::render_distribution(d));
                }
                Some(f.to_value())
            }
            "table3" => {
                let t = table3::run(ctx.expect("context"), &sizes, scale.seed);
                println!("{}", table3::render(&t));
                Some(t.to_value())
            }
            "table4" => {
                let t = table4::run(ctx.expect("context"), scale.seed);
                println!("{}", table4::render(&t));
                Some(t.to_value())
            }
            "figure5" => {
                let f = figure5::run(ctx.expect("context"), &sizes, scale.seed);
                println!("{}", figure5::render(&f));
                Some(f.to_value())
            }
            "updates" => {
                let u = updates::run(&ExperimentScale {
                    snapshots: scale.snapshots.min(12),
                    ..scale
                });
                println!("{}", updates::render(&u));
                Some(u.to_value())
            }
            "pollution" => {
                let p = pollution::run(ctx.expect("context"), &sizes, scale.seed);
                println!("{}", pollution::render(&p));
                Some(p.to_value())
            }
            "ablation" => {
                let a = ablation::run(&scale);
                println!("{}", ablation::render(&a));
                Some(a.to_value())
            }
            "scores" => {
                let ctx = ctx.expect("context");
                let scores = ctx.outcome.cluster_scores(&ctx.het_person, &ctx.scoring);
                let multi = scores.iter().filter(|s| s.records >= 2).count();
                let mean_p: f64 =
                    scores.iter().map(|s| s.plausibility).sum::<f64>() / scores.len().max(1) as f64;
                let mean_h: f64 = scores.iter().map(|s| s.heterogeneity).sum::<f64>()
                    / scores.len().max(1) as f64;
                println!(
                "scored {} clusters ({} multi-record) on {} threads: mean plausibility {:.4}, mean heterogeneity {:.4}",
                scores.len(),
                multi,
                ctx.scoring.effective_threads(),
                mean_p,
                mean_h
            );
                None
            }
            other => {
                eprintln!("unknown experiment: {other}");
                eprintln!(
                "available: table1 table2 table3 table4 figure1 figure4a figure4b figure4c figure5 updates ablation pollution scores all"
            );
                std::process::exit(2);
            }
        }
    };
    let run_one = |name: &str, ctx: Option<&NcContext>| {
        if let Some(result) = run(name, ctx) {
            output::write_json(&out_dir.join(format!("{name}.json")), &result).expect("write json");
        }
    };

    if command == "all" {
        for name in [
            "table1",
            "table2",
            "figure1",
            "figure4a",
            "figure4b",
            "figure4c",
            "table3",
            "table4",
            "figure5",
            "updates",
            "ablation",
            "pollution",
        ] {
            eprintln!("\n=== {name} ===");
            run_one(name, ctx.as_ref());
        }
    } else {
        run_one(&command, ctx.as_ref());
    }
}
