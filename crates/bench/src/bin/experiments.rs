//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p nc-bench --bin experiments -- all
//! cargo run --release -p nc-bench --bin experiments -- table2 --pop 5000 --snapshots 40
//! ```
//!
//! Results are printed and also written as JSON under `results/`.

use std::path::PathBuf;

use nc_bench::context::{ExperimentScale, NcContext};
use nc_bench::table3::NcBandSizes;
use nc_bench::{ablation, figure1, figure4, figure5, output, pollution, table1, table2, table3, table4, updates};
use nc_core::scoring::ScoringConfig;

struct Args {
    command: String,
    scale: ExperimentScale,
    out_dir: PathBuf,
    sample: usize,
    output_clusters: usize,
    scoring: ScoringConfig,
}

fn parse_args() -> Args {
    let mut command = String::from("all");
    let mut scale = ExperimentScale::default();
    let mut out_dir = PathBuf::from("results");
    let mut sample = 2_000;
    let mut output_clusters = 600;
    let mut scoring = ScoringConfig::default();

    let mut args = std::env::args().skip(1).peekable();
    if let Some(first) = args.peek() {
        if !first.starts_with("--") {
            command = args.next().expect("peeked");
        }
    }
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--pop" => scale.population = value().parse().expect("--pop takes a number"),
            "--snapshots" => scale.snapshots = value().parse().expect("--snapshots takes a number"),
            "--seed" => scale.seed = value().parse().expect("--seed takes a number"),
            "--out" => out_dir = PathBuf::from(value()),
            "--sample" => sample = value().parse().expect("--sample takes a number"),
            "--clusters" => output_clusters = value().parse().expect("--clusters takes a number"),
            "--threads" => {
                scoring.threads = value().parse().expect("--threads takes a number");
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        command,
        scale,
        out_dir,
        sample,
        output_clusters,
        scoring,
    }
}

fn main() {
    let args = parse_args();
    let scale = args.scale;
    let sizes = NcBandSizes {
        sample: args.sample,
        output: args.output_clusters,
    };
    eprintln!(
        "scale: population {}, {} snapshots, seed {}",
        scale.population, scale.snapshots, scale.seed
    );

    let needs_context = matches!(
        args.command.as_str(),
        "all" | "figure4a" | "figure4b" | "table3" | "table4" | "figure5" | "pollution" | "scores"
    );
    let ctx = needs_context.then(|| {
        eprintln!("building NC context (generate + import + weights)…");
        NcContext::build_with(&scale, args.scoring)
    });

    let run_one = |name: &str, ctx: Option<&NcContext>| match name {
        "table1" => {
            let t = table1::run(&scale);
            println!("{}", table1::render(&t));
            output::write_json(&args.out_dir, "table1", &t.to_value()).expect("write json");
        }
        "table2" => {
            let t = table2::run(&scale);
            println!("{}", table2::render(&t));
            output::write_json(&args.out_dir, "table2", &t.to_value()).expect("write json");
        }
        "figure1" => {
            let f = figure1::run(&scale);
            println!("{}", figure1::render(&f));
            output::write_json(&args.out_dir, "figure1", &f.to_value()).expect("write json");
        }
        "figure4a" => {
            let f = figure4::run_4a(ctx.expect("context"));
            println!("Figure 4a: plausibility distributions\n");
            println!("{}", figure4::render_distribution(&f.clusters));
            println!("{}", figure4::render_distribution(&f.pairs));
            output::write_json(&args.out_dir, "figure4a", &f.to_value()).expect("write json");
        }
        "figure4b" => {
            let f = figure4::run_4b(ctx.expect("context"));
            println!("Figure 4b: NC heterogeneity distributions\n");
            println!("{}", figure4::render_distribution(&f.clusters));
            println!("{}", figure4::render_distribution(&f.pairs));
            output::write_json(&args.out_dir, "figure4b", &f.to_value()).expect("write json");
        }
        "figure4c" => {
            let f = figure4::run_4c(scale.seed);
            println!("Figure 4c: comparator heterogeneity distributions\n");
            for d in &f.datasets {
                println!("{}", figure4::render_distribution(d));
            }
            output::write_json(&args.out_dir, "figure4c", &f.to_value()).expect("write json");
        }
        "table3" => {
            let t = table3::run(ctx.expect("context"), &sizes, scale.seed);
            println!("{}", table3::render(&t));
            output::write_json(&args.out_dir, "table3", &t.to_value()).expect("write json");
        }
        "table4" => {
            let t = table4::run(ctx.expect("context"), scale.seed);
            println!("{}", table4::render(&t));
            output::write_json(&args.out_dir, "table4", &t.to_value()).expect("write json");
        }
        "figure5" => {
            let f = figure5::run(ctx.expect("context"), &sizes, scale.seed);
            println!("{}", figure5::render(&f));
            output::write_json(&args.out_dir, "figure5", &f.to_value()).expect("write json");
        }
        "updates" => {
            let u = updates::run(&ExperimentScale {
                snapshots: scale.snapshots.min(12),
                ..scale
            });
            println!("{}", updates::render(&u));
            output::write_json(&args.out_dir, "updates", &u.to_value()).expect("write json");
        }
        "pollution" => {
            let p = pollution::run(ctx.expect("context"), &sizes, scale.seed);
            println!("{}", pollution::render(&p));
            output::write_json(&args.out_dir, "pollution", &p.to_value()).expect("write json");
        }
        "ablation" => {
            let a = ablation::run(&scale);
            println!("{}", ablation::render(&a));
            output::write_json(&args.out_dir, "ablation", &a.to_value()).expect("write json");
        }
        "scores" => {
            let ctx = ctx.expect("context");
            let scores = ctx
                .outcome
                .cluster_scores(&ctx.het_person, &ctx.scoring);
            let multi = scores.iter().filter(|s| s.records >= 2).count();
            let mean_p: f64 =
                scores.iter().map(|s| s.plausibility).sum::<f64>() / scores.len().max(1) as f64;
            let mean_h: f64 =
                scores.iter().map(|s| s.heterogeneity).sum::<f64>() / scores.len().max(1) as f64;
            println!(
                "scored {} clusters ({} multi-record) on {} threads: mean plausibility {:.4}, mean heterogeneity {:.4}",
                scores.len(),
                multi,
                ctx.scoring.effective_threads(),
                mean_p,
                mean_h
            );
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!(
                "available: table1 table2 table3 table4 figure1 figure4a figure4b figure4c figure5 updates ablation pollution scores all"
            );
            std::process::exit(2);
        }
    };

    if args.command == "all" {
        for name in [
            "table1", "table2", "figure1", "figure4a", "figure4b", "figure4c", "table3",
            "table4", "figure5", "updates", "ablation", "pollution",
        ] {
            eprintln!("\n=== {name} ===");
            run_one(name, ctx.as_ref());
        }
    } else {
        run_one(&args.command, ctx.as_ref());
    }
}
