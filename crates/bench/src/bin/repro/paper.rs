//! The paper's tables and figures (DESIGN.md §4, T1–F7): each target
//! prints its section and writes its `results/*.json`.

use crate::Ctx;
use amlight_bench::figures::{
    fig3_4_confusions, fig5_timeline, fig7_distributions, render_fig5_ascii,
};
use amlight_bench::tables::{
    table1_schedule, table2_features, table3_comparison, table4_zero_day, table5_importance,
};
use amlight_bench::util::{banner, write_json};
use amlight_net::TrafficClass;

/// Column heads of Tables III and IV.
fn print_metrics_header() {
    println!(
        "{:<6} {:<5} {:<8} {:<8} {:<9} {:<8}",
        "Data", "Model", "Acc", "Recall", "Precision", "F1"
    );
}

/// Table I: the simulated attack-episode schedule.
pub fn table1(ctx: &Ctx) {
    let day_len_s = ctx.config().day_len_s;
    banner(&format!(
        "Table I — simulated attack episodes (two {day_len_s}-second lab days; \
         paper: June 10–11 2024)"
    ));
    let rows = table1_schedule(day_len_s);
    for r in &rows {
        println!("{r}");
    }
    write_json("results/table1.json", &rows, ctx.args.fast);
}

/// Table II: features available from INT vs sFlow.
pub fn table2(ctx: &Ctx) {
    banner("Table II — features used to detect DDoS attacks");
    let rows = table2_features();
    for r in &rows {
        println!("{r}");
    }
    println!("\nNote: Hop Latency exists in INT but is excluded from the models,");
    println!("      as in the paper (Table II note / §IV-B.2).");
    write_json("results/table2.json", &rows, ctx.args.fast);
}

/// Table III: ML performance, INT vs sFlow, 90:10 split.
pub fn table3(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    let rows = table3_comparison(ctx.capture(), fast);
    banner("Table III — ML model performance, INT vs sFlow (90:10 split)");
    print_metrics_header();
    for r in &rows {
        println!("{}", r.render());
    }
    write_json("results/table3.json", &rows, fast);
}

/// Table IV: zero-day evaluation — train on day 0, test on day 1
/// (SlowLoris unseen in training).
pub fn table4(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    let cap = ctx.capture();
    let rows = table4_zero_day(cap, fast);
    banner("Table IV — zero-day (SlowLoris unseen) evaluation");
    print_metrics_header();
    for r in &rows {
        println!("{}", r.render());
    }
    println!("\nsFlow sample counts per class (sampling loss in the test day):");
    for (class, n) in cap.sflow_class_counts() {
        println!("  {:<10} {}", class.name(), n);
    }
    write_json("results/table4.json", &rows, fast);
}

/// Table V: top-5 most important features per model, INT data.
pub fn table5(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    let rows = table5_importance(ctx.capture(), fast);
    banner("Table V — five most important features per model (INT data)");
    for r in &rows {
        println!("\n{}:", r.model);
        for (name, score) in &r.top {
            println!("  {:<26} {:.4}", name, score);
        }
    }
    write_json("results/table5.json", &rows, fast);
}

/// Table VI: the automated detection mechanism on the testbed —
/// per-class accuracy and prediction latency. The default pace models
/// the paper's Python/JS prototype so the latency column lands on the
/// paper's scale; `--rust-pace` reports what this implementation costs.
pub fn table6(ctx: &mut Ctx) {
    let (fast, rust_pace) = (ctx.args.fast, ctx.args.rust_pace);
    let (rows, _) = ctx.table6();
    banner(&format!(
        "Table VI — automated DDoS detection, {} packets per flow type ({} pace)",
        if fast { 300 } else { 2500 },
        if rust_pace { "Rust" } else { "paper" }
    ));
    println!(
        "{:<10} {:<8} {:<15} {:>12} {:>12}",
        "Type", "Acc", "Misc/Predicted", "AvgPred(s)", "MaxPred(s)"
    );
    for r in rows {
        println!("{}", r.render());
    }
    println!("\nNote: benign row reports p99 instead of max, as in the paper.");
    write_json("results/table6.json", rows, fast);
}

/// Figs. 3 & 4: Random-Forest confusion matrices on INT and sFlow test
/// data.
pub fn fig3_4(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    let (int, sflow) = fig3_4_confusions(ctx.capture(), fast);

    banner("Fig. 3 — confusion matrix, RF model, INT data");
    print!("{int}");
    println!("accuracy {:.4}  f1 {:.4}", int.accuracy(), int.f1());

    banner("Fig. 4 — confusion matrix, RF model, sFlow data");
    print!("{sflow}");
    println!("accuracy {:.4}  f1 {:.4}", sflow.accuracy(), sflow.f1());

    write_json(
        "results/fig3_4.json",
        &serde_json::json!({ "int": int, "sflow": sflow }),
        fast,
    );
}

/// Fig. 5: ground truth vs RF predictions over time for INT and sFlow.
/// The phenomenon to look for: sFlow has no samples (and so no
/// predictions) inside the SlowLoris episodes.
pub fn fig5(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    let points = fig5_timeline(ctx.capture(), if fast { 80 } else { 160 }, fast);

    banner("Fig. 5 — truth vs RF predictions over time (█ = attack, · = no data)");
    print!("{}", render_fig5_ascii(&points));
    let missed: Vec<f64> = points
        .iter()
        .filter(|p| p.truth && p.sflow_samples == 0)
        .map(|p| p.t_s)
        .collect();
    println!(
        "\nattack-active buckets with ZERO sFlow samples: {} (at t = {:?} s)",
        missed.len(),
        missed
    );
    write_json("results/fig5.json", &points, fast);
}

/// Figs. 7a/7b: distribution of predictions across Table VI's benign
/// and SlowLoris replays — misclassifications cluster at flow starts.
pub fn fig7(ctx: &mut Ctx) {
    let fast = ctx.args.fast;
    let (_, reports) = ctx.table6();
    for (idx, class, label) in [
        (
            0usize,
            TrafficClass::Benign,
            "Fig. 7a — benign replay (0 = correct)",
        ),
        (
            4usize,
            TrafficClass::SlowLoris,
            "Fig. 7b — SlowLoris replay (1 = correct)",
        ),
    ] {
        banner(label);
        let series = fig7_distributions(&reports[idx], class);
        let total = series.len();
        let wrong: Vec<u64> = series
            .iter()
            .filter(|p| p.correct == Some(false))
            .map(|p| p.index)
            .collect();
        println!("predictions: {total}, misclassified: {}", wrong.len());
        if !wrong.is_empty() {
            let first_half = wrong.iter().filter(|&&i| i < total as u64 / 2).count();
            println!(
                "misclassification positions: {:?}{}",
                &wrong[..wrong.len().min(20)],
                if wrong.len() > 20 { " …" } else { "" }
            );
            println!(
                "fraction of errors in first half of replay: {:.2}",
                first_half as f64 / wrong.len() as f64
            );
        }
        write_json(
            &format!(
                "results/fig7_{}.json",
                class.name().replace(' ', "_").to_lowercase()
            ),
            &series,
            fast,
        );
    }
}
