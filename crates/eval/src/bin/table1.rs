//! Regenerates **Table 1**: mean speedup over the static oracle for the
//! dynamic oracle, the two-level method (with/without feature-extraction
//! time) and the one-level method (with/without), plus the one-level
//! accuracy column — for all eight tests. Also prints the §4.2 second-level
//! relabeling statistic and the production classifier chosen per test.

use intune_eval::csvout::{speedup, write_csv};
use intune_eval::{run_case_full, Args, TestCase};
use intune_exec::Engine;

fn main() {
    let args = Args::parse();
    let cfg = args.config();
    let mut run = args.run_options();
    // `--daemon ADDR`: the two-level column is scored against a running
    // selection daemon instead of the in-process classifier (and must
    // come out byte-identical — CI diffs the two CSVs).
    if let Some(client) = args.connect_daemon().expect("cannot reach the daemon") {
        let info = client.info();
        eprintln!(
            "remote selection: {} at {} (benchmark `{}`, revision {}, \
             artifact schema v{})",
            info.server,
            args.daemon.as_deref().unwrap_or_default(),
            info.benchmark,
            info.revision,
            info.artifact_version
        );
        run.selector = Some(std::sync::Arc::new(client));
    }
    // One measurement engine serves all eight cases; its counters report
    // how much the memoized cost cache and plan deduplication saved.
    let engine = Engine::from_env_or_exit();

    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>9}  production classifier",
        "benchmark",
        "dyn-orc",
        "2lvl",
        "2lvl+fx",
        "1lvl",
        "1lvl+fx",
        "1lvl-acc",
        "2lvl-acc",
        "dyn-acc",
        "relabel%"
    );

    let mut rows: Vec<Vec<String>> = vec![vec![
        "benchmark".into(),
        "dynamic_oracle".into(),
        "two_level".into(),
        "two_level_fx".into(),
        "one_level".into(),
        "one_level_fx".into(),
        "one_level_accuracy_pct".into(),
        "two_level_accuracy_pct".into(),
        "relabel_fraction".into(),
        "production_classifier".into(),
    ]];

    let mut training = None;
    // Level-2 induction work summed over the cases run.
    let (mut trees_fitted, mut split_scans, mut split_scans_computed) = (0, 0, 0);
    for case in TestCase::all() {
        if let Some(only) = &args.only {
            if !case.name().contains(only.as_str()) {
                continue;
            }
        }
        let outcome = run_case_full(case, &cfg, &engine, &run).expect("suite case failed");
        training = Some(outcome.stats);
        trees_fitted += outcome.stats.trees_fitted;
        split_scans += outcome.stats.split_scans;
        split_scans_computed += outcome.stats.split_scans_computed;
        let r = &outcome.row;
        println!(
            "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>7.1}% {:>7.1}% {:>7.1}% {:>8.1}%  {}",
            r.name,
            speedup(r.dynamic_oracle),
            speedup(r.two_level),
            speedup(r.two_level_fx),
            speedup(r.one_level),
            speedup(r.one_level_fx),
            r.one_level_accuracy_pct,
            r.two_level_accuracy_pct,
            r.dynamic_accuracy_pct,
            100.0 * r.relabel_fraction,
            r.production_classifier,
        );
        rows.push(vec![
            r.name.clone(),
            format!("{:.4}", r.dynamic_oracle),
            format!("{:.4}", r.two_level),
            format!("{:.4}", r.two_level_fx),
            format!("{:.4}", r.one_level),
            format!("{:.4}", r.one_level_fx),
            format!("{:.2}", r.one_level_accuracy_pct),
            format!("{:.2}", r.two_level_accuracy_pct),
            format!("{:.4}", r.relabel_fraction),
            r.production_classifier.clone(),
        ]);
    }

    let path = write_csv(&args.out_dir, "table1.csv", &rows);
    println!("\nwrote {path}");
    if let Some(s) = training {
        println!(
            "training cost per test (§4.2): {} tuner evaluations + {} \
             matrix cells requested, {} fresh runs after memoization \
             ({} cache hits, {:.1}% hit rate); an exhaustive per-input \
             search would cost ~{:.0}x more tuner work (paper: 'over 200 \
             times longer'); level 2 over all cases run: {} subset trees \
             fitted, {} split scans requested, {} computed ({:.1}% shared)",
            s.tuner_evaluations,
            s.measurement_runs,
            s.measured_runs,
            s.cache_hits,
            100.0 * s.cache_hit_rate(),
            s.exhaustive_ratio(),
            trees_fitted,
            split_scans,
            split_scans_computed,
            100.0 * (split_scans - split_scans_computed) as f64 / split_scans.max(1) as f64
        );
    }
    println!(
        "measurement engine ({} worker threads, all cases): {}",
        engine.threads(),
        engine.stats()
    );
}
