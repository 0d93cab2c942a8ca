//! Regenerates the paper's tables and figures.
//!
//! ```text
//! reproduce <experiment>... [--quick] [--seed N] [--out DIR]
//!
//! experiments: fig3 fig4 fig5 fig6 fig7 fig8 table3 ablation extensions all
//! --quick      reduced datasets/workloads (minutes instead of tens of minutes)
//! --seed N     base seed (default 0xD90D)
//! --out DIR    JSON/text output directory (default ./results)
//! ```
//!
//! Accuracy experiments print one aligned table per paper panel and write
//! `DIR/<id>.json`; fig3 writes `DIR/fig3.txt`.

use dpod_bench::report::Experiment;
use dpod_bench::{experiments, HarnessConfig, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, ids) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: reproduce <fig3|fig4|fig5|fig6|fig7|fig8|table3|ablation|extensions|all>... [--quick] [--seed N] [--out DIR]"
            );
            return ExitCode::FAILURE;
        }
    };
    // Fig. 7 filters Fig. 6, so one invocation computes Fig. 6 at most
    // once and shares it between the two.
    let mut fig6 = None;
    for id in &ids {
        if let Err(e) = run(&cfg, id, &mut fig6) {
            eprintln!("!! {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

const ALL: [&str; 9] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table3",
    "ablation",
    "extensions",
];

fn parse(args: &[String]) -> Result<(HarnessConfig, Vec<String>), String> {
    let mut cfg = HarnessConfig::default();
    let mut ids = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg.scale = Scale::Quick,
            "--tiny" => cfg.scale = Scale::Tiny, // undocumented: the binary's tests run it
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                cfg.out_dir = v.into();
            }
            "all" => ids.extend(ALL.iter().map(|s| s.to_string())),
            id if ALL.contains(&id) => ids.push(id.to_string()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if ids.is_empty() {
        return Err("no experiment selected".into());
    }
    ids.dedup();
    Ok((cfg, ids))
}

fn run(cfg: &HarnessConfig, id: &str, fig6: &mut Option<Experiment>) -> Result<(), String> {
    let started = std::time::Instant::now();
    eprintln!(">> running {id} at {:?} scale…", cfg.scale);
    match id {
        "fig3" => {
            let art = experiments::fig3(cfg);
            println!("{art}");
            let path = cfg.out_dir.join("fig3.txt");
            std::fs::create_dir_all(&cfg.out_dir)
                .and_then(|()| std::fs::write(&path, &art))
                .map_err(|e| format!("could not write {}: {e}", path.display()))?;
            eprintln!(">> wrote {}", path.display());
        }
        _ => {
            let e = match id {
                "fig4" => experiments::fig4(cfg),
                "fig5" => experiments::fig5(cfg),
                "fig6" => fig6.get_or_insert_with(|| experiments::fig6(cfg)).clone(),
                "fig7" => {
                    experiments::fig7_from(fig6.get_or_insert_with(|| experiments::fig6(cfg)))
                }
                "fig8" => experiments::fig8(cfg),
                "table3" => experiments::table3(cfg),
                "ablation" => experiments::ablation(cfg),
                "extensions" => experiments::extensions(cfg),
                other => unreachable!("unvalidated experiment id {other}"),
            };
            e.print();
            let path = e
                .save_json(&cfg.out_dir)
                .map_err(|err| format!("could not persist {}: {err}", e.id))?;
            eprintln!(">> wrote {}", path.display());
        }
    }
    eprintln!(">> {id} done in {:.1?}", started.elapsed());
    Ok(())
}
