//! `repro [VIEW…]` — regenerates the paper's tables and figures.
//!
//! Takes the union of the cells the named views need (every view when
//! none is named), runs each one `results/cells.jsonl` does not hold yet,
//! recording its line as soon as it finishes, then renders
//! `results/<view>.txt` for each view. To re-measure a cell, delete its
//! line.

use marl_bench::cells::{Cell, Store};
use marl_bench::views::{results_dir, View, VIEWS};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(names: Vec<String>) -> Result<(), String> {
    let views: Vec<&View> = if names.is_empty() {
        VIEWS.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                VIEWS.iter().find(|v| v.name == name).ok_or_else(|| {
                    let known: Vec<&str> = VIEWS.iter().map(|v| v.name).collect();
                    format!("unknown view `{name}`; the views are: {}", known.join(" "))
                })
            })
            .collect::<Result<_, _>>()?
    };
    let dir = results_dir();
    let path = dir.join("cells.jsonl");
    let mut store = match std::fs::read_to_string(&path) {
        Ok(text) => Store::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Store::default(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };

    let mut seen = BTreeSet::new();
    let cells: Vec<Cell> =
        views.iter().flat_map(|v| (v.cells)()).filter(|c| seen.insert(c.key())).collect();
    let count =
        |kind: &str| cells.iter().filter(|c| c.key().starts_with(&format!("{{\"{kind}\""))).count();
    let missing: Vec<&Cell> = cells.iter().filter(|c| !store.contains(c)).collect();
    eprintln!(
        "{} cells ({} Train, {} Gather, {} Simulate, {} Layout); {} to run",
        cells.len(),
        count("Train"),
        count("Gather"),
        count("Simulate"),
        count("Layout"),
        missing.len()
    );
    let t0 = Instant::now();
    for (i, cell) in missing.iter().enumerate() {
        eprintln!("[{}/{}] {}", i + 1, missing.len(), cell.key());
        let outcome = cell.run();
        store.insert(cell, outcome);
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, store.to_jsonl())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eprintln!("ran {} cells in {:.1} s", missing.len(), t0.elapsed().as_secs_f64());

    for view in views {
        let file = dir.join(format!("{}.txt", view.name));
        std::fs::write(&file, (view.render)(&store))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("wrote results/{}.txt", view.name);
    }
    Ok(())
}
