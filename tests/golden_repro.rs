//! Golden-file regression harness for the 17 `repro` experiments.
//!
//! Every experiment's rendered report is pinned under `tests/golden/`
//! as a JSON document; this suite regenerates each report and diffs it
//! against the pinned copy, so refactors can't silently drift the paper
//! numbers. To refresh the goldens after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_repro
//! ```
//!
//! then review the `tests/golden/*.json` diff like any other code change.

use fuzzy_handover::sim::experiments::registry;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenExperiment {
    id: String,
    title: String,
    output: String,
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// Point at the first differing line so a drift reads like a diff, not
/// like two 3 000-character blobs.
fn first_divergence(golden: &str, fresh: &str) -> String {
    for (n, (g, f)) in golden.lines().zip(fresh.lines()).enumerate() {
        if g != f {
            return format!("first differing line {}:\n  golden: {g}\n  fresh : {f}", n + 1);
        }
    }
    format!(
        "line counts differ: golden {} vs fresh {}",
        golden.lines().count(),
        fresh.lines().count()
    )
}

#[test]
fn golden_experiments_match() {
    let dir = golden_dir();
    let update = update_requested();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }

    let mut updated = 0usize;
    for e in registry() {
        let fresh = GoldenExperiment {
            id: e.id.to_string(),
            title: e.title.to_string(),
            output: (e.render)(),
        };
        let path = dir.join(format!("{}.json", e.id));
        if update {
            let json = serde_json::to_string(&fresh).expect("serialize golden");
            std::fs::write(&path, json + "\n").expect("write golden file");
            updated += 1;
            continue;
        }
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            panic!(
                "missing golden file {} ({err}); generate with UPDATE_GOLDEN=1 cargo test --test golden_repro",
                path.display()
            )
        });
        let golden: GoldenExperiment =
            serde_json::from_str(&raw).unwrap_or_else(|err| {
                panic!("corrupt golden file {}: {err}", path.display())
            });
        let reserialized = serde_json::to_string(&golden).expect("re-serialize golden") + "\n";
        assert!(
            reserialized == raw,
            "re-serializing tests/golden/{}.json does not reproduce its bytes",
            e.id
        );
        assert_eq!(
            golden.title, fresh.title,
            "experiment {} changed its title; refresh the goldens if intended",
            e.id
        );
        assert!(
            golden.output == fresh.output,
            "experiment {} drifted from tests/golden/{}.json\n{}\n\
             If the change is intended, refresh with UPDATE_GOLDEN=1 cargo test --test golden_repro",
            e.id,
            e.id,
            first_divergence(&golden.output, &fresh.output)
        );
    }
    if update {
        println!("refreshed {updated} golden files in {}", dir.display());
    }
}

#[test]
fn golden_directory_has_no_strays() {
    // Every pinned file corresponds to a current experiment — renamed or
    // deleted experiments must clean up their goldens.
    if update_requested() {
        return;
    }
    let ids: Vec<String> = registry().iter().map(|e| format!("{}.json", e.id)).collect();
    let dir = golden_dir();
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|err| panic!("missing {} ({err}); run UPDATE_GOLDEN=1 once", dir.display()));
    for entry in entries {
        let name = entry.expect("read dir entry").file_name();
        let name = name.to_string_lossy().to_string();
        assert!(
            ids.contains(&name),
            "stray golden file tests/golden/{name} matches no experiment"
        );
    }
}

#[test]
fn golden_covers_every_experiment() {
    if update_requested() {
        return;
    }
    assert_eq!(registry().len(), 17, "the paper reproduction pins 17 experiments");
    for e in registry() {
        assert!(
            golden_dir().join(format!("{}.json", e.id)).exists(),
            "no golden for experiment {}",
            e.id
        );
    }
}
