//! Golden test for the `--metrics` JSON document (`schema_version` 3).
//!
//! Timing values vary run to run, so the golden pins the *shape* of the
//! document rather than raw bytes: every key with its JSON type, the
//! full counter set in declaration order, the histogram names, and the
//! exact span-site sequence for a fixed single-threaded command.
//! Regenerate with `UPDATE_GOLDENS=1 cargo test -p nalist-cli --test
//! metrics_golden` after an intentional schema change, then review the
//! diff like any other code change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use nalist::lint::json::Json;
use nalist_cli::{run, Files};

struct RwFiles {
    inner: BTreeMap<String, String>,
    written: RefCell<BTreeMap<String, String>>,
}

impl Files for RwFiles {
    fn read(&self, path: &str) -> Result<String, String> {
        self.inner
            .get(path)
            .cloned()
            .ok_or_else(|| format!("no such file: {path}"))
    }

    fn write(&self, path: &str, content: &str) -> Result<(), String> {
        self.written
            .borrow_mut()
            .insert(path.to_string(), content.to_string());
        Ok(())
    }
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/cli_fixtures/metrics_schema.golden")
}

fn assert_golden(actual: &str) {
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "metrics schema golden mismatch; rerun with UPDATE_GOLDENS=1 if intentional"
    );
}

fn ty(j: &Json) -> &'static str {
    match j {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) => "num",
        Json::Str(_) => "str",
        Json::Arr(_) => "arr",
        Json::Obj(_) => "obj",
    }
}

/// Renders the document's shape: deterministic leaves (names, sites,
/// the version/command/exit-code header) by value, timing leaves by
/// type only.
fn render_shape(doc: &Json) -> String {
    let Json::Obj(fields) = doc else {
        panic!("metrics document must be a JSON object")
    };
    let mut out = String::new();
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("schema_version" | "exit_code", Json::Num(n)) => {
                writeln!(out, "{key} = {n}").unwrap();
            }
            ("command", Json::Str(s)) => writeln!(out, "{key} = \"{s}\"").unwrap(),
            ("counters", Json::Obj(counters)) => {
                writeln!(out, "counters:").unwrap();
                for (name, v) in counters {
                    writeln!(out, "  {name}: {}", ty(v)).unwrap();
                }
            }
            ("histograms", Json::Arr(hists)) => {
                writeln!(out, "histograms[{}]:", hists.len()).unwrap();
                for h in hists {
                    let name = h.get("name").and_then(Json::as_str).expect("hist name");
                    let Json::Obj(fields) = h else { unreachable!() };
                    let keys: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| format!("{k}: {}", ty(v)))
                        .collect();
                    writeln!(out, "  {name} {{{}}}", keys.join(", ")).unwrap();
                }
            }
            ("spans", Json::Arr(spans)) => {
                writeln!(out, "spans[{}]:", spans.len()).unwrap();
                for s in spans {
                    let site = s.get("site").and_then(Json::as_str).expect("span site");
                    let depth = s.get("depth").and_then(Json::as_usize).expect("depth");
                    let Json::Obj(fields) = s else { unreachable!() };
                    let keys: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| format!("{k}: {}", ty(v)))
                        .collect();
                    writeln!(out, "  depth {depth} {site} {{{}}}", keys.join(", ")).unwrap();
                }
            }
            _ => writeln!(out, "{key}: {}", ty(value)).unwrap(),
        }
    }
    out
}

#[test]
fn metrics_schema_matches_golden() {
    let mut inner = BTreeMap::new();
    inner.insert(
        "deps.txt".to_string(),
        "Pubcrawl(Person) ->> Pubcrawl(Visit[Drink(Pub)])\n".to_string(),
    );
    let files = RwFiles {
        inner,
        written: RefCell::new(BTreeMap::new()),
    };
    let argv: Vec<String> = [
        "decide",
        "Pubcrawl(Person, Visit[Drink(Beer, Pub)])",
        "deps.txt",
        "Pubcrawl(Person) -> Pubcrawl(Visit[λ])",
        "--metrics",
        "m.json",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    run(&argv, &files).expect("decide succeeds");
    let written = files.written.borrow();
    let doc = nalist::lint::json::parse(written.get("m.json").expect("metrics written"))
        .expect("valid JSON");
    assert_golden(&render_shape(&doc));
}
