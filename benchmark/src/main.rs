//! `fc-benchmark`: one benchmark of the whole Femto-Containers hosting
//! stack — five closed-loop workloads, nine end-to-end metrics each, and
//! a per-layer ledger measured from outside. See `README.md` beside the
//! manifest for the command, the tables and how to read the output.

mod compare;
mod harness;
mod json;
mod layers;
mod metrics;
mod run;
mod shadow;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Value;
use run::{execute, Options, Outcome};
use workload::cold_deploy::ColdDeploy;
use workload::fleet_lossy::FleetLossy;
use workload::host_path::{ComputeFletcher, DurablePut, HostPath, WarmGet};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// The workloads, in the order a full run makes them.
pub const WORKLOADS: [&str; 5] = [
    "warm_get",
    "compute_fletcher",
    "durable_put",
    "cold_deploy",
    "fleet_lossy",
];

const USAGE: &str = "\
usage: fc-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]
       fc-benchmark compare [--aa] <result-dir-or-files A> -- <result-dir-or-files B>

run      one workload in this process, or — without --workload — all five,
         each in a child process of its own. Prints every metric by name and
         unit; the last line of stdout is one JSON object.
compare  judges result set B against result set A with the bounds of
         BENCHMARK.json; exits non-zero on any regression.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn parse_run(args: &[String]) -> Result<(Option<String>, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
        corrupt_op: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?.clone()),
            "--seed" => opts.seed = number(value("a number")?)?,
            "--seconds" => opts.seconds = number(value("a number")?)?.clamp(1, 60),
            "--trace" => opts.trace = number(value("0 or 1")?)? != 0,
            "--smoke" => opts.smoke = true,
            "--corrupt-op" => opts.corrupt_op = Some(number(value("an op index")?)? as usize),
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    Ok((workload, opts))
}

fn run_named(name: &str, opts: &Options) -> Option<Outcome> {
    Some(match name {
        "warm_get" => execute::<HostPath<WarmGet>>(opts),
        "compute_fletcher" => execute::<HostPath<ComputeFletcher>>(opts),
        "durable_put" => execute::<HostPath<DurablePut>>(opts),
        "cold_deploy" => execute::<ColdDeploy>(opts),
        "fleet_lossy" => execute::<FleetLossy>(opts),
        _ => return None,
    })
}

/// Where results and traces go: `out/` beside the manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, value.to_json() + "\n")
    };
    write().map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (workload, opts) = parse_run(args)?;
    if !opts.smoke && !run::aligned_build() {
        return Err(format!(
            "this binary was built without `-C llvm-args=-{}` (flags: {:?}); two builds of \
             one source then disagree by up to 10 % on compute_fletcher, so it refuses to \
             measure. Build with `--config benchmark/.cargo/config.toml` (see README), or \
             pass --smoke.",
            run::ALIGN_FLAG,
            run::RUSTFLAGS
        ));
    }
    match workload {
        Some(name) => {
            // May replace this process with itself, ASLR off.
            harness::fix_address_space();
            run_one(&name, &opts)
        }
        None => run_all(&opts),
    }
}

fn run_one(name: &str, opts: &Options) -> Result<ExitCode, String> {
    let outcome = run_named(name, opts)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {WORKLOADS:?}"))?;
    print!("{}", outcome.table());
    if !opts.smoke {
        let sha = run::git_sha();
        let pass = if opts.trace { "-trace" } else { "" };
        let stem = format!("{sha}-{}-{name}", opts.seed);
        write_json(
            &out_dir().join(format!("result-{stem}{pass}.json")),
            &outcome.result_file(opts),
        )?;
        if let Some(trace) = outcome.detail.get("trace") {
            write_json(&out_dir().join(format!("trace-{stem}.json")), trace)?;
        }
    }
    println!("{}", outcome.summary().to_json());
    Ok(ExitCode::SUCCESS)
}

/// Every workload in a child process of its own, so peak RSS and
/// allocator state are per workload.
fn run_all(opts: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut combined = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (table, summary) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        if !out.status.success() {
            return Err(format!("{name} exited with {}:\n{stdout}", out.status));
        }
        println!("{table}");
        let summary = Value::parse(summary).map_err(|e| format!("{name}: {e}"))?;
        all_correct &= summary.get("correct") == Some(&Value::Bool(true));
        combined.push((name, summary));
    }
    println!("{}", json::obj(combined).to_json());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `[profile.release]` table of a manifest, as sorted
    /// `key = value` lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let own = std::fs::read_to_string(here.join("Cargo.toml")).unwrap();
        let root = std::fs::read_to_string(here.join("../Cargo.toml")).unwrap();
        let (own, root) = (release_profile(&own), release_profile(&root));
        assert!(!root.is_empty(), "root manifest has a release profile");
        assert_eq!(
            own, root,
            "benchmark/Cargo.toml must repeat the root release profile"
        );
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(here.join("../BENCHMARK.json")).unwrap();
        let doc = Value::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let catalogue = |metrics: &[metrics::Metric]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        m.unit.to_owned(),
                        m.better.as_str().to_owned(),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(metrics::END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(metrics::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn run_options_parse_the_callers_contract() {
        let args: Vec<String> = "--workload warm_get --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let (workload, opts) = parse_run(&args).unwrap();
        assert_eq!(workload.as_deref(), Some("warm_get"));
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.smoke),
            (7, 3, true, false)
        );
        assert!(parse_run(&["--seed".to_owned()]).is_err());
        assert!(parse_run(&["--bogus".to_owned()]).is_err());
        assert!(parse_run(&["--seed".to_owned(), "x".to_owned()]).is_err());
    }
}
