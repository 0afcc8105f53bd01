//! What the run ran on: cores, kernel threads, revision, compiler, memory.

use std::process::Command;
use sthsl_obs::Json;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`. Steal is time
/// the hypervisor ran someone else on this machine's virtual CPUs: the
/// share of it over a run explains most run-to-run drift on a shared host.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// FNV-1a hash of this benchmark's own executable: it names the build, so
/// two builds of different code never share a record, while reruns of one
/// build do.
pub fn build_id() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Some(format!("{hash:016x}"))
}

/// First line of a command's standard output, or `"unknown"`. The command
/// is waited for before returning.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build context recorded with every run.
pub fn describe(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let as_int = |v: usize| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    vec![
        ("schema".into(), Json::Str("sthsl-perfbench-v1".into())),
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Int(i64::try_from(seed).unwrap_or(i64::MAX))),
        (
            "verification_seed".into(),
            Json::Int(i64::try_from(crate::VERIFICATION_SEED).unwrap_or(0)),
        ),
        ("seconds".into(), Json::Int(i64::try_from(seconds).unwrap_or(i64::MAX))),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), as_int(nproc)),
        ("kernel_threads".into(), as_int(sthsl_parallel::num_threads())),
        ("sthsl_threads_env".into(), std::env::var("STHSL_THREADS").map_or(Json::Null, Json::Str)),
        ("git_rev".into(), Json::Str(first_line("git", &["rev-parse", "HEAD"]))),
        ("rustc".into(), Json::Str(first_line("rustc", &["--version"]))),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn build_id_is_stable_for_one_build() {
        let id = super::build_id().expect("own executable is readable");
        assert_eq!(id.len(), 16);
        assert_eq!(super::build_id(), Some(id));
    }
}
