//! Host facts and per-process facts read from `/proc`.
//!
//! Every run records the machine it ran on (cores, CPU model, kernel,
//! source revision, build features and profile) and, for the server
//! child, its CPU time, peak RSS and thread count from `/proc/<pid>`.

use crate::report::{json_num, json_str};
use std::path::Path;

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`.  The
/// kernel ABI fixes `USER_HZ` at 100 on every architecture Linux exports
/// it for.
const USER_HZ: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One `/proc/<pid>` reading of the server child.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User CPU seconds.
    pub utime_s: f64,
    /// System CPU seconds.
    pub stime_s: f64,
    /// Peak resident set size (`VmHWM`) in MiB.
    pub hwm_mb: f64,
    pub threads: u64,
}

impl ProcSample {
    pub fn read(pid: u32) -> std::io::Result<ProcSample> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // The command name may hold spaces; fields resume after its ')'.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| std::io::Error::other("unparseable /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // After ')': state is field 3, so utime (14) and stime (15) sit at
        // offsets 11 and 12.
        let tick = |i: usize| -> f64 {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map_or(0.0, |t| t as f64 / USER_HZ)
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        let field = |key: &str| -> u64 {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        Ok(ProcSample {
            utime_s: tick(11),
            stime_s: tick(12),
            hwm_mb: field("VmHWM:") as f64 / 1024.0,
            threads: field("Threads:"),
        })
    }

    pub fn cpu_s(&self) -> f64 {
        self.utime_s + self.stime_s
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"utime_s\": {}, \"stime_s\": {}, \"vm_hwm_mb\": {}, \"threads\": {}}}",
            json_num(self.utime_s),
            json_num(self.stime_s),
            json_num(self.hwm_mb),
            self.threads
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The checked-out revision, read from `.git` when the benchmark runs in a
/// clone (an exported source tree has none and reports `unknown`).
fn git_sha() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The host block printed by every run.  The crates are built with their
/// default features: the SIMD kernels off, tracing compiled in.
pub fn host_line() -> String {
    let trace_compiled = rtim_core::TraceConfig::sampled(1, 0).is_enabled();
    format!(
        "{{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"git_sha\": {}, \
         \"features\": {{\"simd\": false, \"trace\": {}}}, \"profile\": {}}}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(&kernel()),
        json_str(&git_sha()),
        trace_compiled,
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    )
}
