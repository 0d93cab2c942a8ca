//! Host fingerprint and the thread/connection caps every configuration
//! must respect.

use std::process::Command;

/// Threads and sockets one workload uses.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub server_workers: usize,
    pub loop_shards: usize,
    pub client_threads: usize,
    pub client_connections: usize,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Refuses a configuration that runs more server threads, client threads
/// or client connections than the host has cores: on an oversubscribed
/// host the figures measure the scheduler, not the program.
pub fn check_caps(shape: &Shape) -> Result<(), String> {
    let cores = nproc();
    let server = shape.server_workers + shape.loop_shards;
    if server > cores {
        return Err(format!(
            "{} workers + {} loop shards exceed nproc = {cores}",
            shape.server_workers, shape.loop_shards
        ));
    }
    if shape.client_connections > cores || shape.client_threads > cores {
        return Err(format!(
            "{} client connections on {} threads exceed nproc = {cores}",
            shape.client_connections, shape.client_threads
        ));
    }
    Ok(())
}

fn first_line_with(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint as one JSON object.
pub fn fingerprint(shape: &Shape) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{},\"kernel\":{},\"rustc\":{},\"cpu\":{},\"mem_total\":{},\
         \"server_workers\":{},\"loop_shards\":{},\"client_threads\":{},\
         \"client_connections\":{}}}",
        nproc(),
        json_str(&kernel),
        json_str(&rustc_version()),
        json_str(&first_line_with("/proc/cpuinfo", "model name")),
        json_str(&first_line_with("/proc/meminfo", "MemTotal")),
        shape.server_workers,
        shape.loop_shards,
        shape.client_threads,
        shape.client_connections,
    )
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".into())
}

/// Host CPU time stolen by the hypervisor so far, in seconds summed over
/// all CPUs (`steal` of `/proc/stat`, in 100 Hz ticks).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let cpu = text.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = first_line_with("/proc/self/status", "VmHWM")
        .trim_end_matches("kB")
        .trim()
        .parse()
        .unwrap_or(0.0);
    kb / 1024.0
}
