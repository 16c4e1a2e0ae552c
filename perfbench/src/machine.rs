//! What the run executed on, and what this machine can do.

use std::time::Instant;

/// Logical CPUs available to the process when this was first called
/// (call it before [`pin_to_one_cpu`]).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// CPU model name from `/proc/cpuinfo` (empty if unavailable).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_default()
}

/// Pins this process to the last CPU it may run on, with `taskset`.
/// Call it before any thread is spawned: threads inherit the affinity
/// of the thread that creates them. Returns the CPU, or `None` when the
/// process could not be pinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?
        .split(':')
        .nth(1)?
        .trim()
        .to_string();
    // The last CPU: the first one tends to take more of the system's
    // interrupt and housekeeping work.
    let cpu: usize = allowed.rsplit([',', '-']).next()?.parse().ok()?;
    let pinned = std::process::Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(cpu)
}

/// Cache sizes of CPU 0 as `(level, type, size)` from sysfs.
pub fn caches() -> Vec<(String, String, String)> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: std::path::PathBuf| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    (0..8)
        .map(|i| base.join(format!("index{i}")))
        .filter(|d| d.exists())
        .map(|d| {
            (
                read(d.join("level")),
                read(d.join("type")),
                read(d.join("size")),
            )
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's peak-resident-set mark (`VmHWM`) to the current
/// resident set, so the next [`peak_rss_mb`] reads the peak since now.
/// Returns false where the kernel does not offer the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User plus system CPU seconds of the whole process (all threads,
/// finished ones included), from `/proc/self/stat` in 10 ms ticks.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Stream-triad bandwidth in GB/s: `threads` workers each run
/// `a = b + s·c` over their own three arrays of `len` doubles, started
/// together after allocation. Counts two reads and one write per
/// element; the best of five trials.
pub fn triad_gbps(threads: usize, len: usize) -> f64 {
    let len = len.max(1024);
    let reps = (20_000_000 / len).clamp(2, 2000);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let start = std::sync::Barrier::new(threads);
        let slowest = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut a = vec![0.0f64; len];
                        let b = vec![1.0f64; len];
                        let c = vec![2.0f64; len];
                        start.wait();
                        let t = Instant::now();
                        for _ in 0..reps {
                            for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
                                *x = y + 0.5 * z;
                            }
                            std::hint::black_box(&mut a);
                        }
                        t.elapsed().as_secs_f64()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("triad worker panicked"))
                .fold(0.0f64, f64::max)
        });
        let bytes = (threads * reps * len * 3 * 8) as f64;
        best = best.max(bytes / slowest / 1e9);
    }
    best
}
