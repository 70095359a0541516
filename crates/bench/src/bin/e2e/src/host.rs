//! The host: what a run records about it, the process's peak memory, the
//! allocator setting that makes that peak repeatable, and the speed
//! calibration that makes host times comparable across moments of a
//! shared machine.

use std::collections::BTreeMap;
use std::time::Instant;

/// What a run reports about the host.
pub struct Host {
    pub nproc: usize,
    /// Worker threads the kernels may use.
    pub threads: usize,
    pub cpu: String,
    pub git_rev: String,
}

impl Host {
    pub fn detect(max_threads: usize) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc,
            threads: nproc.min(max_threads),
            cpu,
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out revision, read from `.git` in the working directory
/// (a checkout without one reports "unknown").
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)
            .map(|rev| rev.trim().to_string())
            .filter(|rev| !rev.is_empty())
    })
}

/// Peak resident set of this process so far (VmHWM), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Fix glibc's mmap threshold at 4 MiB. By default glibc raises the
/// threshold each time a large block is freed, so which blocks stay in a
/// worker thread's arena depends on thread timing: `coupled_analytics`
/// peaked anywhere between 139 and 159 MB across runs of one seed. With a
/// fixed threshold its peak repeats within 2 %. Returns whether the
/// setting took (false on other C libraries, where peaks may wander).
pub fn fix_mmap_threshold() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only changes glibc's allocator tuning; it is
        // thread-safe and takes plain integers. It runs before this
        // program starts any thread.
        unsafe { mallopt(M_MMAP_THRESHOLD, 4 << 20) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Duration of `calibration_loop` on an unloaded core of the reference
/// host (Intel Xeon, 2 vCPUs), seconds.
pub const REFERENCE_S: f64 = 0.022;

/// A fixed amount of work: insert/remove churn on an ordered map with
/// pseudo-random keys — allocation, pointer chasing and branches, like
/// the simulator's own code, but none of this repository's code, so no
/// change to the program can move it.
fn calibration_loop() -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 1u64;
    for i in 0..150_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4_096, i);
        map.remove(&((x >> 20) % 4_096));
    }
    std::hint::black_box(map.len());
    t0.elapsed().as_secs_f64()
}

/// The calibration loop run on `threads` cores at once; their mean time.
fn calibrate(threads: usize) -> f64 {
    if threads <= 1 {
        return calibration_loop();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(calibration_loop)).collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    times.iter().sum::<f64>() / times.len().max(1) as f64
}

/// Host-speed calibration. On a machine shared with other tenants the
/// cores' speed drifts by up to 2× over minutes; timing a fixed loop
/// before and after each piece of measured work tells how fast the cores
/// ran meanwhile, and scaling the work's time by
/// `REFERENCE_S ÷ calibration` gives the seconds it would have taken on
/// the reference host unloaded. The loop runs on as many cores as the
/// measured work uses.
pub struct Speed {
    threads: usize,
    last: f64,
    /// Every calibration timed, seconds.
    pub samples: Vec<f64>,
}

impl Speed {
    pub fn start(threads: usize) -> Speed {
        let last = calibrate(threads);
        Speed {
            threads,
            last,
            samples: vec![last],
        }
    }

    /// Scale factor for the work done since the previous call.
    pub fn factor(&mut self) -> f64 {
        let now = calibrate(self.threads);
        self.samples.push(now);
        let mean = (self.last + now) / 2.0;
        self.last = now;
        REFERENCE_S / mean.max(1e-9)
    }
}
