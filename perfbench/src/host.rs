//! What the benchmark reads from the host: `/proc` CPU and memory
//! counters, hypervisor steal, and the facts recorded with every run.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Seconds one reference kernel run takes on the host the bounds were
/// set on (a 2-vCPU VM, release build): the scale time metrics are
/// reported at.
pub const NOMINAL_REFERENCE_S: f64 = 0.0014;

/// Time between two reference kernel runs of the sampler.
const SAMPLE_PERIOD: Duration = Duration::from_millis(50);

/// A fixed piece of work of the benchmark's own, in the program's mix:
/// sorting integers, formatting and parsing numbers, and floating-point
/// arithmetic. The program never runs it, so its time measures only how
/// fast the host runs code at the moment.
fn reference_kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ints: Vec<u64> = (0..1 << 14).map(|_| next()).collect();
    ints.sort_unstable();
    let mut text = String::new();
    for &v in ints.iter().step_by(4) {
        write!(text, "{},", (v >> 11) as f64 / (1u64 << 40) as f64).expect("write to a String");
    }
    let parsed: f64 = text
        .split_terminator(',')
        .map(|t| t.parse::<f64>().expect("a number it printed"))
        .sum();
    const N: usize = 48;
    let a: Vec<f64> = (0..N * N).map(|_| (next() >> 11) as f64 * 1e-16).collect();
    let mut c = vec![0.0f64; N * N];
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += aik * a[k * N + j];
            }
        }
    }
    ints[ints.len() / 2] ^ parsed.to_bits() ^ c.iter().sum::<f64>().to_bits()
}

/// The sampler process's main loop (`perfbench --reference-sampler`):
/// every `SAMPLE_PERIOD`, time one reference kernel run and print its
/// wall nanoseconds on a line. Ends when its parent stops reading.
pub fn run_sampler() {
    let mut out = std::io::stdout().lock();
    loop {
        std::thread::sleep(SAMPLE_PERIOD);
        let started = Instant::now();
        std::hint::black_box(reference_kernel());
        let ns = started.elapsed().as_nanos();
        if writeln!(out, "{ns}").and_then(|()| out.flush()).is_err() {
            return;
        }
    }
}

/// Times the reference kernel through a workload run, in a process of
/// its own on the benchmark's CPU, so its CPU time is nobody's metric.
pub struct Sampler {
    child: Child,
}

impl Sampler {
    /// Starts the sampler process.
    pub fn start() -> Sampler {
        let exe = std::env::current_exe().expect("the benchmark's own path");
        let child = Command::new(exe)
            .arg("--reference-sampler")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the reference sampler");
        Sampler { child }
    }

    /// Stops the sampler and summarises what it timed.
    ///
    /// # Panics
    /// Panics if it timed nothing.
    pub fn stop(mut self) -> HostSpeed {
        self.child.kill().ok();
        let mut text = String::new();
        self.child
            .stdout
            .take()
            .expect("piped stdout")
            .read_to_string(&mut text)
            .expect("read the sampler's output");
        self.child.wait().ok();
        // A line cut short by the kill does not parse and is dropped.
        let samples: Vec<f64> = text
            .lines()
            .filter_map(|l| l.parse::<u64>().ok())
            .map(|ns| ns as f64 / 1e9)
            .collect();
        HostSpeed::of(&samples)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        // Never leave the sampler behind, also when a check panics.
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

/// How fast the host ran the reference kernel over one workload run.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    /// Mean wall seconds of one kernel run, leaving out runs that took
    /// more than twice the median: those were preempted by the work
    /// sharing the CPU or stolen from by the hypervisor, not slowed by
    /// the CPU's speed.
    pub reference_s: f64,
    /// Kernel runs timed.
    pub samples: usize,
}

impl HostSpeed {
    fn of(samples: &[f64]) -> HostSpeed {
        assert!(!samples.is_empty(), "the reference sampler timed nothing");
        let limit = 2.0 * crate::report::median(samples);
        let kept: Vec<f64> = samples.iter().copied().filter(|&s| s <= limit).collect();
        HostSpeed {
            reference_s: kept.iter().sum::<f64>() / kept.len() as f64,
            samples: samples.len(),
        }
    }

    /// Seconds measured here, as seconds on the nominal host.
    pub fn nominal(&self, secs: f64) -> f64 {
        secs * NOMINAL_REFERENCE_S / self.reference_s
    }
}

/// On-CPU seconds, at nanosecond resolution, that the live threads of
/// process `pid` have used so far. Threads that already exited are not
/// counted: the daemon serves on long-lived threads, and the benchmark
/// learns on one thread, so no thread ends inside a timed window.
pub fn process_cpu_s(pid: u32) -> f64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .unwrap_or_else(|e| panic!("cannot list /proc/{pid}/task: {e}"));
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .map(|text| schedstat_runtime_s(&text))
        .sum()
}

/// The on-CPU time field of a `schedstat` file, in seconds.
fn schedstat_runtime_s(text: &str) -> f64 {
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("numeric schedstat runtime");
    ns as f64 / 1e9
}

/// On-CPU seconds of the calling thread, at nanosecond resolution.
pub fn thread_cpu_s() -> f64 {
    schedstat_runtime_s(
        &std::fs::read_to_string("/proc/thread-self/schedstat")
            .expect("cannot read /proc/thread-self/schedstat"),
    )
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/status: {e}"));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc status");
    kb / 1024.0
}

/// Aggregate CPU-time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now.
    pub fn now() -> CpuTimes {
        let text = std::fs::read_to_string("/proc/stat").expect("cannot read /proc/stat");
        let line = text.lines().next().expect("/proc/stat has a cpu line");
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted inside user and nice.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().expect("numeric /proc/stat field"))
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields[7],
        }
    }

    /// Share of all CPU time since `earlier` that the hypervisor stole,
    /// in percent.
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// CPU and wall time of one process over a timed window.
#[derive(Debug, Clone, Copy)]
pub struct CpuWindow {
    pid: u32,
    cpu_s: f64,
    started: Instant,
}

impl CpuWindow {
    /// Opens the window on process `pid`.
    pub fn open(pid: u32) -> CpuWindow {
        CpuWindow {
            pid,
            cpu_s: process_cpu_s(pid),
            started: Instant::now(),
        }
    }

    /// `(cpu seconds, wall seconds)` since the window opened.
    pub fn close(&self) -> (f64, f64) {
        (
            process_cpu_s(self.pid) - self.cpu_s,
            self.started.elapsed().as_secs_f64(),
        )
    }
}

/// The facts recorded with every run, so an outlier can be explained.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPUs available to the benchmark (1 when `run.sh` pins it).
    pub nproc: usize,
    /// Logical CPUs of the host, from `/proc/cpuinfo`.
    pub online: usize,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
    /// `rustc --version` of the toolchain on the path.
    pub rustc: String,
}

impl HostInfo {
    /// Collects the host facts.
    pub fn collect() -> HostInfo {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            online: std::fs::read_to_string("/proc/cpuinfo").map_or(0, |t| {
                t.lines().filter(|l| l.starts_with("processor")).count()
            }),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc,
        }
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_leaves_out_runs_over_twice_the_median() {
        let speed = HostSpeed::of(&[1.0, 1.2, 0.8, 1.0, 9.0]);
        assert_eq!(speed.samples, 5);
        assert!((speed.reference_s - 1.0).abs() < 1e-12, "{speed:?}");
    }
}
