//! Peak resident memory measured from outside the simulator's own
//! bookkeeping. The simulator resets the kernel high-water mark
//! (`VmHWM`) at the start of every run, so a reading taken at the end
//! misses set-up peaks and, with parallel sweep cells, the other cell's
//! peak. A background thread samples `VmRSS` instead, and `VmHWM` is
//! folded in at checkpoints the caller picks (before a run resets it,
//! and at the end).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sampling period of the background reader.
const PERIOD: Duration = Duration::from_millis(5);

/// Reads one `kB` field of `/proc/self/status` (0 when unavailable).
fn status_kb(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

pub struct RssSampler {
    peak_kb: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> Self {
        let peak_kb = Arc::new(AtomicU64::new(status_kb("VmRSS:")));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (peak_kb, stop) = (peak_kb.clone(), stop.clone());
            std::thread::Builder::new()
                .name("perfbench-rss".into())
                .spawn(move || {
                    // The flag and the peak publish nothing else, so
                    // relaxed ordering suffices for both.
                    while !stop.load(Ordering::Relaxed) {
                        peak_kb.fetch_max(status_kb("VmRSS:"), Ordering::Relaxed);
                        std::thread::sleep(PERIOD);
                    }
                })
                .expect("spawn the RSS sampler thread")
        };
        RssSampler {
            peak_kb,
            stop,
            handle: Some(handle),
        }
    }

    /// Folds the kernel high-water mark into the peak. Call before each
    /// simulator run (which resets `VmHWM`) to keep the set-up peak.
    pub fn checkpoint(&self) {
        self.peak_kb
            .fetch_max(status_kb("VmHWM:"), Ordering::Relaxed);
    }

    /// Stops the sampler and returns the peak in MiB.
    pub fn finish(mut self) -> f64 {
        self.checkpoint();
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("RSS sampler thread panicked");
        }
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}
