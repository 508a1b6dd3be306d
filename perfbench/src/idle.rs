//! Keep the CPUs out of their idle state while a serving workload runs.
//!
//! On a virtual machine an idle vCPU is handed back to the host, and
//! waking it again can take from tens of microseconds to milliseconds
//! depending on what else the host runs. A one-shot request wakes
//! several threads in turn (client, event loop, worker), so that wake-up
//! cost, not the daemon, sets much of its latency and most of its
//! run-to-run spread. One spinner per CPU at the `SCHED_IDLE` policy
//! runs only when nothing else is runnable: it keeps each vCPU busy
//! without taking time from the threads being measured, which preempt
//! it as soon as they wake.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spinner threads; dropping the value stops and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// Start `n` spinners. A spinner that cannot lower its own policy
    /// to `SCHED_IDLE` exits at once rather than compete for CPU time.
    #[must_use]
    pub fn start(n: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !idle_policy() {
                        return;
                    }
                    // The flag publishes no data, so Relaxed suffices.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..1024 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; a join error is ignored here
            // because drop must not panic.
            let _ = t.join();
        }
    }
}

/// Move the calling thread to `SCHED_IDLE`; whether it worked.
#[cfg(target_os = "linux")]
fn idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` only reads one `sched_param` through
    // the pointer, which points to a live, aligned local of the C
    // layout; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn idle_policy() -> bool {
    false
}
