//! Helpers shared by the eval integration suites.

use std::any::Any;
use std::sync::{Mutex, OnceLock};

use lockstep_cpu::CoreModel;
use lockstep_workloads::{GoldenCapture, Workload};

type CaptureCache =
    Mutex<Vec<((&'static str, &'static str, u64, u64), &'static (dyn Any + Send + Sync))>>;

/// The golden capture of workload `name` on core `C` under stimulus seed
/// `seed`, with checkpoints every `interval` cycles. Captures are
/// expensive, so a test binary makes each one once and shares it.
pub fn capture<C: CoreModel>(
    name: &'static str,
    seed: u64,
    interval: u64,
) -> &'static GoldenCapture<C::State> {
    static CACHE: OnceLock<CaptureCache> = OnceLock::new();
    let mut cache = CACHE.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    let key = (C::NAME, name, seed, interval);
    let cap = match cache.iter().find(|(k, _)| *k == key) {
        Some(&(_, cap)) => cap,
        None => {
            let w = Workload::find(name).unwrap();
            let cap: &'static GoldenCapture<C::State> =
                Box::leak(Box::new(w.golden_capture_for::<C>(seed, 400_000, interval)));
            cache.push((key, cap));
            cap
        }
    };
    cap.downcast_ref().expect("cache keyed by core name")
}
