//! Network model for the in-process transport.
//!
//! The paper's evaluation ran on Theta's Cray Aries interconnect. Two of its
//! properties matter for the results: per-message latency (what makes
//! batching worthwhile) and the per-NIC *injection bandwidth*, whose
//! oversaturation crashed runs (§IV-E, footnote 7). [`NetworkModel`]
//! captures both for the [`crate::local`] transport.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Parameters governing simulated message delivery.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Fixed one-way latency added to every message.
    pub latency: Duration,
    /// Per-endpoint NIC injection budget in bytes/second.
    /// `f64::INFINITY` disables injection accounting.
    pub injection_bandwidth: f64,
    /// Sliding window over which injection bandwidth is measured.
    pub injection_window: Duration,
    /// If `true`, a sender that exceeds its injection budget gets
    /// [`crate::RpcError::NetworkSaturated`] instead of being throttled —
    /// the Aries NIC failure mode the paper reports.
    pub fail_on_saturation: bool,
}

impl Default for NetworkModel {
    /// An ideal network: zero latency, no injection limit. Messages are
    /// delivered synchronously.
    fn default() -> Self {
        NetworkModel {
            latency: Duration::ZERO,
            injection_bandwidth: f64::INFINITY,
            injection_window: Duration::from_millis(100),
            fail_on_saturation: false,
        }
    }
}

impl NetworkModel {
    /// Whether any delivery delay is configured.
    pub fn is_ideal(&self) -> bool {
        self.latency.is_zero()
    }
}

/// Sliding-window byte counter implementing the injection-bandwidth budget
/// of one NIC.
pub(crate) struct InjectionGauge {
    window: Duration,
    budget_bytes: f64,
    state: Mutex<GaugeState>,
}

struct GaugeState {
    window_start: Instant,
    bytes_in_window: u64,
    saturation_events: u64,
}

impl InjectionGauge {
    /// Create a gauge from the model's injection parameters.
    pub fn new(model: &NetworkModel) -> Self {
        InjectionGauge {
            window: model.injection_window,
            budget_bytes: if model.injection_bandwidth.is_infinite() {
                f64::INFINITY
            } else {
                model.injection_bandwidth * model.injection_window.as_secs_f64()
            },
            state: Mutex::new(GaugeState {
                window_start: Instant::now(),
                bytes_in_window: 0,
                saturation_events: 0,
            }),
        }
    }

    /// Charge one frame of `bytes` bytes. Returns `false` if it pushed the
    /// window over budget.
    pub fn inject(&self, bytes: usize) -> bool {
        let mut st = self.state.lock();
        let now = Instant::now();
        if now.duration_since(st.window_start) >= self.window {
            st.window_start = now;
            st.bytes_in_window = 0;
        }
        st.bytes_in_window += bytes as u64;
        let ok =
            self.budget_bytes.is_infinite() || (st.bytes_in_window as f64) <= self.budget_bytes;
        if !ok {
            st.saturation_events += 1;
        }
        ok
    }

    /// Number of sends that exceeded the budget.
    pub fn saturation_events(&self) -> u64 {
        self.state.lock().saturation_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_ideal() {
        let m = NetworkModel::default();
        assert!(m.is_ideal());
    }

    #[test]
    fn gauge_unlimited_never_saturates() {
        let g = InjectionGauge::new(&NetworkModel::default());
        for _ in 0..100 {
            assert!(g.inject(usize::MAX / 200));
        }
        assert_eq!(g.saturation_events(), 0);
    }

    #[test]
    fn gauge_trips_over_budget() {
        let m = NetworkModel {
            injection_bandwidth: 1000.0, // bytes/s
            injection_window: Duration::from_secs(1),
            ..Default::default()
        };
        let g = InjectionGauge::new(&m);
        assert!(g.inject(600));
        assert!(!g.inject(600)); // 1200 > 1000 budget
        assert_eq!(g.saturation_events(), 1);
    }

    #[test]
    fn gauge_window_resets() {
        let m = NetworkModel {
            injection_bandwidth: 1000.0,
            injection_window: Duration::from_millis(20),
            ..Default::default()
        };
        let g = InjectionGauge::new(&m);
        assert!(g.inject(20)); // budget = 20 bytes per 20ms window
        assert!(!g.inject(20));
        std::thread::sleep(Duration::from_millis(25));
        assert!(g.inject(10));
    }
}
