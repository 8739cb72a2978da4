//! Network model for the in-process transport.
//!
//! The paper's evaluation ran on Theta's Cray Aries interconnect. Two of its
//! properties matter for the results: message cost (latency + serialization
//! over the link bandwidth — what makes batching worthwhile) and the per-NIC
//! *injection bandwidth*, whose oversaturation crashed runs (§IV-E, footnote
//! 7). [`NetworkModel`] captures both for the [`crate::local`] transport.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// Parameters governing simulated message delivery.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Fixed one-way latency added to every message.
    pub latency: Duration,
    /// Link bandwidth in bytes/second used to convert message size into
    /// transfer time. `f64::INFINITY` disables the size-dependent term.
    pub bandwidth: f64,
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
    /// An ideal network: zero latency, infinite bandwidth, no injection
    /// limit. Messages are delivered synchronously.
    fn default() -> Self {
        NetworkModel {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
            injection_bandwidth: f64::INFINITY,
            injection_window: Duration::from_millis(100),
            fail_on_saturation: false,
        }
    }
}

impl NetworkModel {
    /// A model loosely shaped like one Aries NIC hop: a few microseconds of
    /// latency and ~10 GB/s of link bandwidth.
    pub fn aries_like() -> Self {
        NetworkModel {
            latency: Duration::from_micros(3),
            bandwidth: 10.0e9,
            injection_bandwidth: 8.0e9,
            injection_window: Duration::from_millis(50),
            fail_on_saturation: false,
        }
    }

    /// Whether any delivery delay is configured.
    pub fn is_ideal(&self) -> bool {
        self.latency.is_zero() && self.bandwidth.is_infinite()
    }

    /// One-way transfer time for a message of `bytes` bytes.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bandwidth.is_infinite() {
            self.latency
        } else {
            self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
        }
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
    total_frames: u64,
    bursts: u64,
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
                total_frames: 0,
                bursts: 0,
                saturation_events: 0,
            }),
        }
    }

    /// Record a coalesced burst of `frames` frames totalling `bytes`. The
    /// token bucket is charged once for the whole burst — the NIC sees one
    /// injection, not `frames` of them. Returns `false` if the burst pushed
    /// the window over budget.
    pub fn inject_burst(&self, frames: u64, bytes: usize) -> bool {
        let mut st = self.state.lock();
        let now = Instant::now();
        if now.duration_since(st.window_start) >= self.window {
            st.window_start = now;
            st.bytes_in_window = 0;
        }
        st.bytes_in_window += bytes as u64;
        st.total_frames += frames;
        st.bursts += 1;
        let ok =
            self.budget_bytes.is_infinite() || (st.bytes_in_window as f64) <= self.budget_bytes;
        if !ok {
            st.saturation_events += 1;
        }
        ok
    }

    /// Total frames ever injected (a burst of N frames counts N).
    pub fn total_frames(&self) -> u64 {
        self.state.lock().total_frames
    }

    /// Number of injection charges (a coalesced burst counts once), so
    /// `total_frames / bursts` is the achieved coalescing factor.
    pub fn bursts(&self) -> u64 {
        self.state.lock().bursts
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
        assert_eq!(m.transfer_time(1 << 20), Duration::ZERO);
    }

    #[test]
    fn transfer_time_includes_bandwidth_term() {
        let m = NetworkModel {
            latency: Duration::from_micros(10),
            bandwidth: 1.0e6, // 1 MB/s
            ..Default::default()
        };
        let t = m.transfer_time(500_000);
        assert!(t >= Duration::from_millis(500));
        assert!(t < Duration::from_millis(501));
    }

    #[test]
    fn gauge_unlimited_never_saturates() {
        let g = InjectionGauge::new(&NetworkModel::default());
        for _ in 0..100 {
            assert!(g.inject_burst(1, usize::MAX / 200));
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
        assert!(g.inject_burst(1, 600));
        assert!(!g.inject_burst(1, 600)); // 1200 > 1000 budget
        assert_eq!(g.saturation_events(), 1);
    }

    #[test]
    fn burst_charges_bucket_once() {
        let m = NetworkModel {
            injection_bandwidth: 1000.0,
            injection_window: Duration::from_secs(1),
            ..Default::default()
        };
        let g = InjectionGauge::new(&m);
        // Eight 100-byte frames as one burst: within the 1000-byte budget,
        // one charge, no saturation.
        assert!(g.inject_burst(8, 800));
        assert_eq!(g.bursts(), 1);
        assert_eq!(g.total_frames(), 8);
        assert_eq!(g.saturation_events(), 0);
        // A second burst trips the budget exactly once, not per frame.
        assert!(!g.inject_burst(4, 400));
        assert_eq!(g.saturation_events(), 1);
        assert_eq!(g.bursts(), 2);
    }

    #[test]
    fn gauge_window_resets() {
        let m = NetworkModel {
            injection_bandwidth: 1000.0,
            injection_window: Duration::from_millis(20),
            ..Default::default()
        };
        let g = InjectionGauge::new(&m);
        assert!(g.inject_burst(1, 20)); // budget = 20 bytes per 20ms window
        assert!(!g.inject_burst(1, 20));
        std::thread::sleep(Duration::from_millis(25));
        assert!(g.inject_burst(1, 10));
    }

    #[test]
    fn aries_like_has_latency() {
        let m = NetworkModel::aries_like();
        assert!(!m.is_ideal());
        assert!(m.transfer_time(0) >= Duration::from_micros(3));
    }
}
