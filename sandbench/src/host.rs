//! What the host did to the measurement.
//!
//! The reference host is a 2-vCPU virtual machine, and its hypervisor
//! takes the vCPUs away for other tenants — for minutes at a time, up to
//! half of the CPU time, halving wall-clock throughput of the same code.
//! The guest kernel counts that time as *steal* in `/proc/stat`. A
//! [`CpuClock`] reads the counters at both ends of an interval; the
//! *unstolen* share of the interval is `busy / (busy + steal)`: the part
//! of the CPU time the workload asked for that it actually got. Timings
//! multiplied by that share estimate what the interval would have taken
//! on the same host left alone, to first order (work that is CPU-bound
//! whenever it is runnable, which the saturated pipeline is).

/// Aggregate CPU counters of `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuClock {
    busy: u64,
    steal: u64,
}

impl CpuClock {
    /// Reads the counters now; zeros where `/proc/stat` cannot be read,
    /// which makes every interval report "nothing stolen".
    #[must_use]
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| text.lines().next().map(Self::parse))
            .unwrap_or_default()
    }

    /// Parses the aggregate `cpu` line: user nice system idle iowait irq
    /// softirq steal ...
    fn parse(line: &str) -> Self {
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuClock {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Share of the CPU time asked for since `self` that was granted,
    /// in (0, 1]; 1 when nothing ran or nothing was stolen.
    #[must_use]
    pub fn unstolen_since(self) -> f64 {
        Self::unstolen_between(self, Self::now())
    }

    fn unstolen_between(from: Self, to: Self) -> f64 {
        let busy = to.busy.saturating_sub(from.busy) as f64;
        let steal = to.steal.saturating_sub(from.steal) as f64;
        if busy <= 0.0 {
            1.0
        } else {
            busy / (busy + steal)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_line() {
        let c = CpuClock::parse("cpu  254174 10 53678 436113 2218 3 7335 23423 0 0");
        assert_eq!(c.busy, 254_174 + 10 + 53_678 + 3 + 7_335);
        assert_eq!(c.steal, 23_423);
        // Older kernels print fewer fields.
        assert_eq!(CpuClock::parse("cpu 1 2 3 4").steal, 0);
    }

    #[test]
    fn unstolen_share_is_busy_over_busy_plus_steal() {
        let from = CpuClock {
            busy: 100,
            steal: 10,
        };
        assert_eq!(
            CpuClock::unstolen_between(
                from,
                CpuClock {
                    busy: 400,
                    steal: 110
                }
            ),
            0.75
        );
        assert_eq!(
            CpuClock::unstolen_between(
                from,
                CpuClock {
                    busy: 400,
                    steal: 10
                }
            ),
            1.0
        );
        assert_eq!(CpuClock::unstolen_between(from, from), 1.0);
    }
}
