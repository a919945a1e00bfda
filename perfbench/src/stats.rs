//! Sample statistics and process probes used by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`, reported only when
/// at least `min_beyond` samples lie above the chosen rank: a tail figure
/// resting on fewer samples is really the maximum and does not repeat
/// from run to run.
pub fn percentile(xs: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < min_beyond {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// One open-loop request as the generator saw it (seconds from the start
/// of the schedule).
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When the schedule said the request was due.
    pub due: f64,
    /// When the generator actually wrote it.
    pub sent: f64,
    /// When the response arrived.
    pub done: f64,
}

impl Sent {
    /// Latency a user arriving at the due time sees: a stalled request
    /// delays the ones queued behind it, and that wait counts.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator wrote the request.
    pub fn late(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Round trip from write to response.
    pub fn service(&self) -> f64 {
        self.done - self.sent
    }
}

/// The `Threads:` count of a `/proc/<pid>/status` text.
pub fn parse_threads(status: &str) -> Option<u64> {
    status_field(status, "Threads:")
}

/// A numeric field (first token after `key`) of a `/proc/<pid>/status`
/// text, e.g. `VmHWM:` in kB.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|t| t.parse().ok())
}

/// Live thread count of this process.
pub fn thread_count() -> Option<u64> {
    parse_threads(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend on
/// `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays an open-loop schedule over one connection in which each
    /// request takes `service[i]` once written: request `i` is written at
    /// `max(due[i], done[i-1])`. Used to check the latency accounting.
    fn replay_connection(due: &[f64], service: &[f64]) -> Vec<Sent> {
        let mut free_at = f64::NEG_INFINITY;
        due.iter()
            .zip(service)
            .map(|(&d, &s)| {
                let sent = d.max(free_at);
                let done = sent + s;
                free_at = done;
                Sent { due: d, sent, done }
            })
            .collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0, 10), Some(50.0));
        assert_eq!(percentile(&xs, 90.0, 10), Some(90.0));
        assert_eq!(percentile(&xs, 99.0, 0), Some(99.0));
        // The nearest rank rounds up: p90 of 15 samples is the 14th.
        let ys: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(percentile(&ys, 90.0, 0), Some(14.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 above it; p91 leaves 9.
        assert!(percentile(&xs, 90.0, 10).is_some());
        assert_eq!(percentile(&xs, 91.0, 10), None);
        // With 99 samples p90 is rank 90 and leaves only 9 beyond.
        assert_eq!(percentile(&xs[..99], 90.0, 10), None);
        assert_eq!(percentile(&[], 50.0, 0), None);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        // Due every 10 ms; the second request stalls for 55 ms.
        let due = [0.0, 0.010, 0.020, 0.030, 0.040];
        let service = [0.001, 0.055, 0.001, 0.001, 0.001];
        let sent = replay_connection(&due, &service);
        let lat: Vec<f64> = sent.iter().map(Sent::latency).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(lat[1], 0.055));
        // The next three could only be written once the stall ended, at
        // 65 ms, and each is charged from its own due time.
        assert!(close(sent[2].sent, 0.065));
        assert!(close(lat[2], 0.046));
        assert!(close(lat[3], 0.037));
        assert!(close(lat[4], 0.028));
        // Timed from the write instead, the queued requests look fast.
        assert!(sent[2..].iter().all(|s| close(s.service(), 0.001)));
        assert!(close(sent[4].late(), 0.027));
    }

    #[test]
    fn thread_count_from_proc_status() {
        let status = "Name:\tperfbench\nState:\tR (running)\nThreads:\t37\nVmHWM:\t  20480 kB\n";
        assert_eq!(parse_threads(status), Some(37));
        assert_eq!(status_field(status, "VmHWM:"), Some(20480));
        assert_eq!(parse_threads("Name:\tx\n"), None);
        assert!(thread_count().is_some_and(|n| n >= 1));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut v: Vec<usize> = (0..10).collect();
        Rng::new(3, 0).shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }
}
