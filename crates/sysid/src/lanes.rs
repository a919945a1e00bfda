//! Lane-major history rings for batched model stepping.
//!
//! Several instances of one model (the pads of a bus, say) advance
//! together as *lanes*. Their histories are stored `[slot][lane]`: lane is
//! the fastest-varying index, so gathering one lag for every lane is a
//! contiguous copy and the batched kernels
//! ([`RbfNetwork::eval_grad0_lanes`](crate::rbf::RbfNetwork::eval_grad0_lanes),
//! [`ArxModel::step_lanes`](crate::arx::ArxModel::step_lanes)) can run
//! their inner loops over contiguous memory. The RBF kernels do so from 8
//! lanes up; below that they copy out each lane's regressor and run the
//! scalar kernel, which is faster on a few lanes.

/// Lane-major ring buffer: `lags` history slots × `n_lanes` lanes, newest
/// slot first. `push_row` rotates the head instead of shuffling data, so
/// advancing history is O(`n_lanes`) writes regardless of depth, and
/// [`LaneRing::row`] hands back a contiguous per-slot row for batched
/// gathering.
#[derive(Debug, Clone)]
pub struct LaneRing {
    lags: usize,
    n_lanes: usize,
    /// Index of the newest slot.
    head: usize,
    /// Slot-major storage, `lags x n_lanes`.
    buf: Vec<f64>,
}

impl LaneRing {
    /// A ring of `lags` slots over `n_lanes` lanes, zero-filled.
    pub fn new(lags: usize, n_lanes: usize) -> Self {
        LaneRing {
            lags,
            n_lanes,
            head: 0,
            buf: vec![0.0; lags * n_lanes],
        }
    }

    /// Number of history slots.
    pub fn lags(&self) -> usize {
        self.lags
    }

    /// Lane count.
    pub fn n_lanes(&self) -> usize {
        self.n_lanes
    }

    /// Contiguous row of all lanes at history depth `lag` (0 = newest).
    ///
    /// # Panics
    ///
    /// Panics if `lag >= lags`.
    #[inline]
    pub fn row(&self, lag: usize) -> &[f64] {
        assert!(lag < self.lags, "lag out of range");
        let slot = (self.head + lag) % self.lags;
        &self.buf[slot * self.n_lanes..(slot + 1) * self.n_lanes]
    }

    /// Pushes one new row (all lanes) as the newest slot, dropping the
    /// oldest. No-op for a zero-lag ring.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_lanes`.
    pub fn push_row(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.n_lanes, "lane count mismatch");
        if self.lags == 0 {
            return;
        }
        self.head = (self.head + self.lags - 1) % self.lags;
        let slot = self.head;
        self.buf[slot * self.n_lanes..(slot + 1) * self.n_lanes].copy_from_slice(values);
    }

    /// Overwrites every slot of one lane with `value` (history reset, e.g.
    /// after a DC settle).
    pub fn fill_lane(&mut self, lane: usize, value: f64) {
        for slot in 0..self.lags {
            self.buf[slot * self.n_lanes + lane] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ring_rotation() {
        let mut ring = LaneRing::new(3, 2);
        assert_eq!(ring.lags(), 3);
        assert_eq!(ring.n_lanes(), 2);
        ring.push_row(&[1.0, 10.0]);
        ring.push_row(&[2.0, 20.0]);
        ring.push_row(&[3.0, 30.0]);
        ring.push_row(&[4.0, 40.0]); // drops [1, 10]
        assert_eq!(ring.row(0), &[4.0, 40.0]);
        assert_eq!(ring.row(1), &[3.0, 30.0]);
        assert_eq!(ring.row(2), &[2.0, 20.0]);
        ring.fill_lane(0, 9.0);
        assert_eq!(ring.row(2), &[9.0, 20.0]);
        // Zero-lag ring: push is a no-op.
        let mut empty = LaneRing::new(0, 2);
        empty.push_row(&[1.0, 2.0]);
    }
}
