//! Identification signal generators.
//!
//! The estimation quality of black-box port models depends strongly on the
//! excitation. Following the paper:
//!
//! * receivers' *linear* submodel: a waveform "composed of few steps and
//!   spanning the range of the power supply" → [`step_train`];
//! * receivers' *nonlinear* (protection) submodels: "a multilevel voltage
//!   waveform within the port voltage range where the protection circuit
//!   cannot be neglected" → [`multilevel`];
//! * drivers' state submodels: the port is held in a logic state while the
//!   load side is excited across the output voltage range → [`multilevel`]
//!   again, with dwell times comparable to the device transition time.

use numkit::rng::SplitMix64;

/// A deterministic multilevel staircase with smooth (raised-cosine) level
/// transitions, spanning `[lo, hi]`.
///
/// * `n_levels` random levels are drawn by stratified sampling: one uniform
///   draw inside each of `n_levels` equal sub-intervals of the range, then
///   shuffled — unlike plain uniform draws this cannot cluster and leave
///   coverage gaps, so the downstream RBF fit always sees the full range;
/// * each level lasts `dwell` samples;
/// * transitions take `edge` samples (`edge < dwell`);
/// * `seed` makes the signal reproducible.
///
/// Returns a signal of `n_levels * dwell` samples.
///
/// # Panics
///
/// Panics if `dwell == 0`, `edge >= dwell`, or `hi <= lo` — generator
/// misconfiguration is a programming error in the experiment definition.
pub fn multilevel(
    lo: f64,
    hi: f64,
    n_levels: usize,
    dwell: usize,
    edge: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(dwell > 0, "dwell must be positive");
    assert!(edge < dwell, "edge must be shorter than dwell");
    assert!(hi > lo, "range must be non-degenerate");
    let mut rng = SplitMix64::new(seed);
    // Stratified levels: one draw per equal-width stratum, then a
    // Fisher-Yates shuffle so consecutive levels still jump randomly.
    let mut levels = stratified_levels(lo, hi, n_levels, &mut rng);
    shuffle(&mut levels, &mut rng);
    pin_extremes(&mut levels, lo, hi);
    staircase(&levels, dwell, edge)
}

/// A focus sub-range of a [`multilevel_focus`] excitation: the slice of the
/// port range that must receive a guaranteed `share` of the levels.
#[derive(Debug, Clone, Copy)]
pub struct Focus {
    /// Lower edge of the focus region.
    pub lo: f64,
    /// Upper edge of the focus region.
    pub hi: f64,
    /// Fraction of the levels stratified inside the region, in `(0, 1)`.
    pub share: f64,
}

impl Focus {
    /// A focus region `[lo, hi]` receiving `share` of the levels.
    pub fn new(lo: f64, hi: f64, share: f64) -> Self {
        Focus { lo, hi, share }
    }
}

/// Like [`multilevel`], but with a guaranteed stratified share of levels
/// inside a [`Focus`] sub-range of `[lo, hi]` — the excitation for
/// submodels whose nonlinearity lives in a small slice of the port range,
/// like the receiver protection circuits that only conduct beyond the
/// rails.
///
/// A plain staircase over the full range gives the focus region only
/// `n_levels · (focus width) / (hi − lo)` levels in expectation; when the
/// region is narrow, the downstream RBF fit sees too few samples exactly
/// where the current is largest. Here `ceil(focus.share · n_levels)` levels
/// are stratified *inside* the focus region (one per equal-width stratum —
/// no clustering, no gaps), the rest are stratified over the full range,
/// and the combined set is shuffled so consecutive levels still jump
/// randomly. The global extremes stay pinned to `lo` / `hi` like
/// [`multilevel`].
///
/// Returns a signal of `n_levels * dwell` samples.
///
/// # Panics
///
/// Panics under the same conditions as [`multilevel`], or when the focus
/// region is degenerate, reaches outside `[lo, hi]`, or its share is not
/// within `(0, 1)`.
pub fn multilevel_focus(
    lo: f64,
    hi: f64,
    focus: Focus,
    n_levels: usize,
    dwell: usize,
    edge: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(dwell > 0, "dwell must be positive");
    assert!(edge < dwell, "edge must be shorter than dwell");
    assert!(hi > lo, "range must be non-degenerate");
    assert!(focus.hi > focus.lo, "focus range must be non-degenerate");
    assert!(
        focus.lo >= lo && focus.hi <= hi,
        "focus must lie within the range"
    );
    assert!(
        focus.share > 0.0 && focus.share < 1.0,
        "focus share must be in (0, 1)"
    );
    let n_focus = ((focus.share * n_levels as f64).ceil() as usize)
        .clamp(1, n_levels.saturating_sub(1).max(1));
    let mut rng = SplitMix64::new(seed);
    let mut levels = stratified_levels(lo, hi, n_levels - n_focus, &mut rng);
    levels.extend(stratified_levels(focus.lo, focus.hi, n_focus, &mut rng));
    shuffle(&mut levels, &mut rng);
    pin_extremes(&mut levels, lo, hi);
    staircase(&levels, dwell, edge)
}

/// `n` shuffled stratified draws over `[lo, hi]`: one uniform sample inside
/// each of `n` equal-width strata, then a Fisher–Yates shuffle — the same
/// coverage discipline [`multilevel`] uses for excitation levels, exposed
/// for Monte-Carlo parameter sweeps (per-dimension stratified columns give
/// a Latin-hypercube plan when each dimension uses an independent seed).
///
/// Unlike plain uniform draws, every stratum is guaranteed a
/// representative, so `n` trials cannot cluster and leave a corner of the
/// parameter range untested. Reproducible for a given `seed`.
///
/// # Panics
///
/// Panics if `hi <= lo` or `n == 0` — a degenerate sweep range is a
/// programming error in the experiment definition.
pub fn stratified_samples(lo: f64, hi: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(hi > lo, "range must be non-degenerate");
    assert!(n > 0, "sample count must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut samples = stratified_levels(lo, hi, n, &mut rng);
    shuffle(&mut samples, &mut rng);
    samples
}

/// One uniform draw inside each of `n` equal-width strata of `[lo, hi]` —
/// stratified sampling cannot cluster and leave coverage gaps the way
/// plain uniform draws can.
fn stratified_levels(lo: f64, hi: f64, n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    (0..n)
        .map(|i| lo + (i as f64 + rng.next_f64()) * width)
        .collect()
}

/// In-place Fisher–Yates shuffle.
fn shuffle(levels: &mut [f64], rng: &mut SplitMix64) {
    for i in (1..levels.len()).rev() {
        let j = rng.below(i + 1);
        levels.swap(i, j);
    }
}

/// Makes sure the extremes are visited so the fit covers the full range:
/// moves the lowest and highest draws (the stratum-0 and stratum-(n-1)
/// representatives) to the front and snaps them to the endpoints, so no
/// interior stratum loses its representative.
fn pin_extremes(levels: &mut [f64], lo: f64, hi: f64) {
    let n_levels = levels.len();
    if n_levels >= 2 {
        let i_min = levels
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("n_levels >= 2")
            .0;
        levels.swap(0, i_min);
        let i_max = levels
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("n_levels >= 2")
            .0;
        levels.swap(1, i_max);
        levels[0] = lo;
        levels[1] = hi;
    }
}

/// Synthesizes the staircase waveform: each level held `dwell` samples,
/// with raised-cosine transitions of `edge` samples.
fn staircase(levels: &[f64], dwell: usize, edge: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(levels.len() * dwell);
    let mut prev = levels[0];
    for &level in levels {
        for k in 0..dwell {
            if k < edge && edge > 0 {
                // Raised-cosine edge from prev to level.
                let f = 0.5 * (1.0 - (std::f64::consts::PI * k as f64 / edge as f64).cos());
                out.push(prev + (level - prev) * f);
            } else {
                out.push(level);
            }
        }
        prev = level;
    }
    out
}

/// A staircase of `n_steps` equal steps from `lo` to `hi` and back down,
/// each level lasting `dwell` samples with raised-cosine edges of `edge`
/// samples. Used to excite the nearly linear region of receivers.
///
/// # Panics
///
/// Panics under the same conditions as [`multilevel`].
pub fn step_train(lo: f64, hi: f64, n_steps: usize, dwell: usize, edge: usize) -> Vec<f64> {
    assert!(n_steps > 0, "n_steps must be positive");
    assert!(dwell > 0, "dwell must be positive");
    assert!(edge < dwell, "edge must be shorter than dwell");
    let mut levels = Vec::with_capacity(2 * n_steps + 1);
    for k in 0..=n_steps {
        levels.push(lo + (hi - lo) * k as f64 / n_steps as f64);
    }
    for k in (0..n_steps).rev() {
        levels.push(lo + (hi - lo) * k as f64 / n_steps as f64);
    }
    let mut out = Vec::with_capacity(levels.len() * dwell);
    let mut prev = levels[0];
    for &level in &levels {
        for k in 0..dwell {
            if k < edge && edge > 0 {
                let f = 0.5 * (1.0 - (std::f64::consts::PI * k as f64 / edge as f64).cos());
                out.push(prev + (level - prev) * f);
            } else {
                out.push(level);
            }
        }
        prev = level;
    }
    out
}

/// A single sampled trapezoidal pulse: `low` baseline, rising to `high`
/// after `delay` samples with `rise` samples of edge, holding for `width`
/// samples, falling over `fall` samples, then `tail` samples of baseline.
pub fn trapezoid(
    low: f64,
    high: f64,
    delay: usize,
    rise: usize,
    width: usize,
    fall: usize,
    tail: usize,
) -> Vec<f64> {
    let n = delay + rise + width + fall + tail;
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let v = if k < delay {
            low
        } else if k < delay + rise {
            low + (high - low) * (k - delay) as f64 / rise.max(1) as f64
        } else if k < delay + rise + width {
            high
        } else if k < delay + rise + width + fall {
            high - (high - low) * (k - delay - rise - width) as f64 / fall.max(1) as f64
        } else {
            low
        };
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multilevel_spans_range_and_is_reproducible() {
        let s1 = multilevel(-1.0, 2.0, 20, 50, 10, 42);
        let s2 = multilevel(-1.0, 2.0, 20, 50, 10, 42);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 1000);
        let lo = s1.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = s1.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((lo + 1.0).abs() < 1e-9, "min {lo}");
        assert!((hi - 2.0).abs() < 1e-9, "max {hi}");
        // Different seed, different signal.
        let s3 = multilevel(-1.0, 2.0, 20, 50, 10, 43);
        assert_ne!(s1, s3);
    }

    #[test]
    fn multilevel_edges_are_smooth() {
        let s = multilevel(0.0, 1.0, 6, 40, 8, 7);
        // Maximum per-sample jump bounded by the raised-cosine slope.
        let max_step = s
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0_f64, f64::max);
        // Full swing over 8 samples, peak slope pi/2/edge.
        assert!(max_step < 1.0 * std::f64::consts::PI / 16.0 + 1e-9);
    }

    #[test]
    fn multilevel_focus_covers_every_focus_stratum() {
        let (lo, hi) = (-0.9, 4.2);
        let (share, n_levels, dwell) = (0.35, 50, 4);
        let focus = Focus::new(3.3, 4.2, share);
        let s = multilevel_focus(lo, hi, focus, n_levels, dwell, 1, 0xace);
        assert_eq!(s.len(), n_levels * dwell);
        // Recover the dwelt levels (the settled tail of each dwell block).
        let levels: Vec<f64> = s.chunks(dwell).map(|c| c[dwell - 1]).collect();
        // Every equal-width stratum of the focus region holds a level —
        // the coverage guarantee plain uniform draws cannot give.
        let n_focus = (share * n_levels as f64).ceil() as usize;
        let width = (focus.hi - focus.lo) / n_focus as f64;
        for k in 0..n_focus {
            let (a, b) = (
                focus.lo + k as f64 * width,
                focus.lo + (k + 1) as f64 * width,
            );
            assert!(
                levels.iter().any(|&v| v >= a - 1e-12 && v <= b + 1e-12),
                "focus stratum {k} [{a:.3},{b:.3}] has no level"
            );
        }
        // The full range is still spanned exactly.
        let min = levels.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((min - lo).abs() < 1e-9, "min {min}");
        assert!((max - hi).abs() < 1e-9, "max {max}");
        // Reproducible; different seed, different signal.
        assert_eq!(
            s,
            multilevel_focus(lo, hi, focus, n_levels, dwell, 1, 0xace)
        );
        assert_ne!(
            s,
            multilevel_focus(lo, hi, focus, n_levels, dwell, 1, 0xacf)
        );
    }

    #[test]
    #[should_panic(expected = "focus must lie within")]
    fn multilevel_focus_validates_focus_range() {
        multilevel_focus(0.0, 1.0, Focus::new(0.5, 1.5, 0.3), 10, 8, 2, 0);
    }

    #[test]
    fn step_train_shape() {
        let s = step_train(0.0, 3.0, 3, 20, 4);
        assert_eq!(s.len(), 7 * 20);
        // Peak equals hi.
        assert!(s.iter().any(|&v| (v - 3.0).abs() < 1e-12));
        // Ends at lo.
        assert!((s.last().unwrap() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_shape() {
        let s = trapezoid(0.0, 2.0, 5, 4, 10, 4, 5);
        assert_eq!(s.len(), 28);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[9], 2.0); // top
        assert_eq!(s[27], 0.0);
        assert!((s[5 + 2] - 1.0).abs() < 1e-12); // mid-rise
    }

    #[test]
    fn stratified_samples_cover_every_stratum() {
        let (lo, hi, n) = (-2.0, 3.0, 16);
        let s = stratified_samples(lo, hi, n, 0xbeef);
        assert_eq!(s.len(), n);
        let width = (hi - lo) / n as f64;
        for k in 0..n {
            let (a, b) = (lo + k as f64 * width, lo + (k + 1) as f64 * width);
            assert!(
                s.iter().any(|&v| v >= a && v <= b),
                "stratum {k} [{a:.3},{b:.3}] empty"
            );
        }
        // Reproducible; different seed, different draw.
        assert_eq!(s, stratified_samples(lo, hi, n, 0xbeef));
        assert_ne!(s, stratified_samples(lo, hi, n, 0xbef0));
    }

    /// Bit-exact outputs of the seeded generators. Every extracted model
    /// is fitted on these streams, and reproducibility within one run
    /// (`assert_eq!(s1, s2)`) cannot notice a drifted generator.
    #[test]
    fn seeded_generators_match_golden_bits() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let s = multilevel(-1.0, 2.0, 40, 12, 3, 7);
        let mut head = vec![0xbff0_0000_0000_0000; 13];
        head.extend([
            0xbfd0_0000_0000_0004,
            0x3ff3_ffff_ffff_fffe,
            0x4000_0000_0000_0000,
        ]);
        assert_eq!(bits(&s[..16]), head);
        // The first 16 samples only show the pinned extremes; the dwelt
        // levels show every stratified draw and the shuffle.
        let levels: Vec<f64> = s.chunks(12).map(|c| c[11]).collect();
        assert_eq!(
            bits(&levels),
            [
                0xbff0000000000000,
                0x4000000000000000,
                0xbfcf017db6fc95fc,
                0x3fee4e06b147beb2,
                0x3ff9780e2e09b262,
                0x3fd95f2ce6ab0958,
                0x3ffb4a77efa26b42,
                0xbfe5506b71709aec,
                0xbfd8f49f974d2018,
                0x3ff543dcd400e772,
                0xbfed8f4907934f6f,
                0xbfdcd34261ad418c,
                0x3ff6dc1d2ca0532c,
                0xbfe766a5caf23b6b,
                0xbf9fe56689d01e60,
                0xbfd2d121c0fa3dba,
                0x3fe2a7f3f77538d4,
                0x3fd105ab58020a60,
                0x3fd32aa1fd0a7ef4,
                0xbfe909c5cb97d98a,
                0x3fe83790daaa81bc,
                0x3ffd85b04e4f8c76,
                0x3fded5cc18b1c688,
                0x3ff34c4c32df2f64,
                0x3ff2aea596cca5d0,
                0xbfba5ed3b24355c8,
                0x3fe19e742bd333ea,
                0x3ffaba6665b1f3e8,
                0xbfe366bfd0561703,
                0xbfe07a16f4e383c6,
                0x3fbd639209c740b0,
                0x3fe5a06cf76bfc46,
                0x3ff0e371a53bf060,
                0x3ffdda41cd14bed0,
                0x3fc543789d9dcf38,
                0x3ff52a5539bfdb86,
                0x3febc41ed07e797e,
                0x3fee9583519c75ba,
                0x3fa4a8bd5f187360,
                0x3ff7f06953048770,
            ]
        );
        let focus = multilevel_focus(-0.9, 4.2, Focus::new(3.3, 4.2, 0.35), 12, 4, 1, 0xace);
        let levels: Vec<f64> = focus.chunks(4).map(|c| c[3]).collect();
        assert_eq!(
            bits(&levels),
            [
                0xbfeccccccccccccd,
                0x4010cccccccccccd,
                0x40073c2296941f01,
                0x400e456acb3fb34d,
                0x400c6fee20274d04,
                0x400b47b05e6f2556,
                0x3fe6df1bd7dc5a9f,
                0x400f0830fc288a89,
                0x4005e7b5c7706362,
                0x3ffe851a3229c094,
                0x400bf9291a8132db,
                0x3fd13f6af3c4e312,
            ]
        );
        assert_eq!(
            bits(&stratified_samples(0.0, 1.0, 8, 0xbeef)),
            [
                0x3fed64249f7948e2,
                0x3fe123a69a22d6f4,
                0x3fd0bc08ce627fb4,
                0x3fe8155ee7eca9f1,
                0x3fd961b06fe94f0c,
                0x3fe573699bb9ea46,
                0x3fa2040a0c6973da,
                0x3fce1c19a04eb9ce,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "edge must be shorter")]
    fn multilevel_validates_edge() {
        multilevel(0.0, 1.0, 4, 10, 10, 0);
    }
}
