//! Property-based coverage of the exchange layer's encoding guarantees:
//! for random valid artifacts of every kind and both text versions,
//! text → binary → text must reproduce the original text **byte for
//! byte** (and binary → binary likewise), because text floats use
//! shortest round-trip notation and binary floats are the raw IEEE-754
//! bits — nothing in either direction is allowed to re-quantize.
//!
//! The second half corrupts containers: random single-byte payload flips
//! must surface as [`ExchangeError::DigestMismatch`], random truncations
//! as [`ExchangeError::Truncated`], and the deterministic fixtures at the
//! bottom pin the exact typed error for each documented corruption class
//! (bad magic, flipped digest byte, truncated section).
//!
//! The committed golden artifacts under `tests/data/` pin the on-disk
//! layout itself, and a seeded mutation corpus over them drives the
//! loader past the digest checks into both payload decoders.

use macromodel::driver::{PwRbfDriverModel, WeightSequence};
use macromodel::exchange::binary::{index_bytes, BinSection, FILE_HEADER_LEN, MAGIC};
use macromodel::exchange::{
    content_digest, load_artifact_bytes, save_artifact_bytes, AnyModel, Artifact, ArtifactFormat,
    ExchangeError, Provenance,
};
use macromodel::receiver::{CrModel, ReceiverModel};
use macromodel::{Error, Macromodel};
use numkit::interp::Pwl;
use numkit::rng::SplitMix64;
use proptest::prelude::*;
use refdev::IbisModel;
use sysid::arx::{ArxModel, ArxOrders};
use sysid::narx::{NarxModel, NarxOrders};
use sysid::rbf::RbfNetwork;

/// The text container of an artifact.
fn text_of(artifact: &Artifact) -> String {
    String::from_utf8(save_artifact_bytes(artifact, ArtifactFormat::Text).unwrap()).unwrap()
}

/// The binary container of an artifact.
fn bin_of(artifact: &Artifact) -> Vec<u8> {
    save_artifact_bytes(artifact, ArtifactFormat::Binary).unwrap()
}

/// A uniform index in `[0, n)`, drawn through `next_f64`.
fn index(s: &mut SplitMix64, n: usize) -> usize {
    (s.next_f64() * n as f64) as usize % n
}

fn narx(s: &mut SplitMix64, r: usize, n_centers: usize) -> NarxModel {
    let orders = NarxOrders::dynamic(r);
    let dim = orders.dim();
    let mut centers = Vec::with_capacity(n_centers);
    for _ in 0..n_centers {
        centers.push((0..dim).map(|_| s.range(-3.0, 3.0)).collect());
    }
    let widths = (0..n_centers).map(|_| s.range(0.2, 2.0)).collect();
    let weights = (0..n_centers).map(|_| s.range(-0.1, 0.1)).collect();
    let linear = (0..dim).map(|_| s.range(-0.2, 0.2)).collect();
    let net = RbfNetwork::from_parts(dim, centers, widths, weights, s.range(-0.01, 0.01), linear)
        .unwrap();
    NarxModel::from_network(orders, net).unwrap()
}

fn weight_ramp(s: &mut SplitMix64, n: usize) -> WeightSequence {
    let mut w_high = Vec::with_capacity(n);
    let mut w_low = Vec::with_capacity(n);
    for k in 0..n {
        let frac = k as f64 / (n - 1).max(1) as f64;
        let jitter = s.range(-0.05, 0.05);
        w_high.push((frac + jitter).clamp(0.0, 1.0));
        w_low.push((1.0 - frac + jitter).clamp(0.0, 1.0));
    }
    WeightSequence::new(w_high, w_low).unwrap()
}

fn driver(s: &mut SplitMix64, name: &str) -> AnyModel {
    let (rh, ch) = (1 + index(s, 2), 2 + index(s, 4));
    let (rl, cl) = (1 + index(s, 2), 2 + index(s, 4));
    let (nu, nd) = (2 + index(s, 12), 2 + index(s, 12));
    AnyModel::PwRbfDriver(PwRbfDriverModel {
        name: name.into(),
        ts: s.range(1e-11, 1e-10),
        vdd: s.range(1.0, 5.0),
        i_high: narx(s, rh, ch),
        i_low: narx(s, rl, cl),
        up: weight_ramp(s, nu),
        down: weight_ramp(s, nd),
    })
}

fn receiver(s: &mut SplitMix64, name: &str) -> AnyModel {
    let na = 1 + index(s, 3);
    let a: Vec<f64> = (0..na).map(|_| s.range(-0.3, 0.3) / na as f64).collect();
    let orders = ArxOrders { na, nb: 1 };
    let linear = ArxModel::from_coefficients(orders, a, vec![s.range(-0.1, 0.1); 2]).unwrap();
    let (cu, cd) = (2 + index(s, 3), 2 + index(s, 3));
    AnyModel::Receiver(ReceiverModel {
        name: name.into(),
        ts: s.range(1e-11, 1e-10),
        vdd: s.range(1.0, 5.0),
        linear,
        up: narx(s, 1, cu),
        down: narx(s, 1, cd),
    })
}

/// Strictly increasing breakpoints with monotonic values — a plausible
/// static I–V table.
fn pwl(s: &mut SplitMix64, n: usize) -> Pwl {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut xv = s.range(-2.0, -1.0);
    let mut yv = s.range(-0.05, 0.0);
    for _ in 0..n {
        x.push(xv);
        y.push(yv);
        xv += s.range(0.1, 1.0);
        yv += s.range(0.0, 0.02);
    }
    Pwl::new(x, y).unwrap()
}

fn cr(s: &mut SplitMix64, name: &str) -> AnyModel {
    let n = 3 + index(s, 5);
    let c = s.range(1e-13, 1e-11);
    AnyModel::Cr(CrModel::new(name, c, pwl(s, n)).unwrap())
}

fn ibis(s: &mut SplitMix64, name: &str) -> AnyModel {
    let n = 2 + index(s, 8);
    let (np, nd) = (3 + index(s, 4), 3 + index(s, 4));
    let table = |s: &mut SplitMix64| (0..n).map(|_| s.range(0.0, 1.0)).collect::<Vec<f64>>();
    AnyModel::Ibis(IbisModel {
        name: name.into(),
        vdd: s.range(1.0, 5.0),
        pullup: pwl(s, np),
        pulldown: pwl(s, nd),
        c_comp: s.range(1e-13, 1e-12),
        dt: s.range(1e-11, 1e-10),
        ku_rise: table(s),
        kd_rise: table(s),
        ku_fall: table(s),
        kd_fall: table(s),
    })
}

fn any_model(s: &mut SplitMix64, name: &str) -> AnyModel {
    match index(s, 4) {
        0 => driver(s, name),
        1 => receiver(s, name),
        2 => cr(s, name),
        _ => ibis(s, name),
    }
}

/// text → binary → text and binary → binary, both byte-exact.
fn assert_byte_exact_roundtrip(artifact: &Artifact) {
    let text = text_of(artifact);
    let reparsed = load_artifact_bytes(text.as_bytes()).unwrap();
    let bin = bin_of(&reparsed);
    let back = load_artifact_bytes(&bin).unwrap();
    assert_eq!(text_of(&back), text, "text->bin->text drifted");
    assert_eq!(bin_of(&back), bin, "bin re-save drifted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random v1 single-model artifacts of every kind survive
    /// text → binary → text byte-identically.
    #[test]
    fn v1_text_binary_text_byte_identity(seed in any::<u64>()) {
        let mut s = SplitMix64::new(seed);
        let artifact = Artifact::single(any_model(&mut s, "m_v1"));
        assert_byte_exact_roundtrip(&artifact);
    }

    /// Random v2 bundles — 1..4 models of mixed kinds, with and without
    /// provenance — survive text → binary → text byte-identically.
    #[test]
    fn v2_text_binary_text_byte_identity(
        seed in any::<u64>(),
        n_models in 1usize..4,
        prov_sel in any::<u32>(),
    ) {
        let with_prov = prov_sel.is_multiple_of(2);
        let mut s = SplitMix64::new(seed);
        let models: Vec<AnyModel> = (0..n_models)
            .map(|i| any_model(&mut s, &format!("m_{i}")))
            .collect();
        let provenance = with_prov.then(|| Provenance {
            tool: "proptest".into(),
            tool_version: "0.0.0".into(),
            config_digest: format!("{:016x}", seed),
            params: vec![("seed".into(), format!("{seed}"))],
        });
        let artifact = Artifact::bundle(models, provenance);
        assert_byte_exact_roundtrip(&artifact);
    }

    /// Flipping any single byte of a section payload is caught by the
    /// digest check — never a silent wrong model, never a panic.
    #[test]
    fn payload_flip_is_digest_mismatch(
        seed in any::<u64>(),
        flip_pos in any::<usize>(),
        flip_bit in any::<u32>(),
    ) {
        let mut s = SplitMix64::new(seed);
        let artifact = Artifact::single(any_model(&mut s, "victim"));
        let bin = bin_of(&load_artifact_bytes(text_of(&artifact).as_bytes()).unwrap());
        // Pick a byte strictly inside a section payload, so framing stays
        // intact and the digest check is the only guard left. XOR with a
        // nonzero mask always changes the byte.
        let sections = index_bytes(&bin).unwrap().sections;
        let sec = &sections[flip_pos % sections.len()];
        let offset = sec.payload_offset + flip_pos % sec.payload_len.max(1);
        let mut corrupt = bin.clone();
        corrupt[offset] ^= 1u8 << (flip_bit % 8);
        match load_artifact_bytes(&corrupt) {
            Err(Error::Exchange(ExchangeError::DigestMismatch { .. })) => {}
            other => prop_assert!(false, "expected DigestMismatch, got {other:?}"),
        }
    }

    /// Any truncation of a valid container that leaves the magic intact —
    /// mid-header, mid-name, mid-payload — reports `Truncated` through the
    /// magic-dispatching loader, never a partial artifact.
    #[test]
    fn truncation_is_typed(seed in any::<u64>(), cut in any::<usize>()) {
        let mut s = SplitMix64::new(seed);
        let artifact = Artifact::single(any_model(&mut s, "victim"));
        let bin = bin_of(&load_artifact_bytes(text_of(&artifact).as_bytes()).unwrap());
        let len = MAGIC.len() + cut % (bin.len() - MAGIC.len() - 1);
        match load_artifact_bytes(&bin[..len]) {
            Err(Error::Exchange(ExchangeError::Truncated { .. })) => {}
            other => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }
}

/// A small deterministic binary container shared by the corruption
/// fixtures below.
fn fixture_bytes() -> Vec<u8> {
    let mut s = SplitMix64::new(7);
    let artifact = Artifact::bundle(
        vec![cr(&mut s, "fix_a"), ibis(&mut s, "fix_b")],
        Some(Provenance {
            tool: "fixture".into(),
            tool_version: "1".into(),
            config_digest: "0123456789abcdef".into(),
            params: vec![],
        }),
    );
    bin_of(&artifact)
}

#[test]
fn fixture_bad_magic_is_typed() {
    let mut bytes = fixture_bytes();
    bytes[0] = b'X';
    // The binary framing reader names the defect precisely.
    match index_bytes(&bytes) {
        Err(Error::Exchange(ExchangeError::BadMagic { found })) => {
            assert!(
                found.starts_with("58"),
                "hex dump starts with the flipped byte: {found}"
            );
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
    // The loader, seeing no magic, takes the text path, where the
    // (non-UTF-8) payload bytes are diagnosed as corrupt — also typed.
    match load_artifact_bytes(&bytes) {
        Err(Error::Exchange(ExchangeError::Corrupt { .. })) => {}
        other => panic!("expected Corrupt from the dispatcher, got {other:?}"),
    }
}

#[test]
fn fixture_flipped_digest_byte_is_typed() {
    let bytes = fixture_bytes();
    let sections = index_bytes(&bytes).unwrap().sections;
    // Corrupt the *stored digest* of the second model section rather than
    // its payload: the recomputed digest is then the honest one and the
    // stored one is the liar, but the mismatch must be reported all the
    // same (the body digest covers section headers too).
    let model_section = sections.iter().find(|s| s.name == "fix_b").unwrap();
    // The 24-byte section header precedes the name, then the payload; its
    // digest field occupies the last 8 header bytes (see docs/FORMAT.md).
    let digest_field = model_section.payload_offset - model_section.name.len() - 8;
    let mut corrupt = bytes.clone();
    corrupt[digest_field] ^= 0xff;
    match load_artifact_bytes(&corrupt) {
        Err(Error::Exchange(ExchangeError::DigestMismatch {
            section,
            expected,
            found,
        })) => {
            assert_ne!(expected, found);
            assert!(!section.is_empty());
        }
        other => panic!("expected DigestMismatch, got {other:?}"),
    }
}

#[test]
fn fixture_truncated_section_is_typed() {
    let bytes = fixture_bytes();
    let sections = index_bytes(&bytes).unwrap().sections;
    let last = sections.last().unwrap();
    // Cut inside the last payload: framing up to there is intact, so the
    // reader must notice the missing payload bytes, not mis-decode.
    let cut = last.payload_offset + last.payload_len / 2;
    match load_artifact_bytes(&bytes[..cut]) {
        Err(Error::Exchange(ExchangeError::Truncated { expected })) => {
            assert!(!expected.is_empty());
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

/// The golden artifacts: one `mdlx 1` file per kind and an `mdlx 2`
/// bundle of all four with provenance, each with its `.mdlxb` twin. They
/// hold the models of `SplitMix64::new(2002)` (driver, receiver, C–R̂, IBIS, in
/// that order) and are never regenerated: they pin the on-disk layout.
fn golden() -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    ["pwrbf-driver", "receiver", "cr-baseline", "ibis", "bundle"]
        .into_iter()
        .map(|stem| {
            let read = |ext: &str| std::fs::read(dir.join(format!("{stem}.{ext}"))).unwrap();
            (stem, read("mdlx"), read("mdlxb"))
        })
        .collect()
}

/// Both encodings of every golden artifact load and re-save to the
/// committed bytes, in both encodings. Round-trip tests cannot see a
/// layout change made to a writer and its reader together; these can.
#[test]
fn golden_fixtures_resave_byte_identically() {
    for (stem, text, bin) in golden() {
        for (encoding, bytes) in [("text", &text), ("binary", &bin)] {
            let artifact = load_artifact_bytes(bytes)
                .unwrap_or_else(|e| panic!("{stem} ({encoding}) failed to load: {e}"));
            assert_eq!(
                text_of(&artifact).as_bytes(),
                &text[..],
                "{stem} ({encoding}) re-saved as text"
            );
            assert_eq!(
                bin_of(&artifact),
                bin,
                "{stem} ({encoding}) re-saved as binary"
            );
        }
    }
}

/// Seeds of the mutation corpus, fixed so every run replays the same
/// cases.
const FUZZ_SEEDS: [u64; 4] = [1, 0x5eed, 0xdead_beef, 2002];

/// Declared counts at, just above, and far above the format bound.
const COUNT_PROBES: [u32; 3] = [1 << 20, (1 << 20) + 1, u32::MAX];

/// A mutated artifact must load into models that pass their own
/// validation, or fail with a typed [`ExchangeError`] — never panic.
fn assert_loads_or_fails_typed(bytes: &[u8], case: &str) {
    let outcome = std::panic::catch_unwind(|| load_artifact_bytes(bytes))
        .unwrap_or_else(|_| panic!("{case}: the loader panicked"));
    match outcome {
        Ok(artifact) => {
            for model in &artifact.models {
                model
                    .validate()
                    .unwrap_or_else(|e| panic!("{case}: loaded an invalid model: {e}"));
            }
        }
        Err(Error::Exchange(_)) => {}
        Err(other) => panic!("{case}: untyped failure {other:?}"),
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    u64::from_str_radix(&content_digest(bytes), 16).unwrap()
}

/// Re-computes every section digest (over the original framing) and the
/// body digest, so a mutation reaches the decoders instead of tripping a
/// digest check.
fn reseal(bin: &mut [u8], sections: &[BinSection]) {
    for s in sections {
        let name_at = s.payload_offset - s.name.len();
        let digest = fnv(&bin[name_at..s.payload_offset + s.payload_len]);
        bin[name_at - 8..name_at].copy_from_slice(&digest.to_le_bytes());
    }
    let body = fnv(&bin[FILE_HEADER_LEN..]);
    bin[20..28].copy_from_slice(&body.to_le_bytes());
}

#[test]
fn seeded_mutations_of_text_artifacts_fail_typed() {
    for (stem, text, _) in golden() {
        for cut in (0..text.len()).filter(|&i| i == 0 || text[i - 1] == b'\n') {
            assert_loads_or_fails_typed(&text[..cut], &format!("{stem}.mdlx cut at {cut}"));
        }
        for seed in FUZZ_SEEDS {
            let mut s = SplitMix64::new(seed);
            for _ in 0..64 {
                let at = index(&mut s, text.len());
                let mut m = text.clone();
                m[at] ^= 1 + index(&mut s, 255) as u8;
                assert_loads_or_fails_typed(&m, &format!("{stem}.mdlx flip at {at}"));
                let cut = index(&mut s, text.len());
                assert_loads_or_fails_typed(&text[..cut], &format!("{stem}.mdlx cut at {cut}"));
            }
        }
        // Every integer operand — vector lengths, orders, center and
        // model counts, the version — set to each probe.
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let toks: Vec<&str> = line.split(' ').collect();
            for j in 1..toks.len() {
                if toks[j].is_empty() || !toks[j].bytes().all(|b| b.is_ascii_digit()) {
                    continue;
                }
                for probe in COUNT_PROBES {
                    let mut t = toks.clone();
                    let probe = probe.to_string();
                    t[j] = &probe;
                    let mut m = lines.clone();
                    let edited = t.join(" ");
                    m[i] = &edited;
                    let case = format!("{stem}.mdlx line {} token {j} = {probe}", i + 1);
                    assert_loads_or_fails_typed((m.join("\n") + "\n").as_bytes(), &case);
                }
            }
        }
    }
}

#[test]
fn seeded_mutations_of_binary_artifacts_fail_typed() {
    for (stem, _, bin) in golden() {
        let sections = index_bytes(&bin).unwrap().sections;
        for cut in 0..bin.len() {
            assert_loads_or_fails_typed(&bin[..cut], &format!("{stem}.mdlxb cut at {cut}"));
        }
        for seed in FUZZ_SEEDS {
            let mut s = SplitMix64::new(seed);
            for _ in 0..64 {
                let at = FILE_HEADER_LEN + index(&mut s, bin.len() - FILE_HEADER_LEN);
                let mut m = bin.clone();
                m[at] ^= 1 + index(&mut s, 255) as u8;
                reseal(&mut m, &sections);
                assert_loads_or_fails_typed(&m, &format!("{stem}.mdlxb flip at {at}"));
            }
        }
        // Every 4-byte window of every payload set to each probe: this
        // lands on each u32 count field of the schema.
        for sec in &sections {
            for at in sec.payload_offset..sec.payload_offset + sec.payload_len - 3 {
                for probe in COUNT_PROBES {
                    let mut m = bin.clone();
                    m[at..at + 4].copy_from_slice(&probe.to_le_bytes());
                    reseal(&mut m, &sections);
                    let case = format!("{stem}.mdlxb u32 at {at} = {probe}");
                    assert_loads_or_fails_typed(&m, &case);
                }
            }
        }
    }
}

/// A resealed payload mutation gets past both digests, so the payload
/// decoder — not the digest check — must be what rejects it.
#[test]
fn resealed_count_overflow_reaches_the_payload_decoder() {
    let (_, _, bin) = golden().remove(2);
    let sections = index_bytes(&bin).unwrap().sections;
    // The C–R̂ payload is `f64 c` then the `iv_x` count.
    let at = sections[0].payload_offset + 8;
    let mut m = bin.clone();
    m[at..at + 4].copy_from_slice(&((1u32 << 20) + 1).to_le_bytes());
    reseal(&mut m, &sections);
    match load_artifact_bytes(&m) {
        Err(Error::Exchange(ExchangeError::Corrupt { offset, message })) => {
            assert_eq!(offset, at);
            assert!(message.contains("iv_x"), "{message}");
        }
        other => panic!("expected Corrupt at {at}, got {other:?}"),
    }
}
