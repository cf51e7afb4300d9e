//! The on-disk trace format under adversarial inputs: arbitrary valid
//! streams must round-trip exactly, and *no* single-bit corruption of a
//! checked region may yield a silently-wrong trace — every mutation the
//! paper's SEU model would call a "fault" in the file must surface as a
//! precise [`DiskError`].

use icr_trace::disk::{self, DiskError, TraceReader, TraceWriter};
use icr_trace::{apps, inst, Inst, OpClass, Reg, TraceGenerator};
use proptest::prelude::*;
use std::io::Cursor;

fn encode(app: &str, seed: u64, insts: &[Inst]) -> Vec<u8> {
    let mut writer = TraceWriter::new(Cursor::new(Vec::new()), app, seed).unwrap();
    for i in insts {
        writer.write(i).unwrap();
    }
    writer.finish().unwrap().into_inner()
}

/// Decodes through BOTH implementations — the streaming [`TraceReader`]
/// and the in-memory fast path [`disk::decode_trace`] — and insists they
/// agree on every input, valid or corrupted, before returning the
/// streaming result. Every call in this file is therefore a
/// differential test of the two decoders.
fn decode(bytes: &[u8]) -> Result<Vec<Inst>, DiskError> {
    let streamed: Result<Vec<Inst>, DiskError> =
        TraceReader::new(Cursor::new(bytes)).and_then(|r| r.collect());
    let sliced = disk::decode_trace(bytes).map(|stored| stored.insts);
    match (&streamed, &sliced) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "decoders disagree on a valid stream"),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "decoders disagree on the failure"
        ),
        _ => panic!("one decoder accepted what the other rejected: {streamed:?} vs {sliced:?}"),
    }
    streamed
}

/// An arbitrary instruction that satisfies [`inst::validate`].
fn arb_inst() -> impl Strategy<Value = Inst> {
    let reg = || (any::<bool>(), 0u8..64).prop_map(|(some, r)| some.then_some(Reg(r)));
    (
        any::<u64>(),
        0usize..7,
        reg(),
        reg(),
        reg(),
        any::<u64>(),
        any::<bool>(),
        1u64..=u64::MAX,
    )
        .prop_map(|(pc, op_idx, dest, src0, src1, addr, taken, target)| {
            let op = [
                OpClass::IntAlu,
                OpClass::IntMul,
                OpClass::FpAlu,
                OpClass::FpMul,
                OpClass::Load,
                OpClass::Store,
                OpClass::Branch,
            ][op_idx];
            let srcs = [src0, src1];
            let mut inst = match op {
                OpClass::Load => Inst::load(pc, addr, dest, srcs),
                OpClass::Store => Inst::store(pc, addr, srcs),
                OpClass::Branch => Inst::branch(pc, target, taken, dest, srcs),
                op => Inst::alu(pc, op, dest, srcs),
            };
            // The contract lets a store name a destination too.
            inst.dest = dest;
            inst
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any contract-satisfying stream round-trips field-for-field, even
    /// with adversarial PCs/addresses exercising the wrapping deltas.
    #[test]
    fn arbitrary_valid_streams_roundtrip(
        insts in proptest::collection::vec(arb_inst(), 0..200),
        seed: u64,
    ) {
        let bytes = encode("prop", seed, &insts);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(back, insts);
    }

    /// Satellite invariant check, generator side: every instruction the
    /// synthetic generator emits passes the shared `inst::validate` (the
    /// icr-isa kernels run the same check in their own crate's tests).
    #[test]
    fn synthetic_generator_satisfies_stream_contract(
        app_idx in 0usize..apps::APP_NAMES.len(),
        seed: u64,
    ) {
        let app = apps::APP_NAMES[app_idx];
        for i in TraceGenerator::new(apps::profile(app), seed).take(2_000) {
            inst::validate(&i).unwrap_or_else(|e| panic!("{app}: {e}"));
        }
    }

    /// The digest helper agrees with what the writer stores, for any
    /// valid stream.
    #[test]
    fn digest_helper_matches_writer(
        insts in proptest::collection::vec(arb_inst(), 0..64),
    ) {
        let bytes = encode("x", 0, &insts);
        let pos = 4 + 2 + 2 + 1 + 8 + 8; // magic, version, app_len, "x", seed, count
        let stored = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        prop_assert_eq!(stored, disk::trace_digest(&insts));
    }
}

/// A fixed five-instruction trace whose encoded form the mutation tests
/// pick apart.
fn fixed_trace() -> Vec<Inst> {
    vec![
        Inst::alu(
            0x40_0000,
            OpClass::IntAlu,
            Some(Reg(5)),
            [Some(Reg(1)), Some(Reg(2))],
        ),
        Inst::load(0x40_0004, 0x1000_0000, Some(Reg(6)), [Some(Reg(5)), None]),
        Inst::store(0x40_0008, 0x1000_0040, [Some(Reg(6)), Some(Reg(5))]),
        Inst::branch(0x40_000c, 0x40_0000, true, None, [Some(Reg(6)), None]),
        Inst::alu(
            0x40_0010,
            OpClass::FpMul,
            Some(Reg(40)),
            [Some(Reg(33)), None],
        ),
    ]
}

const APP: &str = "isa:bubble";

/// Header layout offsets for `fixed_trace()` encoded under [`APP`].
mod layout {
    pub const MAGIC: usize = 0;
    pub const VERSION: usize = 4;
    pub const APP_LEN: usize = 6;
    pub const SEED: usize = APP_LEN + 2 + super::APP.len();
    pub const COUNT: usize = SEED + 8;
    pub const DIGEST: usize = COUNT + 8;
    pub const PAYLOAD: usize = DIGEST + 8;
}

#[test]
fn corrupt_magic_is_bad_magic() {
    let mut bytes = encode(APP, 42, &fixed_trace());
    bytes[layout::MAGIC] ^= 0x01;
    match decode(&bytes) {
        Err(DiskError::BadMagic(_)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn corrupt_version_is_unsupported_version() {
    let mut bytes = encode(APP, 42, &fixed_trace());
    bytes[layout::VERSION] = 0x7f;
    match decode(&bytes) {
        Err(DiskError::UnsupportedVersion(0x7f)) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn inflated_count_is_truncated() {
    let mut bytes = encode(APP, 42, &fixed_trace());
    bytes[layout::COUNT] += 1; // promise one more record than exists
    match decode(&bytes) {
        Err(DiskError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn deflated_count_is_digest_mismatch() {
    let mut bytes = encode(APP, 42, &fixed_trace());
    bytes[layout::COUNT] -= 1; // drop the last record from the promise
    match decode(&bytes) {
        Err(DiskError::DigestMismatch { .. }) => {}
        other => panic!("expected DigestMismatch, got {other:?}"),
    }
}

#[test]
fn truncation_mid_record_is_truncated() {
    let bytes = encode(APP, 42, &fixed_trace());
    // Cut inside the final record.
    match decode(&bytes[..bytes.len() - 1]) {
        Err(DiskError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn every_proper_prefix_is_rejected() {
    let bytes = encode(APP, 42, &fixed_trace());
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not parse",
            bytes.len()
        );
    }
}

#[test]
fn structurally_clean_payload_flip_is_digest_mismatch() {
    let mut bytes = encode(APP, 42, &fixed_trace());
    // First record: flags, 4-byte Δpc varint (zigzag(0x40_0000) =
    // 0x80_0000), then dest=Reg(5). Flipping its low bit yields Reg(4) —
    // structurally valid, so only the digest can catch it.
    let dest_pos = layout::PAYLOAD + 1 + 4;
    assert_eq!(bytes[dest_pos], 5, "layout drifted; fix dest_pos");
    bytes[dest_pos] ^= 0x01;
    match decode(&bytes) {
        Err(DiskError::DigestMismatch { .. }) => {}
        other => panic!("expected DigestMismatch, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = encode(APP, 42, &fixed_trace());
    bytes.push(0x00);
    match decode(&bytes) {
        Err(DiskError::TrailingBytes) => {}
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

/// Exhaustive single-bit corruption over every *checked* region — magic,
/// version, count, digest, payload. (The app and seed fields are
/// identity, not content: callers cross-check them against the command
/// line, so a flip there changes *which* trace this claims to be, not
/// the decoded stream.) No flip may decode successfully.
#[test]
fn every_checked_bit_flip_is_rejected() {
    let bytes = encode(APP, 42, &fixed_trace());
    let checked = (layout::MAGIC..layout::APP_LEN).chain(layout::COUNT..bytes.len());
    for pos in checked {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            assert!(
                decode(&mutated).is_err(),
                "flip of bit {bit} at byte {pos} decoded successfully"
            );
        }
    }
}

#[test]
fn file_roundtrip_through_write_and_read_trace() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("disk_format_roundtrip.icrt");
    let insts = fixed_trace();
    disk::write_trace(&path, APP, 42, &insts).unwrap();
    let stored = disk::read_trace(&path).unwrap();
    assert_eq!(stored.app, APP);
    assert_eq!(stored.seed, 42);
    assert_eq!(stored.insts, insts);
}
