//! Protocol robustness (ISSUE 9 satellite): property-based round trips
//! of every frame type, plus typed rejection of truncated frames, bad
//! magic, CRC corruption, oversized length prefixes, and protocol
//! version skew. Nothing here may panic: every malformed input decodes
//! to a [`WireError`].

use proptest::prelude::*;
use shift_peel_core::CodegenMethod;
use sp_exec::{Backend, ExecPlan, Schedule};
use sp_net::{
    decode_frame, encode_frame, ErrorFrame, Frame, ProgramRef, ResultFrame, SubmitJob, WireError,
    HEADER_LEN, MAX_PAYLOAD, VERSION,
};
use sp_serve::CacheOutcome;

/// Printable-ASCII strings up to `max` bytes (the vendored proptest has
/// no regex strategies).
fn string_strat(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..=126, 0..=max)
        .prop_map(|v| v.into_iter().map(|b| b as char).collect())
}

fn submit_strategy() -> impl Strategy<Value = SubmitJob> {
    (
        (
            string_strat(24),
            string_strat(40),
            (0u8..=1, string_strat(200), any::<u64>()),
        ),
        (
            0u8..=2,
            prop::collection::vec(1usize..=16, 1..=3),
            any::<bool>(),
            1i64..=64,
        ),
        (
            (0u8..=2, 0u8..=1),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ),
    )
        .prop_map(
            |(
                (tenant, name, (ptag, text, digest)),
                (pkind, grid, direct, strip),
                ((bsel, ssel), (request_id, steps, seed, deadline_nanos)),
            )| {
                let program = if ptag == 0 {
                    ProgramRef::Text(text)
                } else {
                    ProgramRef::Digest(digest)
                };
                let plan = match pkind {
                    0 => ExecPlan::Serial,
                    1 => ExecPlan::Blocked { grid },
                    _ => ExecPlan::Fused {
                        grid,
                        method: if direct {
                            CodegenMethod::Direct
                        } else {
                            CodegenMethod::StripMined
                        },
                        strip,
                    },
                };
                let backend = match bsel {
                    0 => Backend::Interp,
                    1 => Backend::Compiled,
                    _ => Backend::Simd,
                };
                let schedule = match ssel {
                    0 => Schedule::Static,
                    _ => Schedule::Stealing,
                };
                SubmitJob {
                    request_id,
                    tenant,
                    name,
                    program,
                    plan,
                    backend,
                    schedule,
                    steps,
                    seed,
                    deadline_nanos,
                }
            },
        )
}

fn result_strategy() -> impl Strategy<Value = ResultFrame> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            string_strat(40),
            string_strat(24),
        ),
        (any::<bool>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), string_strat(200)),
    )
        .prop_map(
            |(
                (request_id, job, name, tenant),
                (csel, digest),
                (queued, run, order, report_json),
            )| {
                ResultFrame {
                    request_id,
                    job,
                    name,
                    tenant,
                    cache: if csel {
                        CacheOutcome::Memory
                    } else {
                        CacheOutcome::Miss
                    },
                    digest,
                    queued_nanos: queued,
                    run_nanos: run,
                    order,
                    report_json,
                }
            },
        )
}

fn error_strategy() -> impl Strategy<Value = ErrorFrame> {
    (
        any::<u64>(),
        any::<u16>(),
        any::<u64>(),
        string_strat(24),
        string_strat(120),
    )
        .prop_map(|(request_id, code, job, tenant, message)| ErrorFrame {
            request_id,
            code,
            job,
            tenant,
            message,
        })
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        0u8..=4,
        submit_strategy(),
        result_strategy(),
        error_strategy(),
    )
        .prop_map(|(sel, submit, result, error)| match sel {
            0 => Frame::Submit(submit),
            1 => Frame::Result(result),
            2 => Frame::Error(error),
            3 => Frame::Drain,
            _ => Frame::Ping,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every frame type survives encode → decode exactly.
    #[test]
    fn every_frame_round_trips(frame in frame_strategy()) {
        let bytes = encode_frame(&frame);
        let back = decode_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, frame);
    }

    /// Any strict prefix of a valid frame is a typed truncation error,
    /// never a panic or a bogus success.
    #[test]
    fn every_truncation_is_rejected(frame in frame_strategy(), raw_cut in any::<u64>()) {
        let bytes = encode_frame(&frame);
        let cut = (raw_cut % bytes.len() as u64) as usize;
        let err = decode_frame(&bytes[..cut]).expect_err("prefix cannot decode");
        prop_assert!(
            matches!(err, WireError::Truncated { .. }),
            "cut at {}: {:?}", cut, err
        );
    }

    /// Flipping any single bit of a valid frame never panics and never
    /// silently yields a *different* frame: the CRC (or an earlier
    /// header check) catches every corruption of the covered bytes.
    #[test]
    fn single_bit_corruption_is_detected(frame in frame_strategy(), raw_pos in any::<u64>(), bit in 0u8..8) {
        let mut bytes = encode_frame(&frame);
        let pos = (raw_pos % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        // A typed rejection is the expected outcome.
        if let Ok(decoded) = decode_frame(&bytes) {
            prop_assert_eq!(decoded, frame, "corruption must not pass silently");
        }
    }
}

/// The by-digest registry's address of a program is the FNV of its
/// rendered text: pinned to the value the nested-`format!` renderer
/// gave, so a client and a server built either side of the renderer
/// change still name the same program.
#[test]
fn program_digest_is_pinned() {
    let seq = sp_kernels::jacobi::sequence(32);
    assert_eq!(sp_net::program_digest(&seq), 0x39ee_d3f7_65ea_0c90);
}

/// A job spec holds that digest from the moment it is made; the client
/// sends it without rendering anything.
#[test]
fn a_spec_holds_the_digest_its_program_goes_by() {
    let seq = sp_kernels::jacobi::sequence(32);
    let spec = sp_serve::JobSpec::new("j", seq.clone(), ExecPlan::Serial);
    assert_eq!(spec.seq.digest(), sp_net::program_digest(&seq));
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = encode_frame(&Frame::Ping);
    bytes[0] = b'X';
    assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic(_))));
}

#[test]
fn version_skew_is_rejected_before_anything_else() {
    let mut bytes = encode_frame(&Frame::Ping);
    let skew = (VERSION + 1).to_le_bytes();
    bytes[4] = skew[0];
    bytes[5] = skew[1];
    let Err(WireError::Version { got, want }) = decode_frame(&bytes) else {
        panic!("version skew must be typed");
    };
    assert_eq!((got, want), (VERSION + 1, VERSION));
}

/// A version-2 peer computes `JobResult.digest` with another function;
/// its frames are refused, not believed.
#[test]
fn a_v2_header_is_refused() {
    let mut bytes = encode_frame(&Frame::Ping);
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_eq!(
        decode_frame(&bytes),
        Err(WireError::Version { got: 2, want: 3 })
    );
}

#[test]
fn crc_mismatch_is_rejected() {
    let bytes = encode_frame(&Frame::Error(ErrorFrame {
        request_id: 7,
        code: 1,
        job: 9,
        tenant: "t".into(),
        message: "m".into(),
    }));
    // Corrupt one payload byte; header checks still pass, CRC must not.
    let mut corrupt = bytes.clone();
    corrupt[HEADER_LEN] ^= 0xFF;
    assert!(matches!(
        decode_frame(&corrupt),
        Err(WireError::BadCrc { .. })
    ));
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let mut bytes = encode_frame(&Frame::Ping);
    let huge = (MAX_PAYLOAD + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&huge);
    assert!(matches!(
        decode_frame(&bytes),
        Err(WireError::Oversized { len }) if len == MAX_PAYLOAD + 1
    ));
}

#[test]
fn unknown_frame_type_is_rejected() {
    let mut bytes = encode_frame(&Frame::Ping);
    bytes[6] = 200;
    assert!(matches!(
        decode_frame(&bytes),
        Err(WireError::BadFrameType(200))
    ));
}

#[test]
fn trailing_payload_bytes_are_rejected() {
    // A Ping with one extra payload byte, CRC recomputed to match: the
    // payload decoder itself must reject the excess.
    let mut bytes = encode_frame(&Frame::Ping);
    let crc_start = bytes.len() - 4;
    bytes.truncate(crc_start);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    bytes.push(0xAB);
    let crc = sp_net::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
}
