//! Property tests for the columnar selection path: the vectorized kernel
//! and the pushed-down predicate program must return byte-identical
//! surviving slice ids to the scalar `SelectionCuts::passes` loop across
//! randomized events — NaN scores and empty events included — and the
//! column codec must round-trip bit-exactly.

use nova::columnar::{compile_cuts, decode_slices, encode_event};
use nova::selection::{select_slices_into, SelectScratch};
use nova::{EventRecord, SelectionCuts, SliceQuantities};
use proptest::prelude::*;
use yokan::filter::eval_program;
use yokan::pages::{encode_columns, Column, PageReader};

/// A score-like f32: mostly in-range values, with NaN, infinities, exact
/// cut boundaries, and negative zero mixed in.
fn score() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => (-2.0f64..2.0).prop_map(|v| v as f32),
        1 => Just(f32::NAN),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => Just(0.84f32),
        1 => Just(0.45f32),
        1 => Just(-0.0f32),
    ]
}

/// A coordinate-like f32 spanning the detector and beyond.
fn coord() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => (-8000.0f64..8000.0).prop_map(|v| v as f32),
        1 => Just(f32::NAN),
        1 => Just(680.0f32),
        1 => Just(-680.0f32),
        1 => Just(100.0f32),
        1 => Just(5900.0f32),
    ]
}

fn slice_strategy() -> impl Strategy<Value = SliceQuantities> {
    (
        (
            any::<u16>(),
            0u32..700,
            score(),
            score(),
            coord(),
            coord(),
            score(),
            score(),
        ),
        (
            score(),
            score(),
            coord(),
            coord(),
            coord(),
            (-1.0f64..1e6).prop_map(|v| v),
            score(),
            prop_oneof![
                6 => (-1.0f64..8.0).prop_map(|v| v as f32),
                1 => Just(f32::NAN),
                1 => Just(1.0f32),
                1 => Just(4.5f32),
            ],
        ),
    )
        .prop_map(
            |(
                (
                    slice_id,
                    nhit,
                    cal_e,
                    shower_energy,
                    shower_length,
                    track_length,
                    cvn_nue,
                    cvn_numu,
                ),
                (cvn_nc, cosmic_score, vertex_x, vertex_y, vertex_z, time_ns, remid, nu_energy),
            )| SliceQuantities {
                slice_id: slice_id as u64,
                nhit,
                cal_e,
                shower_energy,
                shower_length,
                track_length,
                cvn_nue,
                cvn_numu,
                cvn_nc,
                cosmic_score,
                vertex_x,
                vertex_y,
                vertex_z,
                time_ns,
                remid,
                nu_energy,
            },
        )
}

fn event_strategy() -> impl Strategy<Value = EventRecord> {
    (
        0u64..100,
        0u64..100,
        0u64..10_000,
        proptest::collection::vec(slice_strategy(), 0..40),
    )
        .prop_map(|(run, subrun, event, slices)| EventRecord {
            run,
            subrun,
            event,
            slices,
        })
}

fn cuts_strategy() -> impl Strategy<Value = SelectionCuts> {
    (
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..300.0,
        (10u32..100, 100u32..700),
        (0.0f64..2.0, 2.0f64..6.0),
        0.0f64..1.0,
    )
        .prop_map(|(cvn, cosmic, margin, nhit, energy, remid)| SelectionCuts {
            min_cvn_nue: cvn as f32,
            max_cosmic_score: cosmic as f32,
            fiducial_margin: margin as f32,
            detector_half_xy: 780.0,
            detector_z: 6000.0,
            nhit_range: nhit,
            energy_range: (energy.0 as f32, energy.1 as f32),
            max_remid: remid as f32,
        })
}

/// The scalar oracle: the original per-slice loop.
fn scalar_select(ev: &EventRecord, cuts: &SelectionCuts) -> Vec<u64> {
    ev.slices
        .iter()
        .filter(|s| cuts.passes(s))
        .map(|s| ev.global_slice_id(s))
        .collect()
}

proptest! {
    #[test]
    fn vectorized_kernel_matches_scalar(ev in event_strategy(), cuts in cuts_strategy()) {
        let mut scratch = SelectScratch::new();
        let mut out = Vec::new();
        select_slices_into(&ev, &cuts, &mut scratch, &mut out);
        prop_assert_eq!(out, scalar_select(&ev, &cuts));
    }

    #[test]
    fn scratch_reuse_is_stateless(
        evs in proptest::collection::vec(event_strategy(), 1..6),
        cuts in cuts_strategy(),
    ) {
        // One scratch across many events must give the same answers as a
        // fresh scratch per event.
        let mut scratch = SelectScratch::new();
        for ev in &evs {
            let mut reused = Vec::new();
            select_slices_into(ev, &cuts, &mut scratch, &mut reused);
            prop_assert_eq!(reused, scalar_select(ev, &cuts));
        }
    }

    #[test]
    fn pushdown_program_matches_scalar(
        ev in event_strategy(),
        cuts in cuts_strategy(),
        page_rows in 1u32..64,
    ) {
        let blob = encode_event(&ev, page_rows);
        let out = eval_program(&blob, &compile_cuts(&cuts)).unwrap();
        prop_assert_eq!(out.ids, scalar_select(&ev, &cuts));
        prop_assert_eq!(out.rows_in as usize, ev.slices.len());
    }

    #[test]
    fn columnar_round_trip_is_bit_exact(ev in event_strategy(), page_rows in 1u32..64) {
        let blob = encode_event(&ev, page_rows);
        let back = decode_slices(&blob).unwrap();
        prop_assert_eq!(back.len(), ev.slices.len());
        for (a, b) in back.iter().zip(&ev.slices) {
            // PartialEq would treat NaN != NaN; compare bit patterns.
            prop_assert_eq!(a.slice_id, b.slice_id);
            prop_assert_eq!(a.nhit, b.nhit);
            prop_assert_eq!(a.cal_e.to_bits(), b.cal_e.to_bits());
            prop_assert_eq!(a.shower_energy.to_bits(), b.shower_energy.to_bits());
            prop_assert_eq!(a.shower_length.to_bits(), b.shower_length.to_bits());
            prop_assert_eq!(a.track_length.to_bits(), b.track_length.to_bits());
            prop_assert_eq!(a.cvn_nue.to_bits(), b.cvn_nue.to_bits());
            prop_assert_eq!(a.cvn_numu.to_bits(), b.cvn_numu.to_bits());
            prop_assert_eq!(a.cvn_nc.to_bits(), b.cvn_nc.to_bits());
            prop_assert_eq!(a.cosmic_score.to_bits(), b.cosmic_score.to_bits());
            prop_assert_eq!(a.vertex_x.to_bits(), b.vertex_x.to_bits());
            prop_assert_eq!(a.vertex_y.to_bits(), b.vertex_y.to_bits());
            prop_assert_eq!(a.vertex_z.to_bits(), b.vertex_z.to_bits());
            prop_assert_eq!(a.time_ns.to_bits(), b.time_ns.to_bits());
            prop_assert_eq!(a.remid.to_bits(), b.remid.to_bits());
            prop_assert_eq!(a.nu_energy.to_bits(), b.nu_energy.to_bits());
        }
    }

    #[test]
    fn page_codec_round_trips_raw_columns(
        u64s in proptest::collection::vec(any::<u64>(), 0..200),
        u32s in proptest::collection::vec(any::<u32>(), 0..200),
        f32s in proptest::collection::vec(any::<f32>(), 0..200),
        f64s in proptest::collection::vec(any::<f64>(), 0..200),
        page_rows in 1u32..48,
    ) {
        // Columns of one blob must share a length; truncate to the min.
        let n = u64s.len().min(u32s.len()).min(f32s.len()).min(f64s.len());
        let cols = [
            Column::U64(u64s[..n].to_vec()),
            Column::U32(u32s[..n].to_vec()),
            Column::F32(f32s[..n].to_vec()),
            Column::F64(f64s[..n].to_vec()),
        ];
        let blob = encode_columns(&cols, page_rows);
        let r = PageReader::open(&blob).unwrap();
        prop_assert_eq!(r.n_rows() as usize, n);
        for (i, (col, got)) in cols.iter().zip(r.decode_columns().unwrap()).enumerate() {
            match (col, &got) {
                (Column::U64(a), Column::U64(b)) => prop_assert_eq!(a, b),
                (Column::U32(a), Column::U32(b)) => prop_assert_eq!(a, b),
                (Column::F32(a), Column::F32(b)) => {
                    let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(ab, bb);
                }
                (Column::F64(a), Column::F64(b)) => {
                    let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(ab, bb);
                }
                _ => prop_assert!(false, "column {} changed type", i),
            }
        }
    }

    #[test]
    fn corrupt_blobs_never_panic(
        mut blob in proptest::collection::vec(any::<u8>(), 0..256),
        flip in any::<usize>(),
    ) {
        // Arbitrary bytes, and real blobs with one flipped byte, must be
        // rejected (or decoded) without panicking.
        let _ = decode_slices(&blob);
        if !blob.is_empty() {
            let real = encode_event(
                &EventRecord { run: 1, subrun: 2, event: 3, slices: Vec::new() },
                8,
            );
            blob = real;
            let i = flip % blob.len().max(1);
            if i < blob.len() {
                blob[i] ^= 0x55;
            }
            let _ = decode_slices(&blob);
        }
    }
}
