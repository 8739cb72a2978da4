//! Columnar encoding of slice products and compilation of the selection
//! into a push-down predicate program.
//!
//! An event's `Vec<SliceQuantities>` is transposed into per-field column
//! pages ([`yokan::pages`]) before storage: sorted ids delta+varint
//! compress, float columns byte-shuffle, and each page carries a min/max
//! zone map. Column 0 holds the precomputed **global** slice id, so the
//! storage tier can answer a pushed-down selection with exactly the values
//! the analysis accumulates — no client-side id reconstruction.
//!
//! [`compile_cuts`] turns a [`SelectionCuts`] into a [`yokan::Program`]
//! whose predicates are the *negations of the exact reject comparisons* in
//! [`SelectionCuts::passes`], NaN behaviour included, which is what makes
//! pushed-down results byte-identical to the scalar loop.

use crate::data::{EventRecord, SliceQuantities};
use crate::selection::SelectionCuts;
use hepnos::HepnosError;
use yokan::pages::{encode_columns, Column, PageReader};
use yokan::{Predicate, Program};

/// Column index of the global slice id (what the filter RPC returns).
pub const COL_GID: u16 = 0;
/// Column index of the within-event slice id.
pub const COL_SLICE_ID: u16 = 1;
/// Column index of the hit count.
pub const COL_NHIT: u16 = 2;
/// Column index of the calorimetric energy.
pub const COL_CAL_E: u16 = 3;
/// Column index of the shower energy.
pub const COL_SHOWER_ENERGY: u16 = 4;
/// Column index of the shower length.
pub const COL_SHOWER_LENGTH: u16 = 5;
/// Column index of the track length.
pub const COL_TRACK_LENGTH: u16 = 6;
/// Column index of the CVN ν_e score.
pub const COL_CVN_NUE: u16 = 7;
/// Column index of the CVN ν_μ score.
pub const COL_CVN_NUMU: u16 = 8;
/// Column index of the CVN neutral-current score.
pub const COL_CVN_NC: u16 = 9;
/// Column index of the cosmic-rejection score.
pub const COL_COSMIC_SCORE: u16 = 10;
/// Column index of vertex x.
pub const COL_VERTEX_X: u16 = 11;
/// Column index of vertex y.
pub const COL_VERTEX_Y: u16 = 12;
/// Column index of vertex z.
pub const COL_VERTEX_Z: u16 = 13;
/// Column index of the slice time.
pub const COL_TIME_NS: u16 = 14;
/// Column index of the muon-id score.
pub const COL_REMID: u16 = 15;
/// Column index of the reconstructed neutrino energy.
pub const COL_NU_ENERGY: u16 = 16;
/// Total number of columns in the slice schema.
pub const N_COLUMNS: usize = 17;

/// Default rows per page for stored slice products.
pub const DEFAULT_PAGE_ROWS: u32 = yokan::pages::DEFAULT_PAGE_ROWS;

/// The product type name columnar slice blobs are stored under. Distinct
/// from the blob path's `Vec<SliceQuantities>` type name, so both
/// representations can coexist under the `rec.slc` label.
pub fn columnar_type_name() -> String {
    "nova::ColumnarSlices".to_string()
}

/// Transpose one event's slices into an encoded columnar page blob.
pub fn encode_event(ev: &EventRecord, page_rows: u32) -> Vec<u8> {
    let n = ev.slices.len();
    let mut gid = Vec::with_capacity(n);
    let mut slice_id = Vec::with_capacity(n);
    let mut nhit = Vec::with_capacity(n);
    let mut f32_cols: [Vec<f32>; 13] = Default::default();
    let mut time_ns = Vec::with_capacity(n);
    for s in &ev.slices {
        gid.push(ev.global_slice_id(s));
        slice_id.push(s.slice_id);
        nhit.push(s.nhit);
        for (col, v) in f32_cols.iter_mut().zip([
            s.cal_e,
            s.shower_energy,
            s.shower_length,
            s.track_length,
            s.cvn_nue,
            s.cvn_numu,
            s.cvn_nc,
            s.cosmic_score,
            s.vertex_x,
            s.vertex_y,
            s.vertex_z,
            s.remid,
            s.nu_energy,
        ]) {
            col.push(v);
        }
        time_ns.push(s.time_ns);
    }
    let [cal_e, shower_energy, shower_length, track_length, cvn_nue, cvn_numu, cvn_nc, cosmic_score, vertex_x, vertex_y, vertex_z, remid, nu_energy] =
        f32_cols;
    encode_columns(
        &[
            Column::U64(gid),
            Column::U64(slice_id),
            Column::U32(nhit),
            Column::F32(cal_e),
            Column::F32(shower_energy),
            Column::F32(shower_length),
            Column::F32(track_length),
            Column::F32(cvn_nue),
            Column::F32(cvn_numu),
            Column::F32(cvn_nc),
            Column::F32(cosmic_score),
            Column::F32(vertex_x),
            Column::F32(vertex_y),
            Column::F32(vertex_z),
            Column::F64(time_ns),
            Column::F32(remid),
            Column::F32(nu_energy),
        ],
        page_rows,
    )
}

fn decode_err(e: yokan::YokanError) -> HepnosError {
    HepnosError::Serialization(format!("columnar slice blob: {e}"))
}

/// Decode a columnar blob back into slices (bit-exact round trip; the
/// global-id column is redundant for reconstruction and is ignored). One
/// walk over the pages decodes every column.
pub fn decode_slices(blob: &[u8]) -> Result<Vec<SliceQuantities>, HepnosError> {
    use Column::{F32, F64, U32, U64};
    let r = PageReader::open(blob).map_err(decode_err)?;
    if r.n_columns() != N_COLUMNS {
        return Err(HepnosError::Serialization(format!(
            "columnar slice blob has {} columns, expected {N_COLUMNS}",
            r.n_columns()
        )));
    }
    let columns = r.decode_columns().map_err(decode_err)?;
    // Field order of the slice schema, `COL_GID` through `COL_NU_ENERGY`.
    let Ok(
        [U64(_), U64(slice_id), U32(nhit), F32(cal_e), F32(shower_energy), F32(shower_length), F32(track_length), F32(cvn_nue), F32(cvn_numu), F32(cvn_nc), F32(cosmic_score), F32(vertex_x), F32(vertex_y), F32(vertex_z), F64(time_ns), F32(remid), F32(nu_energy)],
    ) = <[Column; N_COLUMNS]>::try_from(columns)
    else {
        return Err(HepnosError::Serialization(
            "columnar slice blob has the wrong column types".into(),
        ));
    };
    Ok((0..r.n_rows() as usize)
        .map(|i| SliceQuantities {
            slice_id: slice_id[i],
            nhit: nhit[i],
            cal_e: cal_e[i],
            shower_energy: shower_energy[i],
            shower_length: shower_length[i],
            track_length: track_length[i],
            cvn_nue: cvn_nue[i],
            cvn_numu: cvn_numu[i],
            cvn_nc: cvn_nc[i],
            cosmic_score: cosmic_score[i],
            vertex_x: vertex_x[i],
            vertex_y: vertex_y[i],
            vertex_z: vertex_z[i],
            time_ns: time_ns[i],
            remid: remid[i],
            nu_energy: nu_energy[i],
        })
        .collect())
}

/// Compile the selection into a push-down predicate program returning
/// global slice ids.
///
/// Each predicate is the negation of one reject comparison in
/// [`SelectionCuts::passes`], with derived bounds (`half_xy - margin`,
/// `detector_z - margin`) computed in `f32` exactly as the scalar code
/// does before widening — so pushed-down evaluation is byte-identical to
/// the scalar loop, NaN scores included.
pub fn compile_cuts(cuts: &SelectionCuts) -> Program {
    let half = (cuts.detector_half_xy - cuts.fiducial_margin) as f64;
    let z_max = (cuts.detector_z - cuts.fiducial_margin) as f64;
    Program {
        id_column: COL_GID,
        predicates: vec![
            Predicate::AbsNotGt {
                col: COL_VERTEX_X,
                bound: half,
            },
            Predicate::AbsNotGt {
                col: COL_VERTEX_Y,
                bound: half,
            },
            Predicate::NotLt {
                col: COL_VERTEX_Z,
                bound: cuts.fiducial_margin as f64,
            },
            Predicate::NotGt {
                col: COL_VERTEX_Z,
                bound: z_max,
            },
            Predicate::UIntInRange {
                col: COL_NHIT,
                lo: cuts.nhit_range.0 as u64,
                hi: cuts.nhit_range.1 as u64,
            },
            Predicate::NotGt {
                col: COL_COSMIC_SCORE,
                bound: cuts.max_cosmic_score as f64,
            },
            Predicate::NotLt {
                col: COL_CVN_NUE,
                bound: cuts.min_cvn_nue as f64,
            },
            Predicate::NotGt {
                col: COL_REMID,
                bound: cuts.max_remid as f64,
            },
            Predicate::InRange {
                col: COL_NU_ENERGY,
                lo: cuts.energy_range.0 as f64,
                hi: cuts.energy_range.1 as f64,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::NovaGenerator;
    use crate::selection::select_slices;

    #[test]
    fn encode_decode_round_trips() {
        let g = NovaGenerator::new(11);
        for e in 0..50u64 {
            let ev = g.generate(2, 1, e);
            let blob = encode_event(&ev, 16);
            assert!(yokan::pages::is_columnar(&blob));
            assert_eq!(decode_slices(&blob).unwrap(), ev.slices);
        }
    }

    #[test]
    fn empty_event_round_trips() {
        let ev = EventRecord {
            run: 1,
            subrun: 2,
            event: 3,
            slices: Vec::new(),
        };
        let blob = encode_event(&ev, DEFAULT_PAGE_ROWS);
        assert_eq!(decode_slices(&blob).unwrap(), Vec::new());
    }

    #[test]
    fn local_eval_matches_scalar_selection() {
        let g = NovaGenerator::new(23);
        let cuts = SelectionCuts::default();
        let prog = compile_cuts(&cuts);
        let mut selected = 0usize;
        for e in 0..2_000u64 {
            let ev = g.generate(4, 0, e);
            let blob = encode_event(&ev, 8);
            let out = yokan::filter::eval_program(&blob, &prog).unwrap();
            assert_eq!(out.ids, select_slices(&ev, &cuts));
            selected += out.ids.len();
        }
        assert!(selected > 0, "selection accepted nothing");
    }

    #[test]
    fn nan_scores_match_scalar_selection() {
        let g = NovaGenerator::new(7);
        let cuts = SelectionCuts::default();
        let prog = compile_cuts(&cuts);
        let mut ev = g.generate(1, 0, 0);
        for (i, s) in ev.slices.iter_mut().enumerate() {
            match i % 4 {
                0 => s.cosmic_score = f32::NAN,
                1 => s.nu_energy = f32::NAN,
                2 => s.vertex_x = f32::NAN,
                _ => s.cvn_nue = f32::NAN,
            }
        }
        let blob = encode_event(&ev, 4);
        let out = yokan::filter::eval_program(&blob, &prog).unwrap();
        assert_eq!(out.ids, select_slices(&ev, &cuts));
    }

    /// A value that states `n_rows` rows in pages of `page_rows`, with
    /// `n_columns` u64 columns and, when `body` is set, one first page
    /// whose every column body is that one byte.
    fn stating(n_columns: u16, n_rows: u32, page_rows: u32, body: Option<u8>) -> Vec<u8> {
        let mut b = yokan::pages::PAGE_MAGIC.to_vec();
        b.extend_from_slice(&n_columns.to_le_bytes());
        b.extend_from_slice(&n_rows.to_le_bytes());
        b.extend_from_slice(&page_rows.to_le_bytes());
        b.extend(std::iter::repeat_n(0u8, n_columns as usize));
        if let Some(byte) = body {
            for _ in 0..n_columns {
                b.extend_from_slice(&[0u8; 17]);
                b.extend_from_slice(&1u32.to_le_bytes());
                b.push(byte);
            }
        }
        b
    }

    #[test]
    fn stated_counts_never_size_a_decode() {
        let ids_only = Program {
            id_column: 0,
            predicates: vec![],
        };
        let cuts = compile_cuts(&SelectionCuts::default());
        let many_pages = stating(1, u32::MAX, 1, None);
        let huge_page = stating(1, u32::MAX, u32::MAX, Some(0));
        assert_eq!((many_pages.len(), huge_page.len()), (15, 37));
        let wide = N_COLUMNS as u16;
        for (blob, program) in [
            (many_pages, &ids_only),
            (huge_page, &ids_only),
            (stating(wide, u32::MAX, 1, None), &cuts),
            (stating(wide, u32::MAX, u32::MAX, Some(0)), &cuts),
        ] {
            let err = yokan::filter::eval_program(&blob, program).unwrap_err();
            assert!(matches!(err, yokan::YokanError::Protocol(_)), "{err}");
            let err = decode_slices(&blob).unwrap_err();
            assert!(matches!(err, HepnosError::Serialization(_)), "{err}");
        }
    }
}
