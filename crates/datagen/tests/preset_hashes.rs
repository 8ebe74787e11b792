//! Byte pins of every preset: an FNV-1a-64 over the edge list and the
//! raw bits of every attribute, at the two scales the benchmark and the
//! tests generate most. A change to the generator or to any sampler it
//! draws from must leave these hashes alone.

use kr_datagen::DatasetPreset;
use kr_similarity::AttributeTable;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
}

fn dataset_hash(preset: DatasetPreset, scale: f64) -> u64 {
    let d = preset.generate_scaled(scale);
    let mut h = Fnv::new();
    h.u64(d.graph.num_vertices() as u64);
    for (u, v) in d.graph.edges() {
        h.u64(u64::from(u));
        h.u64(u64::from(v));
    }
    match &d.attributes {
        AttributeTable::Points(pts) => {
            for &(x, y) in pts {
                h.u64(x.to_bits());
                h.u64(y.to_bits());
            }
        }
        AttributeTable::Keywords(lists) => {
            for list in lists {
                h.u64(list.len() as u64);
                for &(k, w) in list {
                    h.u64(u64::from(k));
                    h.u64(w.to_bits());
                }
            }
        }
        AttributeTable::Vectors(_) => panic!("no preset generates vectors"),
    }
    h.0
}

#[test]
fn preset_bytes_are_pinned() {
    let want: [(DatasetPreset, f64, u64); 8] = [
        (DatasetPreset::BrightkiteLike, 0.25, 0x52ad_114f_ea0e_3393),
        (DatasetPreset::GowallaLike, 0.25, 0x81a2_a8d0_203c_575b),
        (DatasetPreset::DblpLike, 0.25, 0xed3b_6500_fb20_ef41),
        (DatasetPreset::PokecLike, 0.25, 0x7b63_bbcb_8bc4_1ea0),
        (DatasetPreset::BrightkiteLike, 1.0, 0x1d54_c191_40f5_4ab5),
        (DatasetPreset::GowallaLike, 1.0, 0xa619_ddd6_ac7f_18c5),
        (DatasetPreset::DblpLike, 1.0, 0x5a52_2dfe_058f_6c05),
        (DatasetPreset::PokecLike, 1.0, 0x1dc0_2d7a_c07e_7c94),
    ];
    let got: Vec<(DatasetPreset, f64, u64)> = want
        .iter()
        .map(|&(p, scale, _)| (p, scale, dataset_hash(p, scale)))
        .collect();
    assert_eq!(got, want, "{got:#x?}");
}
