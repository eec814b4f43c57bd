//! Randomized tests on the layout machinery: datatype flattening, file
//! views, extent algebra, and sieving must all agree with brute-force
//! reference models. Cases are drawn from the workspace's seeded PRNG,
//! so a failure reproduces by its printed case index.

use mccio_mpiio::sieve::{sieved_read, sieved_write};
use mccio_mpiio::{Datatype, Extent, ExtentList, FileView, SieveConfig};
use mccio_pfs::{FileSystem, IoFaults, PfsParams};
use mccio_sim::rng::{stream_rng, Rng};

fn random_extents(rng: &mut impl Rng, n_max: usize, off_max: u64, len_max: u64) -> Vec<Extent> {
    let n = rng.gen_range(0usize..=n_max);
    (0..n)
        .map(|_| Extent::new(rng.gen_range(0u64..=off_max), rng.gen_range(0u64..=len_max)))
        .collect()
}

#[test]
fn normalize_is_idempotent_and_canonical() {
    let mut rng = stream_rng(0x1A70, "layout-normalize");
    for case in 0..96 {
        let extents = random_extents(&mut rng, 40, 9_999, 499);
        let once = ExtentList::normalize(extents.clone());
        let twice = ExtentList::normalize(once.as_slice().to_vec());
        assert_eq!(once, twice, "case {case}");
        // Canonical: sorted, disjoint, non-empty, with gaps between.
        for w in once.as_slice().windows(2) {
            assert!(w[0].end() < w[1].offset, "case {case}: {w:?} not separated");
        }
        // Coverage equals the union of the inputs.
        let mut model = std::collections::BTreeSet::new();
        for e in &extents {
            for b in e.offset..e.end() {
                model.insert(b);
            }
        }
        assert_eq!(once.total_bytes() as usize, model.len(), "case {case}");
        for e in once.as_slice() {
            for b in e.offset..e.end() {
                assert!(model.contains(&b), "case {case}");
            }
        }
    }
}

#[test]
fn clip_agrees_with_bytewise_model() {
    let mut rng = stream_rng(0x1A70, "layout-clip");
    for case in 0..96 {
        let raw: Vec<Extent> = {
            let n = rng.gen_range(0usize..=20);
            (0..n)
                .map(|_| Extent::new(rng.gen_range(0u64..=1_999), rng.gen_range(1u64..=99)))
                .collect()
        };
        let list = ExtentList::normalize(raw);
        let w_off = rng.gen_range(0u64..=2_499);
        let w_len = rng.gen_range(0u64..=799);
        let window = Extent::new(w_off, w_len);
        let clipped = list.clip(window);
        // Byte-for-byte agreement.
        for b in w_off..w_off + w_len {
            let in_list = list.as_slice().iter().any(|e| e.contains(b));
            let in_clip = clipped.as_slice().iter().any(|e| e.contains(b));
            assert_eq!(in_list, in_clip, "case {case}, byte {b}");
        }
        assert_eq!(list.overlaps(window), !clipped.is_empty(), "case {case}");
    }
}

#[test]
fn vector_flatten_matches_enumeration() {
    let mut rng = stream_rng(0x1A70, "layout-vector");
    for case in 0..96 {
        let count = rng.gen_range(0u64..=19);
        let blocklen = rng.gen_range(1u64..=49);
        let gap = rng.gen_range(0u64..=49);
        let base = rng.gen_range(0u64..=999);
        let stride = blocklen + gap;
        let dt = Datatype::Vector {
            count,
            blocklen,
            stride,
        };
        let flat = dt.flatten(base);
        let mut model = Vec::new();
        for i in 0..count {
            for b in 0..blocklen {
                model.push(base + i * stride + b);
            }
        }
        let flattened: Vec<u64> = flat
            .as_slice()
            .iter()
            .flat_map(|e| e.offset..e.end())
            .collect();
        assert_eq!(flattened, model, "case {case}");
        assert_eq!(flat.total_bytes(), dt.size(), "case {case}");
    }
}

#[test]
fn fileview_tiles_are_the_flattened_type_repeated() {
    let mut rng = stream_rng(0x1A70, "layout-fileview");
    for case in 0..96 {
        // Build a valid indexed type (sorted, disjoint) from raw pairs.
        let n_blocks = rng.gen_range(1usize..=3);
        let mut cursor = 0u64;
        let fields: Vec<(u64, u64)> = (0..n_blocks)
            .map(|_| {
                let gap = rng.gen_range(0u64..=5);
                let len = rng.gen_range(1u64..=7);
                let d = cursor + gap;
                cursor = d + len;
                (d, len)
            })
            .collect();
        let disp = rng.gen_range(0u64..=99);
        let req_off = rng.gen_range(0u64..=63);
        let req_len = rng.gen_range(1u64..=127);
        let dt = Datatype::Indexed {
            blocks: fields.clone(),
        };
        let view = FileView::new(disp, &dt);
        let got = view.extents_for(req_off, req_len);
        assert_eq!(got.total_bytes(), req_len, "case {case}");
        // Reference: enumerate the view's data bytes in order.
        let tile_size: u64 = fields.iter().map(|&(_, l)| l).sum();
        let extent = dt.extent();
        let mut model = Vec::new();
        let mut produced = 0u64;
        let mut tile = req_off / tile_size;
        let mut skip = req_off % tile_size;
        'outer: loop {
            for &(d, l) in &fields {
                for b in 0..l {
                    if skip > 0 {
                        skip -= 1;
                        continue;
                    }
                    model.push(disp + tile * extent + d + b);
                    produced += 1;
                    if produced == req_len {
                        break 'outer;
                    }
                }
            }
            tile += 1;
        }
        let got_bytes: Vec<u64> = got
            .as_slice()
            .iter()
            .flat_map(|e| e.offset..e.end())
            .collect();
        assert_eq!(got_bytes, model, "case {case}");
    }
}

#[test]
fn sieved_write_read_roundtrip_random_patterns() {
    let mut rng = stream_rng(0x1A70, "layout-sieve-roundtrip");
    for case in 0..96 {
        let n = rng.gen_range(1usize..=16);
        let raw: Vec<Extent> = (0..n)
            .map(|_| Extent::new(rng.gen_range(0u64..=3_999), rng.gen_range(1u64..=199)))
            .collect();
        let extents = ExtentList::normalize(raw);
        let buffer = rng.gen_range(64u64..=2_047);
        let fs = FileSystem::new(2, 128, PfsParams::default());
        let h = fs.create("sieve").unwrap();
        let data: Vec<u8> = (0..extents.total_bytes())
            .map(|i| (i % 251) as u8)
            .collect();
        let cfg = SieveConfig {
            buffer_size: buffer,
        };
        let faults = &mut IoFaults::none();
        sieved_write(&h, &extents, &data, cfg, faults).unwrap();
        let (back, _) = sieved_read(&h, &extents, cfg, faults).unwrap();
        assert_eq!(back, data, "case {case}");
    }
}
