//! Randomized property tests on striping arithmetic and the file store:
//! every byte maps to exactly one server object location, the mapping
//! inverts, and arbitrary write/read sequences behave like a POSIX
//! sparse file. Cases are drawn from the workspace's seeded PRNG, so a
//! failure reproduces by its printed case index.

use mccio_pfs::{FileSystem, PfsParams, Striping};
use mccio_sim::rng::{stream_rng, Rng};

#[test]
fn locate_inverts_everywhere() {
    let mut rng = stream_rng(0x57A1, "striping-locate");
    for case in 0..256 {
        let servers = rng.gen_range(1usize..=11);
        let unit = rng.gen_range(1u64..=4095);
        let offset = rng.gen_range(0u64..=(1 << 40) - 1);
        let s = Striping::new(servers, unit);
        let (srv, obj) = s.locate(offset);
        assert!(srv < servers, "case {case}");
        assert_eq!(s.file_offset(srv, obj), offset, "case {case}");
        assert_eq!(s.server_of(offset), srv, "case {case}");
    }
}

#[test]
fn extents_are_a_partition() {
    let mut rng = stream_rng(0x57A1, "striping-map-range");
    for case in 0..256 {
        let servers = rng.gen_range(1usize..=7);
        let unit = rng.gen_range(1u64..=511);
        let offset = rng.gen_range(0u64..=9_999);
        let len = rng.gen_range(0u64..=4_999);
        let s = Striping::new(servers, unit);
        let extents: Vec<_> = s.extents(offset, len).collect();
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, len, "case {case}");
        // Inverse mapping reconstructs a contiguous cover.
        let mut bytes: Vec<u64> = extents
            .iter()
            .flat_map(|e| (0..e.len).map(move |i| s.file_offset(e.server, e.offset + i)))
            .collect();
        bytes.sort_unstable();
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(*b, offset + i as u64, "case {case}");
        }
        // At most one extent per server.
        for srv in 0..servers {
            let mine = extents.iter().filter(|e| e.server == srv).count();
            assert!(mine <= 1, "case {case}: server {srv} has {mine} extents");
        }
    }
}

#[test]
fn file_store_matches_a_reference_model() {
    let mut rng = stream_rng(0x57A1, "striping-file-model");
    for case in 0..64 {
        let fs = FileSystem::new(3, 64, PfsParams::default());
        let h = fs.create("model").unwrap();
        let mut model: Vec<u8> = Vec::new();
        let n_ops = rng.gen_range(1usize..=23);
        for _ in 0..n_ops {
            let offset = rng.gen_range(0u64..=2047);
            let len = rng.gen_range(1usize..=63);
            let is_write = rng.gen_bool(0.5);
            if is_write {
                let data: Vec<u8> = (0..len).map(|_| rng.gen::<u64>() as u8).collect();
                let end = offset as usize + data.len();
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[offset as usize..end].copy_from_slice(&data);
                h.write_at(offset, &data);
            } else {
                let (got, _) = h.read_at(offset, len as u64);
                let mut expect = vec![0u8; len];
                for (i, e) in expect.iter_mut().enumerate() {
                    if let Some(&b) = model.get(offset as usize + i) {
                        *e = b;
                    }
                }
                assert_eq!(got, expect, "case {case}");
            }
            assert_eq!(h.len(), model.len() as u64, "case {case}");
        }
    }
}

#[test]
fn report_request_counts_respect_object_contiguity() {
    let mut rng = stream_rng(0x57A1, "striping-contiguity");
    for case in 0..64 {
        // A full-stripe-aligned contiguous write of `stripes` units needs
        // exactly min(stripes, servers) requests.
        let servers = rng.gen_range(1usize..=5);
        let stripes = rng.gen_range(1u64..=63);
        let unit = 128u64;
        let fs = FileSystem::new(servers, unit, PfsParams::default());
        let h = fs.create("contig").unwrap();
        let r = h.write_at(0, &vec![1u8; (stripes * unit) as usize]);
        assert_eq!(
            r.total_requests(),
            stripes.min(servers as u64),
            "case {case}"
        );
        assert_eq!(r.total_bytes(), stripes * unit, "case {case}");
    }
}
