//! Round-robin striping arithmetic (Lustre-style layout).
//!
//! A striped file is cut into fixed-size *stripe units*; unit `k` lives
//! on server `k % S` at object offset `(k / S) × unit`. Each server thus
//! holds one contiguous *object* made of its units in order — which is
//! why a full-stripe-width access becomes one large contiguous request
//! per server, the access shape collective I/O exists to produce.

/// Striping layout parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Striping {
    /// Number of servers (OSTs) the file is striped over.
    pub n_servers: usize,
    /// Stripe unit size in bytes.
    pub unit: u64,
}

/// A contiguous extent on one server's object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectExtent {
    /// Server index, `0..n_servers`.
    pub server: usize,
    /// Offset within the server's object.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Striping {
    /// Validated constructor.
    ///
    /// # Panics
    /// Panics on zero servers or a zero stripe unit.
    #[must_use]
    pub fn new(n_servers: usize, unit: u64) -> Self {
        assert!(n_servers > 0, "striping needs at least one server");
        assert!(unit > 0, "stripe unit must be positive");
        Striping { n_servers, unit }
    }

    /// The server holding file byte `offset`.
    #[must_use]
    pub fn server_of(&self, offset: u64) -> usize {
        ((offset / self.unit) % self.n_servers as u64) as usize
    }

    /// Maps file byte `offset` to `(server, object offset)`.
    #[must_use]
    pub fn locate(&self, offset: u64) -> (usize, u64) {
        let unit_idx = offset / self.unit;
        let within = offset % self.unit;
        let server = (unit_idx % self.n_servers as u64) as usize;
        let obj_off = (unit_idx / self.n_servers as u64) * self.unit + within;
        (server, obj_off)
    }

    /// Splits the file range `offset..offset + len` into per-server
    /// object extents without allocating: one per touched server, in the
    /// order the range first reaches each server, so a full-stripe
    /// access yields exactly one extent per server. A contiguous range
    /// reaches a server in units `k, k + S, k + 2S, …`, which lie back
    /// to back on its object (unit `k` sits at object unit `k / S`), so
    /// each server's share of the range is a single extent.
    ///
    /// # Panics
    /// Panics if the range overflows the u64 address space.
    pub fn extents(&self, offset: u64, len: u64) -> impl Iterator<Item = ObjectExtent> {
        let this = *self;
        let end = offset
            .checked_add(len)
            .expect("file range overflows u64 address space");
        let first = offset / this.unit;
        // The range's last unit; unused when the range is empty.
        let last = end.saturating_sub(1) / this.unit;
        let servers = this.n_servers as u64;
        let touched = if len == 0 {
            0
        } else {
            (last - first + 1).min(servers)
        };
        (first..first + touched).map(move |k| {
            // This server's last unit in the range.
            let k_last = k + (last - k) / servers * servers;
            let (server, lo) = this.locate(offset.max(k * this.unit));
            let (_, hi) = this.locate(end.min((k_last + 1) * this.unit) - 1);
            ObjectExtent {
                server,
                offset: lo,
                len: hi + 1 - lo,
            }
        })
    }

    /// The inverse of [`Striping::locate`]: file offset for
    /// `(server, object offset)`.
    #[must_use]
    pub fn file_offset(&self, server: usize, obj_off: u64) -> u64 {
        let unit_idx_on_server = obj_off / self.unit;
        let within = obj_off % self.unit;
        (unit_idx_on_server * self.n_servers as u64 + server as u64) * self.unit + within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The extents of a range, grouped by server.
    fn by_server(s: &Striping, offset: u64, len: u64) -> Vec<ObjectExtent> {
        let mut extents: Vec<_> = s.extents(offset, len).collect();
        extents.sort_unstable_by_key(|e| e.server);
        extents
    }

    #[test]
    fn locate_round_robins_units() {
        let s = Striping::new(3, 100);
        assert_eq!(s.locate(0), (0, 0));
        assert_eq!(s.locate(99), (0, 99));
        assert_eq!(s.locate(100), (1, 0));
        assert_eq!(s.locate(250), (2, 50));
        assert_eq!(s.locate(300), (0, 100));
        assert_eq!(s.server_of(301), 0);
    }

    #[test]
    fn locate_and_file_offset_are_inverse() {
        let s = Striping::new(4, 64);
        for offset in [0u64, 1, 63, 64, 255, 256, 1000, 123_456] {
            let (server, obj) = s.locate(offset);
            assert_eq!(s.file_offset(server, obj), offset);
        }
    }

    #[test]
    fn full_stripe_width_is_one_extent_per_server() {
        let s = Striping::new(4, 100);
        // Two full stripes: units 0..8.
        let extents = by_server(&s, 0, 800);
        assert_eq!(extents.len(), 4, "{extents:?}");
        for (srv, e) in extents.iter().enumerate() {
            assert_eq!(e.server, srv);
            assert_eq!(e.offset, 0);
            assert_eq!(e.len, 200, "two units merged into one object extent");
        }
    }

    #[test]
    fn sub_unit_range_touches_one_server() {
        let s = Striping::new(3, 100);
        let extents = by_server(&s, 110, 50);
        assert_eq!(
            extents,
            vec![ObjectExtent {
                server: 1,
                offset: 10,
                len: 50
            }]
        );
    }

    #[test]
    fn unaligned_range_splits_at_unit_boundaries() {
        let s = Striping::new(2, 100);
        // 150..370: units 1 (50 B), 2 (100 B), 3 (100 B partial 70 B).
        let extents = by_server(&s, 150, 220);
        // Server 0: unit 2 → object 100..200. Server 1: unit 1 tail
        // (object 50..100) then unit 3 head (object 100..170) — contiguous
        // on the object, so merged.
        assert_eq!(
            extents,
            vec![
                ObjectExtent {
                    server: 0,
                    offset: 100,
                    len: 100
                },
                ObjectExtent {
                    server: 1,
                    offset: 50,
                    len: 120
                },
            ]
        );
    }

    #[test]
    fn every_byte_maps_to_exactly_one_extent() {
        let s = Striping::new(3, 7);
        let (offset, len) = (5u64, 100u64);
        let extents = by_server(&s, offset, len);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, len);
        // Reconstruct file coverage through the inverse mapping.
        let mut covered = vec![false; len as usize];
        for e in &extents {
            for i in 0..e.len {
                let fo = s.file_offset(e.server, e.offset + i);
                let idx = (fo - offset) as usize;
                assert!(!covered[idx], "byte {fo} covered twice");
                covered[idx] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }

    /// The reference walk, unit by unit: one open extent per server,
    /// closed when the next unit is not contiguous with it; grouped by
    /// server.
    fn map_range_by_units(s: &Striping, offset: u64, len: u64) -> Vec<ObjectExtent> {
        let mut done: Vec<Vec<ObjectExtent>> = vec![Vec::new(); s.n_servers];
        let mut pos = offset;
        while pos < offset + len {
            let chunk_end = ((pos / s.unit + 1) * s.unit).min(offset + len);
            let (server, obj_off) = s.locate(pos);
            match done[server].last_mut() {
                Some(ext) if ext.offset + ext.len == obj_off => ext.len += chunk_end - pos,
                _ => done[server].push(ObjectExtent {
                    server,
                    offset: obj_off,
                    len: chunk_end - pos,
                }),
            }
            pos = chunk_end;
        }
        done.into_iter().flatten().collect()
    }

    #[test]
    fn the_walk_matches_a_unit_by_unit_walk() {
        use mccio_sim::rng::{stream_rng, Rng};
        let mut rng = stream_rng(0x57A1, "striping-walk");
        for case in 0..2_000 {
            let s = Striping::new(rng.gen_range(1usize..=9), rng.gen_range(1u64..=300));
            let offset = rng.gen_range(0u64..=5_000);
            let len = rng.gen_range(0u64..=4_000);
            let walked = by_server(&s, offset, len);
            assert!(
                walked.len() <= s.n_servers,
                "case {case}: one extent per server"
            );
            assert_eq!(
                walked,
                map_range_by_units(&s, offset, len),
                "case {case}: {s:?} {offset}+{len}"
            );
        }
    }

    #[test]
    fn empty_range_maps_to_nothing() {
        let s = Striping::new(2, 100);
        assert_eq!(s.extents(12345, 0).count(), 0);
    }

    #[test]
    fn single_server_striping_degenerates_to_contiguous() {
        let s = Striping::new(1, 100);
        let extents = by_server(&s, 50, 500);
        assert_eq!(
            extents,
            vec![ObjectExtent {
                server: 0,
                offset: 50,
                len: 500
            }]
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = Striping::new(0, 100);
    }
}
